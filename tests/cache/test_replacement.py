"""Tests for replacement policies."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import CacheLine, FifoPolicy, LruPolicy, RandomPolicy, make_policy


def make_set(n=4, valid=True):
    lines = []
    for i in range(n):
        line = CacheLine()
        if valid:
            line.fill(tag=i, cycle=0, stamp=i)
        lines.append(line)
    return lines


class TestInvalidPreference:
    @pytest.mark.parametrize("policy", [LruPolicy(), FifoPolicy(), RandomPolicy(0)])
    def test_invalid_way_chosen_first(self, policy):
        ways = make_set(4)
        ways[2].invalidate()
        assert policy.choose_victim(ways) == 2

    @pytest.mark.parametrize("policy", [LruPolicy(), FifoPolicy(), RandomPolicy(0)])
    def test_first_invalid_way_wins(self, policy):
        ways = make_set(4, valid=False)
        assert policy.choose_victim(ways) == 0


class TestLru:
    def test_oldest_stamp_evicted(self):
        ways = make_set(4)
        ways[1].lru_stamp = 100
        ways[3].lru_stamp = 50
        ways[0].lru_stamp = 75
        ways[2].lru_stamp = 60
        assert LruPolicy().choose_victim(ways) == 3

    def test_access_refreshes_stamp(self):
        ways = make_set(4)
        policy = LruPolicy()
        ways[0].lru_stamp = 999
        assert policy.choose_victim(ways) != 0

    def test_recency_order_respected_over_sequence(self):
        ways = make_set(4)
        policy = LruPolicy()
        for stamp, way in enumerate([2, 0, 3, 1]):
            ways[way].lru_stamp = 10 + stamp
        assert policy.choose_victim(ways) == 2


class TestFifo:
    def test_earliest_fill_evicted_despite_touches(self):
        ways = make_set(4)  # fifo_stamp = fill order 0..3
        policy = FifoPolicy()
        ways[0].lru_stamp = 1000  # touch does not move FIFO
        assert policy.choose_victim(ways) == 0


class TestRandom:
    def test_deterministic_for_seed(self):
        ways = make_set(4)
        a = [RandomPolicy(7).choose_victim(ways) for _ in range(20)]
        b = [RandomPolicy(7).choose_victim(ways) for _ in range(20)]
        assert a == b

    def test_in_range(self):
        ways = make_set(4)
        policy = RandomPolicy(1)
        for _ in range(50):
            assert 0 <= policy.choose_victim(ways) < 4


def longhand_victim(ways, stamp_of, rng=None):
    """The definition: the first invalid way; else the first way holding
    the minimum stamp (LRU / FIFO) or a seeded random way (random)."""
    for way, line in enumerate(ways):
        if not line.valid:
            return way
    if rng is not None:
        return rng.randrange(len(ways))
    stamps = [stamp_of(line) for line in ways]
    return stamps.index(min(stamps))


#: One way: (valid, lru stamp, fifo stamp); stamps from a tiny range so
#: ties are common.
WAY = st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3))


def build_set(spec):
    ways = []
    for valid, lru, fifo in spec:
        line = CacheLine()
        line.fill(tag=len(ways), cycle=0, stamp=0)
        line.lru_stamp, line.fifo_stamp = lru, fifo
        if not valid:
            line.invalidate()
        ways.append(line)
    return ways


class TestSinglePassMatchesDefinition:
    @given(st.lists(WAY, min_size=1, max_size=16))
    def test_lru(self, spec):
        ways = build_set(spec)
        expected = longhand_victim(ways, lambda line: line.lru_stamp)
        assert LruPolicy().choose_victim(ways) == expected

    @given(st.lists(WAY, min_size=1, max_size=16))
    def test_fifo(self, spec):
        ways = build_set(spec)
        expected = longhand_victim(ways, lambda line: line.fifo_stamp)
        assert FifoPolicy().choose_victim(ways) == expected

    @given(
        st.lists(st.lists(WAY, min_size=1, max_size=16), min_size=1,
                 max_size=8),
        st.integers(0, 2**16),
    )
    def test_random_draws_only_for_full_sets(self, specs, seed):
        """Same victims, and the RNG advances only when every way is
        valid — a sequence of choices stays in lockstep."""
        policy, rng = RandomPolicy(seed), random.Random(seed)
        for spec in specs:
            ways = build_set(spec)
            expected = longhand_victim(ways, None, rng=rng)
            assert policy.choose_victim(ways) == expected


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("FIFO"), FifoPolicy)
        assert isinstance(make_policy("Random"), RandomPolicy)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown replacement"):
            make_policy("plru")
