"""Tests for the memory-reference generator archetypes."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import (
    blocked_stream,
    pointer_stream,
    streaming_stream,
    zipf_stream,
)
from repro.workloads.generators import _gap, _gap_rate


def take(stream, n):
    return list(itertools.islice(stream, n))


def footprint(refs, granule=64):
    return {r.addr // granule for r in refs}


def write_ratio(refs):
    return sum(r.is_write for r in refs) / len(refs)


class TestStreaming:
    def test_addresses_stay_in_working_set(self):
        refs = take(streaming_stream(random.Random(0), ws_bytes=4096,
                                     arrays=2, base=0), 2000)
        assert all(0 <= r.addr < (1 << 26) + 4096 for r in refs)

    def test_sequential_within_array(self):
        refs = take(
            streaming_stream(random.Random(0), ws_bytes=8192, arrays=1,
                             store_ratio=0, base=0),
            16,
        )
        addrs = [r.addr for r in refs]
        assert addrs == list(range(0, 128, 8))

    def test_wraps_around(self):
        refs = take(
            streaming_stream(random.Random(0), ws_bytes=64, arrays=1,
                             store_ratio=0, base=0),
            20,
        )
        assert refs[0].addr == refs[8].addr  # 64B array of 8B strides

    def test_writer_arrays_write_every_step(self):
        refs = take(
            streaming_stream(random.Random(0), ws_bytes=8192, arrays=4,
                             store_ratio=0.5),
            400,
        )
        assert write_ratio(refs) == pytest.approx(0.5, abs=0.01)

    def test_at_least_one_writer_for_small_ratio(self):
        refs = take(
            streaming_stream(random.Random(0), ws_bytes=8192, arrays=3,
                             store_ratio=0.05),
            300,
        )
        assert any(r.is_write for r in refs)

    def test_gap_nonnegative_and_bounded(self):
        refs = take(streaming_stream(random.Random(0), ws_bytes=4096), 500)
        assert all(0 <= r.gap <= 64 for r in refs)


class TestBlocked:
    def test_first_pass_is_read_only(self):
        refs = take(
            blocked_stream(random.Random(0), ws_bytes=4096, tile_bytes=512,
                           reuse=3, store_ratio=1.0, base=0),
            64,  # one pass = 512/8 = 64 refs
        )
        assert not any(r.is_write for r in refs)

    def test_later_passes_write(self):
        refs = take(
            blocked_stream(random.Random(0), ws_bytes=4096, tile_bytes=512,
                           reuse=2, store_ratio=1.0, base=0),
            128,
        )
        second_pass = refs[64:]
        assert all(r.is_write for r in second_pass)

    def test_tile_locality(self):
        """Each reuse group touches exactly one tile's footprint."""
        refs = take(
            blocked_stream(random.Random(0), ws_bytes=8192, tile_bytes=1024,
                           reuse=2, base=0),
            256,  # one tile visit = 2 * 128 refs
        )
        tiles = {r.addr // 1024 for r in refs}
        assert len(tiles) == 1

    def test_covers_working_set_quickly(self):
        """Sequential-ish tile order sweeps the footprint in ~one round."""
        rng = random.Random(1)
        n_tiles = 8
        refs = take(
            blocked_stream(rng, ws_bytes=8 * 512, tile_bytes=512, reuse=1,
                           base=0),
            64 * n_tiles * 2,
        )
        assert len({r.addr // 512 for r in refs}) == n_tiles


class TestPointer:
    def test_node_aligned_reads(self):
        refs = take(
            pointer_stream(random.Random(0), ws_bytes=4096, store_ratio=0,
                           node_bytes=64, base=0),
            200,
        )
        assert all(r.addr % 64 == 0 for r in refs)
        assert not any(r.is_write for r in refs)

    def test_store_follows_read_of_same_node(self):
        refs = take(
            pointer_stream(random.Random(0), ws_bytes=4096, store_ratio=1.0,
                           node_bytes=64, base=0),
            100,
        )
        for read, write in zip(refs[::2], refs[1::2]):
            assert write.is_write
            assert write.addr == read.addr + 8

    def test_footprint_spread(self):
        refs = take(
            pointer_stream(random.Random(0), ws_bytes=64 * 1024,
                           store_ratio=0, base=0),
            3000,
        )
        assert len(footprint(refs)) > 500


class TestZipf:
    def test_skewed_popularity(self):
        from collections import Counter

        refs = take(
            zipf_stream(random.Random(0), ws_bytes=64 * 1024, alpha=1.0,
                        store_ratio=0, base=0),
            8000,
        )
        counts = Counter(r.addr // 64 for r in refs)
        top = sum(c for _, c in counts.most_common(50))
        assert top / len(refs) > 0.25  # top-50 of 1024 take >25%

    def test_store_ratio_respected(self):
        refs = take(
            zipf_stream(random.Random(0), ws_bytes=16 * 1024,
                        store_ratio=0.3, base=0),
            4000,
        )
        assert write_ratio(refs) == pytest.approx(0.3, abs=0.05)

    def test_fresh_writes_march_sequentially(self):
        refs = take(
            zipf_stream(random.Random(0), ws_bytes=16 * 1024,
                        store_ratio=1.0, fresh_write_fraction=1.0, base=0),
            64,
        )
        addrs = [r.addr for r in refs]
        assert addrs == list(range(0, 512, 8))

    def test_addresses_within_working_set(self):
        refs = take(
            zipf_stream(random.Random(0), ws_bytes=8192, base=0), 2000
        )
        assert all(0 <= r.addr < 8192 for r in refs)


class TestEdgeCases:
    def test_streaming_tiny_working_set(self):
        refs = take(
            streaming_stream(random.Random(0), ws_bytes=8, arrays=1,
                             store_ratio=0, base=0),
            10,
        )
        assert all(r.addr == 0 for r in refs)  # one-slot array wraps

    def test_blocked_single_reuse_never_writes(self):
        refs = take(
            blocked_stream(random.Random(0), ws_bytes=2048, tile_bytes=512,
                           reuse=1, store_ratio=1.0, base=0),
            300,
        )
        assert not any(r.is_write for r in refs)

    def test_blocked_tile_larger_than_ws(self):
        refs = take(
            blocked_stream(random.Random(0), ws_bytes=256, tile_bytes=1024,
                           reuse=2, base=0),
            200,
        )
        assert len({r.addr // 1024 for r in refs}) == 1

    def test_pointer_single_node(self):
        refs = take(
            pointer_stream(random.Random(0), ws_bytes=64, store_ratio=0,
                           node_bytes=64, base=0),
            20,
        )
        assert all(r.addr == 0 for r in refs)

    def test_zipf_single_block(self):
        refs = take(
            zipf_stream(random.Random(0), ws_bytes=64, store_ratio=0.5,
                        base=0),
            50,
        )
        assert all(0 <= r.addr < 64 for r in refs)

    def test_zero_mean_gap(self):
        refs = take(
            streaming_stream(random.Random(0), ws_bytes=4096, mean_gap=0),
            100,
        )
        assert all(r.gap == 0 for r in refs)


class TestGapDraw:
    @given(
        st.integers(0, 2**32),
        st.one_of(st.sampled_from([1.5, 2.0, 0.1, 7.0]),
                  st.floats(0.01, 80.0)),
    )
    def test_matches_expovariate(self, seed, mean_gap):
        """The inlined draw is ``min(int(rng.expovariate(1/mean)), 64)``
        to the bit, and consumes the RNG identically."""
        fast, slow = random.Random(seed), random.Random(seed)
        lambd = _gap_rate(mean_gap)
        for _ in range(50):
            expected = min(int(slow.expovariate(1.0 / mean_gap)), 64)
            assert _gap(fast.random, lambd) == expected
        assert fast.getstate() == slow.getstate()


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda rng: streaming_stream(rng, ws_bytes=8192),
            lambda rng: blocked_stream(rng, ws_bytes=8192, tile_bytes=512),
            lambda rng: pointer_stream(rng, ws_bytes=8192),
            lambda rng: zipf_stream(rng, ws_bytes=8192),
        ],
        ids=["streaming", "blocked", "pointer", "zipf"],
    )
    def test_same_seed_same_stream(self, factory):
        a = take(factory(random.Random(7)), 300)
        b = take(factory(random.Random(7)), 300)
        assert a == b
