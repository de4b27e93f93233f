"""Tests for MSHR in-flight miss tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import MemoryHierarchy
from repro.cache.mshr import MshrFile


class EagerMshr:
    """The definition: prune every completed fill at every allocation."""

    def __init__(self, entries):
        self.entries = entries
        self.pending = {}
        self.merges = self.overflows = self.allocations = 0

    def pending_ready(self, block, cycle):
        ready = self.pending.get(block)
        if ready is None or ready <= cycle:
            return None
        self.merges += 1
        return ready

    def allocate(self, block, ready, cycle):
        for b in [b for b, r in self.pending.items() if r <= cycle]:
            del self.pending[b]
        if len(self.pending) >= self.entries and block not in self.pending:
            victim = min(self.pending, key=self.pending.__getitem__)
            del self.pending[victim]
            self.overflows += 1
        self.pending[block] = ready
        self.allocations += 1


#: (allocate?, block, latency, cycles elapsed since the previous op).
#: Few blocks and short latencies so merges, re-allocations of live and
#: completed blocks, overflows and completion-time ties all occur.
MSHR_OP = st.tuples(
    st.booleans(), st.integers(0, 9), st.integers(0, 30), st.integers(0, 12)
)


class TestMshrFile:
    def test_validation(self):
        with pytest.raises(ValueError):
            MshrFile(entries=0)

    def test_no_pending_initially(self):
        m = MshrFile()
        assert m.pending_ready(5, cycle=0) is None

    def test_pending_until_ready(self):
        m = MshrFile()
        m.allocate(block=5, ready=100, cycle=0)
        assert m.pending_ready(5, cycle=50) == 100
        assert m.pending_ready(5, cycle=100) is None

    def test_merge_counted(self):
        m = MshrFile()
        m.allocate(7, ready=100, cycle=0)
        m.pending_ready(7, cycle=10)
        m.pending_ready(7, cycle=20)
        assert m.stats.merges == 2

    def test_prune_on_allocate(self):
        m = MshrFile(entries=2)
        m.allocate(1, ready=10, cycle=0)
        m.allocate(2, ready=20, cycle=0)
        # Both done by cycle 30: no overflow for a third entry.
        m.allocate(3, ready=50, cycle=30)
        assert m.stats.overflows == 0
        assert len(m) == 1

    def test_overflow_displaces_soonest(self):
        m = MshrFile(entries=2)
        m.allocate(1, ready=100, cycle=0)
        m.allocate(2, ready=200, cycle=0)
        m.allocate(3, ready=300, cycle=0)
        assert m.stats.overflows == 1
        assert m.pending_ready(1, 0) is None  # displaced
        assert m.pending_ready(2, 0) == 200

    def test_reallocate_same_block_not_overflow(self):
        m = MshrFile(entries=1)
        m.allocate(1, ready=100, cycle=0)
        m.allocate(1, ready=120, cycle=10)
        assert m.stats.overflows == 0


class TestLazyPruneMatchesEager:
    def test_reallocated_completed_fill_queues_behind_live_ones(self):
        """A completed fill re-allocated for its block goes to the back
        of the table, so a later completion-time tie displaces the
        entry that really was allocated first."""
        lazy, eager = MshrFile(2), EagerMshr(2)
        for m in (lazy, eager):
            m.allocate(1, ready=10, cycle=0)
            m.allocate(2, ready=30, cycle=0)
            m.allocate(1, ready=30, cycle=15)  # block 1's fill completed
            m.allocate(3, ready=40, cycle=16)  # full: a 30-vs-30 tie
        assert lazy.pending_ready(2, 16) is eager.pending_ready(2, 16) is None
        assert lazy.pending_ready(1, 16) == eager.pending_ready(1, 16) == 30

    @given(st.integers(1, 4), st.lists(MSHR_OP, max_size=80))
    @settings(max_examples=300)
    def test_same_answers_and_counters(self, entries, ops):
        lazy, eager = MshrFile(entries), EagerMshr(entries)
        cycle = 0
        for is_alloc, block, latency, dt in ops:
            cycle += dt
            if is_alloc:
                lazy.allocate(block, cycle + latency, cycle)
                eager.allocate(block, cycle + latency, cycle)
            else:
                assert lazy.pending_ready(block, cycle) == (
                    eager.pending_ready(block, cycle)
                )
            stats = lazy.as_dict()
            assert stats["merges"] == eager.merges
            assert stats["overflows"] == eager.overflows
            assert stats["allocations"] == eager.allocations
            assert stats["occupancy"] == len(eager.pending) == len(lazy)
        # Every block still answers the same after the sequence.
        for block in range(10):
            assert lazy.pending_ready(block, cycle) == (
                eager.pending_ready(block, cycle)
            )


class TestHierarchyMergedMisses:
    def test_second_load_waits_for_inflight_fill(self):
        """A load right behind a miss to the same block must not see a
        1-cycle hit — the data is still on its way from memory."""
        h = MemoryHierarchy()
        first = h.load(0x10000, cycle=10)
        assert first > 100  # cold miss to memory
        second = h.load(0x10008, cycle=11)  # same 64B block, next cycle
        assert second > 50  # waits for the fill, not an instant hit
        assert second <= first
        assert h.l1d_mshr.stats.merges == 1

    def test_load_after_fill_completes_hits(self):
        h = MemoryHierarchy()
        lat = h.load(0x10000, cycle=10)
        warm = h.load(0x10008, cycle=10 + lat + 1)
        assert warm == h.l1d.config.hit_latency

    def test_ifetch_merging(self):
        h = MemoryHierarchy()
        h.ifetch(0x400000, cycle=1)
        merged = h.ifetch(0x400020, cycle=2)  # same 64B block
        assert merged > 50
        assert h.l1i_mshr.stats.merges == 1

    def test_distinct_blocks_do_not_merge(self):
        h = MemoryHierarchy()
        h.load(0x10000, cycle=1)
        h.load(0x20000, cycle=2)
        assert h.l1d_mshr.stats.merges == 0
