"""Tests for the integrated protected L2 (cleaning + shared ECC array)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, WritebackReason
from repro.core import (
    IntegrityError,
    ProtectedL2,
    ProtectionConfig,
    check_invariants,
)


def l2_config(**kw):
    defaults = dict(name="l2", size_bytes=8192, ways=4, line_bytes=64)
    defaults.update(kw)
    return CacheConfig(**defaults)


def make_l2(cleaning=None, ecc=1):
    return ProtectedL2(
        l2_config(),
        ProtectionConfig(cleaning_interval=cleaning, ecc_entries_per_set=ecc),
    )


def same_set_addrs(cache, n):
    """n distinct block addresses all mapping to set 0."""
    stride = cache.n_sets * cache.config.line_bytes
    return [i * stride for i in range(n)]


class TestConfigValidation:
    def test_bad_interval(self):
        with pytest.raises(ValueError):
            ProtectionConfig(cleaning_interval=0)

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            ProtectionConfig(ecc_entries_per_set=-1)

    def test_none_disables_both(self):
        l2 = make_l2(cleaning=None, ecc=None)
        assert l2.cleaning is None
        assert l2.ecc_array is None


class TestEccEntryEviction:
    """Section 3.3: at most one dirty line per set; ECC-WB on conflict."""

    def test_second_dirty_line_in_set_forces_ecc_wb(self):
        l2 = make_l2()
        a, b = same_set_addrs(l2, 2)
        l2.access(a, is_write=True, cycle=1)
        res = l2.access(b, is_write=True, cycle=2)
        ecc_wbs = [
            wb for wb in res.writebacks
            if wb.reason is WritebackReason.ECC_EVICTION
        ]
        assert len(ecc_wbs) == 1
        assert ecc_wbs[0].addr == a
        # The displaced line stays resident, but clean.
        assert l2.probe(a)
        assert not l2.find_line(a).dirty
        assert l2.find_line(b).dirty
        check_invariants(l2)

    def test_rewrite_of_owner_needs_no_eviction(self):
        l2 = make_l2()
        a = same_set_addrs(l2, 1)[0]
        l2.access(a, is_write=True, cycle=1)
        res = l2.access(a, is_write=True, cycle=2)
        assert res.writebacks == []
        assert l2.find_line(a).written
        check_invariants(l2)

    def test_at_most_one_dirty_per_set_always(self):
        l2 = make_l2()
        addrs = same_set_addrs(l2, 4)
        for cycle, a in enumerate(addrs * 3):
            l2.access(a, is_write=True, cycle=cycle)
            check_invariants(l2)
        dirty_in_set0 = sum(
            1 for line in l2.sets[0] if line.valid and line.dirty
        )
        assert dirty_in_set0 == 1

    def test_two_entries_per_set_allow_two_dirty(self):
        l2 = make_l2(ecc=2)
        a, b, c = same_set_addrs(l2, 3)
        l2.access(a, is_write=True, cycle=1)
        res = l2.access(b, is_write=True, cycle=2)
        assert res.writebacks == []
        res = l2.access(c, is_write=True, cycle=3)
        assert len(res.writebacks) == 1  # now an eviction is needed
        check_invariants(l2)

    def test_reads_never_touch_ecc_array(self):
        l2 = make_l2()
        for i in range(50):
            l2.access(i * 64, is_write=False, cycle=i)
        assert l2.ecc_array.used_entries() == 0

    def test_replacement_of_dirty_line_releases_entry(self):
        l2 = make_l2()
        addrs = same_set_addrs(l2, 5)
        l2.access(addrs[0], is_write=True, cycle=0)
        for i, a in enumerate(addrs[1:], start=1):
            l2.access(a, is_write=False, cycle=i)
        # addrs[0] was LRU-evicted; its entry must be free again.
        assert l2.ecc_array.used_entries() == 0
        check_invariants(l2)


class TestCleaningSweep:
    def test_write_once_line_cleaned_after_interval(self):
        l2 = make_l2(cleaning=64, ecc=None)
        l2.access(0x0, is_write=True, cycle=1)
        assert l2.dirty.dirty_count == 1
        wbs = l2.advance(10_000)
        assert any(wb.reason is WritebackReason.CLEANING for wb in wbs)
        assert l2.dirty.dirty_count == 0
        assert l2.probe(0x0)  # cleaned, not evicted

    def test_rewritten_line_gets_second_chance(self):
        """A written=1 line is not cleaned; its written bit resets."""
        l2 = make_l2(cleaning=128, ecc=None)
        l2.access(0x0, is_write=True, cycle=1)
        l2.access(0x0, is_write=True, cycle=2)
        line = l2.find_line(0x0)
        assert line.written
        # One full sweep: set 0 checked, written reset, not cleaned.
        wbs = l2.advance(130)
        assert wbs == []
        assert line.dirty and not line.written
        # Next sweep with no intervening write: now cleaned.
        wbs = l2.advance(260)
        assert any(wb.reason is WritebackReason.CLEANING for wb in wbs)
        assert not line.dirty

    def test_continuously_written_line_survives(self):
        l2 = make_l2(cleaning=64, ecc=None)
        for cycle in range(0, 2000, 10):
            l2.access(0x0, is_write=True, cycle=cycle)
            l2.advance(cycle + 5)
        assert l2.find_line(0x0).dirty

    def test_cleaning_releases_ecc_entry(self):
        l2 = make_l2(cleaning=64, ecc=1)
        l2.access(0x0, is_write=True, cycle=1)
        assert l2.ecc_array.used_entries() == 1
        l2.advance(10_000)
        assert l2.ecc_array.used_entries() == 0
        check_invariants(l2)

    def test_cleaning_disabled_never_writes_back(self):
        l2 = make_l2(cleaning=None, ecc=None)
        l2.access(0x0, is_write=True, cycle=1)
        assert l2.advance(1_000_000) == []
        assert l2.dirty.dirty_count == 1


class TestWritebackBreakdown:
    def test_breakdown_keys(self):
        l2 = make_l2()
        bd = l2.writeback_breakdown()
        assert set(bd) == {"WB", "Clean-WB", "ECC-WB"}

    def test_breakdown_counts(self):
        l2 = make_l2(cleaning=64, ecc=1)
        a, b = same_set_addrs(l2, 2)
        l2.access(a, is_write=True, cycle=1)
        l2.access(b, is_write=True, cycle=2)  # ECC-WB of a
        l2.advance(10_000)  # Clean-WB of b
        bd = l2.writeback_breakdown()
        assert bd["ECC-WB"] == 1
        assert bd["Clean-WB"] == 1
        assert bd["WB"] == 0


class TestInvariantsUnderRandomTraffic:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_workload_preserves_invariants(self, seed):
        rng = random.Random(seed)
        l2 = make_l2(cleaning=256, ecc=1)
        cycle = 0
        for _ in range(400):
            cycle += rng.randint(1, 50)
            addr = rng.randrange(1 << 16)
            l2.advance(cycle)
            l2.access(addr, rng.random() < 0.5, cycle)
        check_invariants(l2)

    def test_scrub_detects_corruption(self):
        l2 = make_l2()
        l2.access(0x0, is_write=True, cycle=1)
        # Corrupt: drop the ECC entry behind the cache's back.
        l2.ecc_array.release(*l2.locate(0x0)[:1], 0)
        with pytest.raises(IntegrityError):
            check_invariants(l2)

    def test_scrub_detects_integrator_drift(self):
        l2 = make_l2()
        l2.access(0x0, is_write=True, cycle=1)
        l2.dirty.dirty_count += 1
        with pytest.raises(IntegrityError):
            check_invariants(l2)


class TestWriteThroughProtectedL2:
    """Regression: a write-through ProtectedL2 must forward writes like
    the base cache instead of silently dirtying lines and claiming ECC
    entries."""

    def make_wt_l2(self):
        from repro.cache.cache import WritePolicy

        return ProtectedL2(
            l2_config(write_policy=WritePolicy.WRITE_THROUGH),
            ProtectionConfig(cleaning_interval=None, ecc_entries_per_set=1),
        )

    def test_write_hit_forwards_and_stays_clean(self):
        l2 = self.make_wt_l2()
        l2.access(0x40, is_write=False, cycle=1)  # fill
        res = l2.access(0x40, is_write=True, cycle=2)
        assert res.wrote_through
        line = l2.find_line(0x40)
        assert not line.dirty
        assert not line.written
        assert l2.stats.write_throughs == 1

    def test_no_ecc_entry_claimed(self):
        l2 = self.make_wt_l2()
        for i in range(8):
            addr = 0x40 * i
            l2.access(addr, is_write=False, cycle=i)
            l2.access(addr, is_write=True, cycle=100 + i)
        assert l2.ecc_array.used_entries() == 0
        assert l2.ecc_array.stats.allocations == 0
        assert l2.dirty.dirty_count == 0
        check_invariants(l2)

    def test_write_back_policy_unaffected(self):
        l2 = make_l2(ecc=1)
        l2.access(0x40, is_write=True, cycle=1)
        assert l2.find_line(0x40).dirty
        assert l2.ecc_array.used_entries() == 1
