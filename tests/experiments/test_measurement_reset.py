"""Regression tests: warm-up traffic must not pollute measured stats."""

from repro.cache.hierarchy import MemoryHierarchy
from repro.core import ProtectionConfig
from repro.experiments import RunConfig, SCALED_GEOMETRY, run_refs
from repro.experiments.runner import _reset_measurement, build_l2


def make_hierarchy(protection=ProtectionConfig(cleaning_interval=4096,
                                               ecc_entries_per_set=1)):
    l2 = build_l2(SCALED_GEOMETRY, protection)
    return MemoryHierarchy(config=SCALED_GEOMETRY.hierarchy_config(), l2=l2)


def warm(hierarchy, n=3000, until_cycle=50_000):
    """Drive mixed warm-up traffic that touches every stats holder."""
    cycle = 0
    for i in range(n):
        cycle += max(1, until_cycle // n)
        addr = (i * 1664525 + 1013904223) % (1 << 22) & ~7
        if i % 3 == 0:
            hierarchy.store(addr, cycle)
        else:
            hierarchy.load(addr, cycle)
    return cycle


class TestResetMeasurement:
    def test_write_buffer_stats_reset(self):
        hierarchy = make_hierarchy()
        cycle = warm(hierarchy)
        assert hierarchy.write_buffer.stats.stores_seen > 0
        _reset_measurement(hierarchy, cycle)
        wb = hierarchy.write_buffer.stats
        assert wb.inserts == 0
        assert wb.coalesced == 0
        assert wb.drains == 0

    def test_mshr_stats_reset(self):
        hierarchy = make_hierarchy()
        cycle = warm(hierarchy)
        assert hierarchy.l1d_mshr.stats.allocations > 0
        _reset_measurement(hierarchy, cycle)
        for mshr in (hierarchy.l1d_mshr, hierarchy.l1i_mshr):
            assert mshr.stats.allocations == 0
            assert mshr.stats.merges == 0
            assert mshr.stats.overflows == 0

    def test_ecc_array_and_cleaning_stats_reset(self):
        hierarchy = make_hierarchy()
        cycle = warm(hierarchy)
        l2 = hierarchy.l2
        assert l2.ecc_array.stats.allocations > 0
        assert l2.cleaning.checks > 0
        _reset_measurement(hierarchy, cycle)
        assert l2.ecc_array.stats.allocations == 0
        assert l2.ecc_array.stats.releases == 0
        assert l2.ecc_array.stats.evictions == 0
        assert l2.cleaning.checks == 0

    def test_memory_stats_fully_reset(self):
        hierarchy = make_hierarchy()
        cycle = warm(hierarchy)
        _reset_measurement(hierarchy, cycle)
        mem = hierarchy.memory.stats
        assert mem.reads == 0
        assert mem.writes == 0
        assert mem.bytes_read == 0
        assert mem.bytes_written == 0
        assert mem.busy_cycles == 0
        assert mem.read_queue_cycles == 0

    def test_reset_keeps_cache_contents(self):
        hierarchy = make_hierarchy()
        cycle = warm(hierarchy)
        resident = sum(
            1 for ways in hierarchy.l2.sets for l in ways if l.valid
        )
        assert resident > 0
        _reset_measurement(hierarchy, cycle)
        assert resident == sum(
            1 for ways in hierarchy.l2.sets for l in ways if l.valid
        )

    def test_measured_window_write_buffer_accounting_is_exact(self):
        """Every measured store is exactly one buffer event — warm-up
        stores must not leak into the ablation's coalescing rate."""
        hierarchy = make_hierarchy(None)
        from repro.experiments.runner import run_refs_with_hierarchy

        config = RunConfig(n_refs=8_000, warmup_refs=6_000)
        run_refs_with_hierarchy("mesa", hierarchy, config)
        assert (
            hierarchy.write_buffer.stats.stores_seen
            == hierarchy.stats.stores
        )


class TestRegistryResetParity:
    """The registry boundary must behave exactly like PR 1's manual reset."""

    @staticmethod
    def _manual_reset(hierarchy, cycle):
        """PR 1's hand-rolled ``_reset_measurement`` body, verbatim."""
        from repro.cache.hierarchy import HierarchyStats
        from repro.cache.mainmem import MemoryStats
        from repro.cache.mshr import MshrStats
        from repro.cache.stats import CacheStats
        from repro.cache.write_buffer import WriteBufferStats
        from repro.core.ecc_array import EccArrayStats

        hierarchy.l1d.stats = CacheStats()
        hierarchy.l1i.stats = CacheStats()
        hierarchy.stats = HierarchyStats()
        hierarchy.memory.stats = MemoryStats()
        hierarchy.write_buffer.stats = WriteBufferStats()
        hierarchy.l1d_mshr.stats = MshrStats()
        hierarchy.l1i_mshr.stats = MshrStats()
        for cache in hierarchy.levels:
            cache.stats = CacheStats()
            ecc_array = getattr(cache, "ecc_array", None)
            if ecc_array is not None:
                ecc_array.stats = EccArrayStats()
            cleaning = getattr(cache, "cleaning", None)
            if cleaning is not None:
                cleaning.checks = 0
            for ways in cache.sets:
                for line in ways:
                    if line.valid and line.dirty and line.dirty_since < cycle:
                        line.dirty_since = cycle
            cache.dirty.reset(cycle, cache.dirty.dirty_count)

    def test_registry_reset_matches_manual_reset(self):
        """Twin hierarchies, one per reset style, stay bit-identical."""
        manual, registry = make_hierarchy(), make_hierarchy()
        cycle_m = warm(manual)
        cycle_r = warm(registry)
        assert cycle_m == cycle_r

        self._manual_reset(manual, cycle_m)
        _reset_measurement(registry, cycle_r)

        # Drive both through an identical measured window...
        warm(manual, n=2000, until_cycle=40_000)
        warm(registry, n=2000, until_cycle=40_000)

        # ...and compare every live counter, component by component.
        pairs = [
            (manual.stats, registry.stats),
            (manual.l1d.stats, registry.l1d.stats),
            (manual.l1i.stats, registry.l1i.stats),
            (manual.l2.stats, registry.l2.stats),
            (manual.memory.stats, registry.memory.stats),
            (manual.write_buffer.stats, registry.write_buffer.stats),
            (manual.l1d_mshr.stats, registry.l1d_mshr.stats),
            (manual.l1i_mshr.stats, registry.l1i_mshr.stats),
            (manual.l2.ecc_array.stats, registry.l2.ecc_array.stats),
        ]
        for a, b in pairs:
            assert a.as_dict() == b.as_dict()
        assert manual.l2.cleaning.checks == registry.l2.cleaning.checks
        assert manual.l2.dirty == registry.l2.dirty
        assert manual.l2.as_dict() == registry.l2.as_dict()

    def test_reset_is_idempotent(self):
        """A second reset at the same boundary is a no-op on the snapshot."""
        hierarchy = make_hierarchy()
        cycle = warm(hierarchy)
        _reset_measurement(hierarchy, cycle)
        first = hierarchy.snapshot()
        _reset_measurement(hierarchy, cycle)
        assert hierarchy.snapshot() == first

    def test_snapshot_after_reset_is_all_zero_counts(self):
        hierarchy = make_hierarchy()
        cycle = warm(hierarchy)
        _reset_measurement(hierarchy, cycle)
        snap = hierarchy.snapshot()
        for group in ("hierarchy", "memory", "write_buffer",
                      "l1d_mshr", "l1i_mshr"):
            for key, value in snap[group].items():
                if key == "occupancy":
                    continue  # contents survive the boundary by design
                assert value == 0, f"{group}.{key} = {value}"

    def test_snapshot_across_warmup_boundary_counts_only_measured(self):
        """Through the public run API: snapshots see the measured window."""
        from repro.experiments.runner import run_refs_with_hierarchy

        hierarchy = make_hierarchy(None)
        config = RunConfig(n_refs=4_000, warmup_refs=3_000)
        out = run_refs_with_hierarchy("mesa", hierarchy, config)
        assert out.snapshot is not None
        assert out.snapshot["hierarchy"]["loads_stores"] == 4_000
        assert out.snapshot["hierarchy"]["refs"] == out.refs


class TestDirtyEpisodeClamp:
    def test_warmup_episode_start_clamped_to_reset(self):
        hierarchy = make_hierarchy(None)
        l2 = hierarchy.l2
        l2.access(0x1000, is_write=True, cycle=100)
        line = l2.find_line(0x1000)
        assert line.dirty and line.dirty_since == 100

        _reset_measurement(hierarchy, 10_000)
        assert line.dirty_since == 10_000

        l2.flush(cycle=10_500)
        assert l2.stats.dirty_episodes == 1
        # 500 measured cycles, not the 10,400 including warm-up.
        assert l2.stats.dirty_episode_cycles == 500

    def test_mean_episode_bounded_by_measured_window(self):
        """With the clamp, no episode can be longer than the window."""
        config = RunConfig(n_refs=2_000, warmup_refs=30_000)
        out = run_refs(
            "mesa",
            ProtectionConfig(cleaning_interval=1 << 16,
                             ecc_entries_per_set=1),
            config,
        )
        assert out.mean_dirty_episode_cycles <= out.cycles
