"""Tests for the experiment runner."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.hierarchy import MemoryHierarchy
from repro.core import IntegrityError, ProtectedL2, ProtectionConfig
from repro.experiments import (
    PAPER_GEOMETRY,
    SCALED_GEOMETRY,
    RunConfig,
    build_l2,
    run_ipc,
    run_refs,
)
from repro.experiments.runner import Geometry, interval_label, run_ref_stream
from repro.workloads import MemRef

FAST = RunConfig(n_refs=12_000, warmup_refs=4_000)


class TestGeometry:
    def test_paper_geometry_is_table1(self):
        hc = PAPER_GEOMETRY.hierarchy_config()
        assert hc.l2.size_bytes == 1024 * 1024
        assert hc.l2.ways == 4
        assert hc.l2.line_bytes == 64
        assert hc.l1d.size_bytes == 32 * 1024

    def test_scaled_geometry_preserves_shape(self):
        hc = SCALED_GEOMETRY.hierarchy_config()
        assert hc.l2.ways == 4
        assert hc.l2.line_bytes == 64
        # L1:L2 capacity ratio preserved (32KB : 1MB = 1 : 32).
        assert hc.l2.size_bytes // hc.l1d.size_bytes == 32

    def test_study_knobs_reach_the_machine(self):
        g = replace(
            SCALED_GEOMETRY, write_buffer_entries=4, l2_replacement="fifo",
            bus_width_bytes=16, l2_scale=0.5,
        )
        hc = g.hierarchy_config()
        assert hc.write_buffer_entries == 4
        assert hc.l2.replacement == "fifo"
        assert hc.memory.bus_width_bytes == 16
        assert hc.l2.size_bytes == SCALED_GEOMETRY.l2_bytes // 2
        # Only the L2 and below change: stage A's tape is shared.
        assert hc.l1d == SCALED_GEOMETRY.hierarchy_config().l1d

    def test_interval_scaling(self):
        g = Geometry("g", 1024, 65536, interval_scale=0.25)
        assert g.scaled_interval(1 << 20) == 1 << 18

    def test_interval_grid_labels(self):
        labels = [label for label, _ in SCALED_GEOMETRY.interval_grid()]
        assert labels == ["64K", "256K", "1M", "4M"]

    def test_interval_label_rendering(self):
        assert interval_label(65536) == "64K"
        assert interval_label(1 << 20) == "1M"
        assert interval_label(1000) == "1000"


# Scales span collapsing (1e-9 maps every nominal interval to 1 before
# the grid nudge) through identity to expanding; the property must hold
# across all of them, not just the two shipped geometries.
_scales = st.one_of(
    st.sampled_from([1.0, 1.0 / 32.0, 1.0 / 1024.0, 3.0]),
    st.floats(min_value=1e-9, max_value=64.0,
              allow_nan=False, allow_infinity=False),
)

_grids = st.one_of(
    st.just(Geometry("d", 1024, 65536, 1.0).paper_intervals),
    st.lists(st.integers(min_value=1, max_value=1 << 26),
             min_size=1, max_size=6, unique=True).map(
                 lambda xs: tuple(sorted(xs))),
)


class TestIntervalRoundTrip:
    """Property: label(scale(p)) == label(p) over the whole grid."""

    @given(scale=_scales, grid=_grids)
    @settings(max_examples=200, deadline=None)
    def test_label_round_trips_through_scaling(self, scale, grid):
        g = Geometry("prop", 1024, 65536, interval_scale=scale,
                     paper_intervals=grid)
        for p in g.paper_intervals:
            scaled = g.scaled_interval(p)
            assert g.nominal_interval(scaled) == p
            assert g.interval_label_for(scaled) == interval_label(p)

    @given(scale=_scales, grid=_grids)
    @settings(max_examples=200, deadline=None)
    def test_scaled_grid_stays_injective(self, scale, grid):
        """Distinct nominal points never share a scaled value."""
        g = Geometry("prop", 1024, 65536, interval_scale=scale,
                     paper_intervals=grid)
        scaled = [cycles for _, cycles in g.interval_grid()]
        assert len(set(scaled)) == len(scaled)
        assert scaled == sorted(scaled)
        assert all(s >= 1 for s in scaled)

    def test_collapsing_scale_example(self):
        """The documented failure mode: tiny scales collapse the grid."""
        g = Geometry("tiny", 1024, 65536, interval_scale=1e-9)
        labels = [g.interval_label_for(s) for _, s in g.interval_grid()]
        assert labels == ["64K", "256K", "1M", "4M"]


class TestRunConfigValidation:
    def test_negative_n_refs_rejected(self):
        with pytest.raises(ValueError, match="^n_refs must be >= 0$"):
            RunConfig(n_refs=-1)

    def test_negative_warmup_refs_rejected(self):
        with pytest.raises(ValueError, match="^warmup_refs must be >= 0$"):
            RunConfig(warmup_refs=-3)

    def test_zero_counts_allowed(self):
        out = run_refs("mesa", None, RunConfig(n_refs=0, warmup_refs=0))
        assert out.refs == 0


class TestBuildL2:
    def test_none_protection_builds_plain_cache(self):
        l2 = build_l2(SCALED_GEOMETRY, None)
        assert type(l2) is SetAssociativeCache

    def test_protection_builds_protected_l2(self):
        l2 = build_l2(
            SCALED_GEOMETRY,
            ProtectionConfig(cleaning_interval=1 << 20, ecc_entries_per_set=1),
        )
        assert isinstance(l2, ProtectedL2)
        assert l2.cleaning is not None
        assert l2.ecc_array is not None

    def test_interval_is_scaled(self):
        l2 = build_l2(
            SCALED_GEOMETRY,
            ProtectionConfig(cleaning_interval=1 << 20, ecc_entries_per_set=None),
        )
        assert l2.cleaning.interval_cycles == (1 << 20) // 32

    def test_cleaning_disabled_when_none(self):
        l2 = build_l2(
            SCALED_GEOMETRY,
            ProtectionConfig(cleaning_interval=None, ecc_entries_per_set=1),
        )
        assert l2.cleaning is None


class TestRunRefs:
    def test_baseline_run_produces_sane_metrics(self):
        out = run_refs("swim", None, FAST)
        assert out.refs == FAST.n_refs
        assert 0.0 <= out.dirty_fraction <= 1.0
        assert out.dirty_fraction <= out.peak_dirty_fraction
        assert 0.0 <= out.writeback_fraction
        assert out.cycles > FAST.n_refs  # gaps advance the clock further

    def test_split_sums_to_total(self):
        protection = ProtectionConfig(
            cleaning_interval=1 << 20, ecc_entries_per_set=1
        )
        out = run_refs("mesa", protection, FAST)
        assert sum(out.writeback_split.values()) == pytest.approx(
            out.writeback_fraction, abs=1e-9
        )

    def test_baseline_has_no_cleaning_or_ecc_traffic(self):
        out = run_refs("mesa", None, FAST)
        assert out.writeback_split["Clean-WB"] == 0.0
        assert out.writeback_split["ECC-WB"] == 0.0

    def test_deterministic(self):
        a = run_refs("parser", None, FAST)
        b = run_refs("parser", None, FAST)
        assert a.dirty_fraction == b.dirty_fraction
        assert a.writeback_fraction == b.writeback_fraction

    def test_seed_changes_results(self):
        a = run_refs("mcf", None, FAST)
        b = run_refs("mcf", None, RunConfig(n_refs=12_000, warmup_refs=4_000,
                                            seed=99))
        assert a.dirty_fraction != b.dirty_fraction

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            run_refs("gcc", None, FAST)

    def test_corrupted_protected_l3_is_caught(self):
        """Invariants are checked at every unified level, not only the L2."""
        base = SCALED_GEOMETRY.hierarchy_config()
        l3_cfg = CacheConfig("l3", 4 * base.l2.size_bytes, 8, 64,
                             hit_latency=25)
        l3 = ProtectedL2(
            l3_cfg,
            ProtectionConfig(cleaning_interval=None, ecc_entries_per_set=1),
        )
        hierarchy = MemoryHierarchy(config=replace(base, l3=l3_cfg), l3=l3)
        # An ECC entry owned by a clean line, in a set the stream below
        # (block 0 only, which lives in set 0) never touches.
        l3.ecc_array.allocate(1, 0)
        refs = [MemRef(i % 2 == 1, 0, 1) for i in range(8)]
        with pytest.raises(IntegrityError, match="set 1"):
            run_ref_stream(refs, hierarchy, RunConfig(n_refs=4, warmup_refs=4))


class TestSchemeEffects:
    """The paper's qualitative claims, on a fast configuration."""

    def test_cleaning_reduces_dirty_fraction(self):
        base = run_refs("mesa", None, FAST)
        cleaned = run_refs(
            "mesa",
            ProtectionConfig(cleaning_interval=1 << 18,
                             ecc_entries_per_set=None),
            FAST,
        )
        assert cleaned.dirty_fraction < base.dirty_fraction

    def test_smaller_interval_cleans_more(self):
        small = run_refs(
            "mesa",
            ProtectionConfig(cleaning_interval=1 << 16,
                             ecc_entries_per_set=None),
            FAST,
        )
        large = run_refs(
            "mesa",
            ProtectionConfig(cleaning_interval=1 << 22,
                             ecc_entries_per_set=None),
            FAST,
        )
        assert small.dirty_fraction < large.dirty_fraction

    def test_ecc_array_caps_dirty_fraction(self):
        """1 entry per set in a 4-way cache bounds dirty lines at 25%."""
        out = run_refs(
            "apsi",
            ProtectionConfig(cleaning_interval=1 << 20,
                             ecc_entries_per_set=1),
            FAST,
        )
        assert out.peak_dirty_fraction <= 0.25 + 1e-9


class TestRunIpc:
    def test_ipc_in_sane_range(self):
        out = run_ipc("mesa", None, FAST, n_insts=20_000)
        assert 0.01 < out.ipc < 4.0

    def test_result_counts(self):
        out = run_ipc("mesa", None, FAST, n_insts=20_000)
        assert out.result.instructions == 20_000
        assert out.result.loads > 0
        assert out.result.stores > 0
        assert out.result.branches > 0

    def test_protected_l2_slightly_slower(self):
        org = run_ipc("mesa", None, FAST, n_insts=30_000)
        ours = run_ipc(
            "mesa",
            ProtectionConfig(cleaning_interval=1 << 20,
                             ecc_entries_per_set=1),
            FAST,
            n_insts=30_000,
        )
        # Extra write-backs cannot make the machine faster; allow noise.
        assert ours.ipc <= org.ipc * 1.02
