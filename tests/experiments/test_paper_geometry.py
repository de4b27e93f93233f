"""Spot checks on the paper's exact Table-1 geometry.

The figure benches run the scaled geometry for speed; these tests make
sure the full 1MB/4-way machine works end to end and that its
geometry-derived quantities match the paper exactly.
"""

from repro.core import ProtectionConfig
from repro.experiments import PAPER_GEOMETRY, RunConfig, build_l2, run_refs


class TestGeometryNumbers:
    def test_l2_line_and_set_counts(self):
        cfg = PAPER_GEOMETRY.hierarchy_config().l2
        assert cfg.n_lines == 16384  # the paper: "a total of [16K] lines"
        assert cfg.n_sets == 4096  # "there are 4K cache sets"

    def test_written_bits_are_16k(self):
        cfg = PAPER_GEOMETRY.hierarchy_config().l2
        assert cfg.n_lines == 16 * 1024  # 16K bits = 2KB of written bits

    def test_ecc_array_entry_count(self):
        """4K ECC entries, same as the number of sets (paper §5.2)."""
        l2 = build_l2(
            PAPER_GEOMETRY,
            ProtectionConfig(cleaning_interval=1 << 20,
                             ecc_entries_per_set=1),
        )
        assert l2.ecc_array.total_entries == 4096

    def test_interval_unscaled(self):
        l2 = build_l2(
            PAPER_GEOMETRY,
            ProtectionConfig(cleaning_interval=1 << 20,
                             ecc_entries_per_set=None),
        )
        assert l2.cleaning.interval_cycles == 1 << 20
        # The latch steps every 256 cycles: 1M / 4K sets (paper's "e.g."
        # figure for the per-set check cadence).
        assert l2.cleaning.cycles_per_set_check == 256.0

    def test_interval_grid_is_64k_to_4m(self):
        labels = [label for label, cycles in PAPER_GEOMETRY.interval_grid()]
        assert labels == ["64K", "256K", "1M", "4M"]
        assert PAPER_GEOMETRY.scaled_interval(65536) == 65536


class TestEndToEndRun:
    """One short full-geometry run; mostly a does-it-work check."""

    CONFIG = RunConfig(
        geometry=PAPER_GEOMETRY, n_refs=20_000, warmup_refs=5_000
    )

    def test_baseline_run(self):
        out = run_refs("swim", None, self.CONFIG)
        assert out.refs == 20_000
        assert 0.0 <= out.dirty_fraction <= 1.0

    def test_protected_run_respects_cap(self):
        out = run_refs(
            "mesa",
            ProtectionConfig(cleaning_interval=65536,
                             ecc_entries_per_set=1),
            self.CONFIG,
        )
        assert out.peak_dirty_fraction <= 0.25 + 1e-9
