"""Tests for the ablation studies."""

from repro.experiments import (
    RunConfig,
    ablate_best_interval,
    ablate_eager_writeback,
    ablate_ecc_entries,
    ablate_written_bit,
)

FAST = RunConfig(n_refs=10_000, warmup_refs=3_000)
SUBSET = ["mesa", "swim"]


class TestEccEntries:
    def test_area_grows_with_entries(self):
        pts = ablate_ecc_entries(SUBSET, entries_grid=(1, 2), config=FAST)
        assert pts[0].area_kib < pts[1].area_kib
        assert pts[0].area_kib == 54.0  # the paper's configuration

    def test_more_entries_less_ecc_wb(self):
        pts = ablate_ecc_entries(
            ["parser"], entries_grid=(1, 4), config=FAST
        )
        assert pts[1].ecc_wb_pct <= pts[0].ecc_wb_pct

    def test_points_carry_all_metrics(self):
        (pt,) = ablate_ecc_entries(["mesa"], entries_grid=(1,), config=FAST)
        assert pt.entries_per_set == 1
        assert 0 <= pt.dirty_pct <= 100
        assert pt.total_wb_pct >= pt.ecc_wb_pct


class TestBestInterval:
    def test_rows_have_expected_keys(self):
        res = ablate_best_interval(FAST, benchmarks=SUBSET)
        for row in res.values():
            assert set(row) == {"interval", "dirty %", "wb %", "org dirty %"}

    def test_chosen_config_never_dirtier_than_org(self):
        res = ablate_best_interval(FAST, benchmarks=SUBSET)
        for name, row in res.items():
            assert row["dirty %"] <= row["org dirty %"] + 1e-9, name

    def test_generous_budget_allows_aggressive_cleaning(self):
        tight = ablate_best_interval(
            FAST, traffic_budget_pct=0.0, benchmarks=["mesa"]
        )
        loose = ablate_best_interval(
            FAST, traffic_budget_pct=50.0, benchmarks=["mesa"]
        )
        assert loose["mesa"]["dirty %"] <= tight["mesa"]["dirty %"] + 1e-9


class TestEagerWriteback:
    def test_both_reduce_dirty_lines(self):
        res = ablate_eager_writeback(FAST, benchmarks=["mesa"])
        row = res["mesa"]
        assert row["clean dirty %"] < 60.0
        assert row["eager dirty %"] < 60.0

    def test_keys(self):
        res = ablate_eager_writeback(FAST, benchmarks=["swim"])
        assert set(res["swim"]) == {
            "eager dirty %", "eager wb %", "clean dirty %", "clean wb %",
        }


class TestWrittenBit:
    def test_without_bit_cleans_at_least_as_hard(self):
        """Dropping the second chance can only clean more, not less."""
        res = ablate_written_bit(
            RunConfig(n_refs=30_000, warmup_refs=10_000),
            benchmarks=["parser"],
        )
        row = res["parser"]
        assert row["without dirty %"] <= row["with dirty %"] + 0.5

    def test_keys(self):
        res = ablate_written_bit(FAST, benchmarks=["swim"])
        assert set(res["swim"]) == {
            "with dirty %", "with wb %", "without dirty %", "without wb %",
        }
