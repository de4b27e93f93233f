"""Tests for the figure drivers (fast configurations)."""

import os

import pytest

from repro import api
from repro.experiments import (
    RunConfig,
    area_table,
    figure1,
    figure3_4,
    figure5_6,
    figure7,
    figure8,
    full_scheme,
    interval_sweep,
    reference_grid,
    runner,
    table1,
)
from repro.experiments.pool import SweepEngine

FAST = RunConfig(n_refs=10_000, warmup_refs=3_000)
SMALL = RunConfig(n_refs=1_500, warmup_refs=500)


class TestTable1:
    def test_renders_configuration(self):
        text = table1()
        assert "64-entry RUU" in text
        assert "4 instructions per cycle" in text


class TestFigure1:
    def test_all_benchmarks_present(self):
        f1 = figure1(FAST)
        assert len(f1) == 14
        assert all(0.0 <= v <= 100.0 for v in f1.values())


class TestFigure3_4:
    def test_rows_and_columns(self):
        f3 = figure3_4("fp", FAST)
        assert len(f3) == 7
        for row in f3.values():
            assert set(row) == {"64K", "256K", "1M", "4M", "org"}

    def test_monotone_in_interval_on_average(self):
        """Smaller cleaning intervals leave fewer dirty lines (averaged)."""
        f4 = figure3_4("int", FAST)
        cols = ["64K", "256K", "1M", "4M", "org"]
        avgs = [
            sum(row[c] for row in f4.values()) / len(f4) for c in cols
        ]
        assert all(a <= b + 1e-9 for a, b in zip(avgs, avgs[1:]))

    def test_bad_suite_rejected(self):
        with pytest.raises(ValueError):
            figure3_4("mixed", FAST)


class TestFigure5_6:
    def test_shape(self):
        f5 = figure5_6("fp", FAST)
        assert len(f5) == 7
        for row in f5.values():
            assert set(row) == {"64K", "256K", "1M", "4M", "org"}
            assert all(v >= 0 for v in row.values())

    def test_cleaning_never_reduces_traffic_much(self):
        """Write-back traffic with cleaning >= org - noise, per benchmark."""
        f6 = figure5_6("int", FAST)
        for name, row in f6.items():
            assert row["64K"] >= row["org"] - 0.5, name


class TestFigure7_8:
    def test_fig7_under_structural_cap(self):
        """1 ECC entry per set of 4 ways -> dirty fraction <= 25%."""
        f7 = figure7(FAST)
        assert len(f7) == 14
        for name, pct in f7.items():
            assert pct <= 25.0 + 1e-6, name

    def test_fig8_split_categories(self):
        f8 = figure8(FAST)
        assert len(f8) == 14
        for row in f8.values():
            assert set(row) == {"WB", "Clean-WB", "ECC-WB", "total"}
            assert row["total"] == pytest.approx(
                row["WB"] + row["Clean-WB"] + row["ECC-WB"], abs=1e-9
            )


class TestOneTapePerBenchmark:
    """A figure regeneration records each benchmark's L1 tape once, at
    any worker count up to the number of benchmarks: its sweep and
    full-scheme cells run back to back in one process."""

    @pytest.fixture
    def counts(self, monkeypatch, tmp_path):
        """Stage A recorders built (one line per construction in a log
        every worker process appends to) and reference streams made (in
        this process); the runner's tape memo starts empty."""
        log = tmp_path / "recorders.log"
        counts = {"streams": 0}
        recorder, make_stream = runner.L1Recorder, runner.make_ref_stream

        def counted_recorder(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return recorder(*args)

        def counted_stream(*args, **kwargs):
            counts["streams"] += 1
            return make_stream(*args, **kwargs)

        def tapes():
            recorded = log.read_text().split() if log.exists() else []
            log.unlink(missing_ok=True)
            return len(recorded)

        monkeypatch.setattr(runner, "L1Recorder", counted_recorder)
        monkeypatch.setattr(runner, "make_ref_stream", counted_stream)
        monkeypatch.setattr(runner, "_LAST_TAPE", None)
        counts["tapes"] = tapes
        return counts

    def test_api_figures_records_one_tape_per_benchmark(self, counts):
        for fig, benchmarks in (("all", 14), ("7", 14), ("4", 7)):
            api.figures(api.FiguresRequest(fig=fig, refs=1_500, warmup=500))
            assert counts["tapes"]() == benchmarks, fig

    def test_two_workers_record_one_tape_per_benchmark(self, counts):
        request = api.FiguresRequest(fig="all", refs=1_500, warmup=500)
        api.figures(request, engine=SweepEngine(jobs=2))
        assert counts["tapes"]() == 14

    def test_grid_equals_its_parts(self):
        sweeps, full = reference_grid(SMALL)
        assert sweeps == {
            "fp": interval_sweep("fp", SMALL),
            "int": interval_sweep("int", SMALL),
        }
        assert full == full_scheme(SMALL)
        assert reference_grid(SMALL, suites=("int",), full=False) == (
            {"int": sweeps["int"]}, None
        )


class TestAreaTable:
    def test_paper_numbers(self):
        conv, ours, red = area_table()
        assert conv.total_kib == 132.0
        assert ours.total_kib == 54.0
        assert red == pytest.approx(0.59, abs=0.005)

    def test_bigger_ecc_array_reduces_savings(self):
        _, _, red1 = area_table(ecc_entries_per_set=1)
        _, _, red2 = area_table(ecc_entries_per_set=2)
        assert red2 < red1
