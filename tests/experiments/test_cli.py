"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_capacity, _parse_entries, _parse_interval, main


class TestParsers:
    def test_interval_suffixes(self):
        assert _parse_interval("1M") == 1 << 20
        assert _parse_interval("256k") == 256 << 10
        assert _parse_interval("4096") == 4096
        assert _parse_interval("none") is None

    def test_bad_interval(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_interval("abc")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_interval("-5")

    def test_entries(self):
        import argparse

        assert _parse_entries("2") == 2
        assert _parse_entries("none") is None
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_entries("0")

    def test_capacity(self):
        import argparse

        assert _parse_capacity("64k") == 64 << 10
        assert _parse_capacity("1000") == 1000
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_capacity("0")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "mesa" in out
        assert "0.7x L2" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "59.1%" in out
        assert "32.00" in out  # the ECC array

    def test_run_benchmark(self, capsys):
        code = main([
            "run", "--benchmark", "swim",
            "--refs", "4000", "--warmup", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg dirty %" in out
        assert "ECC-WB %" in out

    def test_run_without_protection(self, capsys):
        code = main([
            "run", "--benchmark", "swim", "--interval", "none",
            "--ecc-entries", "none", "--refs", "3000", "--warmup", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Clean-WB %" in out

    def test_inject(self, capsys):
        assert main(["inject", "--codec", "secded", "--trials", "50",
                     "--flips", "1"]) == 0
        out = capsys.readouterr().out
        assert "corrected" in out

    def test_inject_parity(self, capsys):
        assert main(["inject", "--codec", "parity", "--trials", "50",
                     "--flips", "1"]) == 0
        assert "detected" in capsys.readouterr().out

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "t.bin"
        assert main(["trace", "--benchmark", "mcf", "--out", str(out_file),
                     "-n", "500"]) == 0
        assert out_file.exists()
        assert "wrote 500 refs" in capsys.readouterr().out

        assert main(["run", "--trace", str(out_file),
                     "--refs", "400", "--warmup", "100"]) == 0
        assert "avg dirty %" in capsys.readouterr().out

    def test_ipc(self, capsys):
        code = main([
            "ipc", "--benchmark", "mesa", "--insts", "8000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC loss" in out

    def test_figures_single(self, capsys):
        code = main(["figures", "--fig", "1",
                     "--refs", "3000", "--warmup", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "average" in out

    def test_figures_area(self, capsys):
        assert main(["figures", "--fig", "area"]) == 0
        assert "59.1%" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--benchmark", "gcc"])

    def test_stats(self, capsys):
        code = main([
            "stats", "--benchmark", "mcf", "--n-seeds", "2",
            "--refs", "3000", "--warmup", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "spread over 2 seeds" in out
        assert "dirty fraction" in out

    def test_stats_json(self, capsys):
        code = main([
            "stats", "--benchmark", "mcf", "--n-seeds", "2",
            "--refs", "3000", "--warmup", "1000", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "mcf"
        assert doc["n_seeds"] == 2
        assert len(doc["metrics"]["dirty_fraction"]["values"]) == 2
        assert "mean" in doc["metrics"]["writeback_fraction"]
        # Registry snapshots ride along, mean plus per-seed.
        assert doc["mean_snapshot"]["hierarchy"]["loads_stores"] == 3000
        assert len(doc["snapshots"]) == 2
        assert "profile" in doc

    def test_run_trace_out(self, tmp_path, capsys):
        from repro.telemetry.tracing import load_jsonl, validate_event

        trace = tmp_path / "events.jsonl"
        code = main([
            "run", "--benchmark", "swim",
            "--refs", "4000", "--warmup", "1000",
            "--trace-out", str(trace), "--trace-capacity", "1k",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "events" in out
        events = load_jsonl(trace)
        assert events
        for event in events:
            validate_event(event)

    def test_run_profile(self, capsys):
        code = main([
            "run", "--benchmark", "swim",
            "--refs", "3000", "--warmup", "1000", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        # The engine path always profiles its cache probe.
        assert "cache-lookup" in out

    def test_ipc_profile_splits_record_from_replay(self, capsys):
        code = main([
            "ipc", "--benchmark", "swim", "--insts", "3000", "--no-cache",
            "--variant", "silent-write", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        phases = [
            line.split(":")[0].strip()
            for line in out[out.index("profile:"):].splitlines()[1:]
        ]
        assert phases == [
            "cache-lookup", "core-record", "core-replay-org",
            "core-replay-ours-silent-write", "execute",
        ]
        assert "core-record: " in out and "3000 events" in out

    def test_ipc_profiles_only_when_asked(self, capsys):
        assert main(["ipc", "--insts", "2000", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 cells" in out
        assert "profile:" not in out

    def test_ipc_sweep_line_counts_instructions(self, capsys):
        assert main(["ipc", "--insts", "2000", "--no-cache"]) == 0
        [line] = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("sweep:")
        ]
        # Two machines of 2000 instructions each, and no refs.
        assert ", 4000 insts at " in line and " insts/s per worker" in line
        assert "refs" not in line

    def test_ablate_decay(self, capsys):
        code = main([
            "ablate", "decay", "--benchmarks", "swim",
            "--refs", "3000", "--warmup", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "decay dirty %" in out

    def test_ablate_ecc_entries(self, capsys):
        code = main([
            "ablate", "ecc-entries", "--benchmarks", "swim",
            "--refs", "3000", "--warmup", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries/set" in out
        assert "54.00" in out

    def test_ablate_best_interval_renders(self, capsys):
        """The default study has a label column (the chosen interval)."""
        assert main([
            "ablate", "best-interval", "--benchmarks", "swim", "mesa",
            "--refs", "600", "--warmup", "200", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "interval" in out and "average" in out

    def test_ablate_unknown_study_rejected(self):
        with pytest.raises(SystemExit):
            main(["ablate", "voltage"])


class TestVariantFlag:
    def test_run_silent_write_shows_traffic_rows(self, capsys):
        code = main([
            "run", "--benchmark", "swim", "--variant", "silent-write",
            "--refs", "4000", "--warmup", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "variant" in out and "silent-write" in out
        assert "silent writes" in out
        assert "elided ECC updates" in out

    def test_run_wb_compress_shows_byte_rows(self, capsys):
        code = main([
            "run", "--benchmark", "swim", "--variant", "wb-compress",
            "--refs", "4000", "--warmup", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "write-back bytes raw" in out
        assert "write-back bytes sent" in out

    def test_ipc_variant_energy_row(self, capsys):
        code = main([
            "ipc", "--benchmark", "mesa", "--variant", "silent-write",
            "--insts", "8000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy (uJ)" in out
        assert "ours = silent-write" in out

    def test_unknown_variant_enumerates_and_exits_2(self, capsys):
        rc = main(["run", "--benchmark", "swim", "--variant", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "available variants:" in err
        assert "silent-write" in err and "standard" in err

    def test_standard_variant_counters_stay_zero(self, capsys):
        code = main([
            "run", "--benchmark", "swim", "--refs", "4000",
            "--warmup", "1000", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["silent_writes"] == 0
        assert doc["wb_bytes_raw"] == 0


class TestFormatRenderer:
    """run/ipc/area/inject/stats/workers share table|json|csv."""

    def csv_rows(self, capsys):
        import csv as csv_mod
        import io

        return list(csv_mod.reader(io.StringIO(capsys.readouterr().out)))

    def test_run_csv(self, capsys):
        code = main([
            "run", "--benchmark", "swim", "--refs", "4000",
            "--warmup", "1000", "--format", "csv",
        ])
        assert code == 0
        rows = self.csv_rows(capsys)
        assert rows[0] == ["metric", "value"]
        assert ["benchmark", "swim"] in rows

    def test_area_csv(self, capsys):
        assert main(["area", "--format", "csv"]) == 0
        rows = self.csv_rows(capsys)
        assert rows[0][0] == "component"
        assert any(r[0].endswith("total") for r in rows)

    def test_inject_csv(self, capsys):
        assert main([
            "inject", "--codec", "secded", "--trials", "50",
            "--flips", "1", "--format", "csv",
        ]) == 0
        rows = self.csv_rows(capsys)
        assert rows[0] == ["outcome", "count", "rate"]
        assert any(r[0] == "corrected" for r in rows)

    def test_stats_csv(self, capsys):
        code = main([
            "stats", "--benchmark", "mcf", "--n-seeds", "2",
            "--refs", "3000", "--warmup", "1000", "--format", "csv",
        ])
        assert code == 0
        rows = self.csv_rows(capsys)
        assert rows[0][0] == "metric"
        assert any("dirty" in r[0] for r in rows[1:])
