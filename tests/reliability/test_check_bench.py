"""The bench regression gate fails with messages, never tracebacks.

``scripts/check_bench.py`` guards CI against kernel-throughput
regressions; these tests pin its failure modes — a schema-bumped or
hand-edited artifact must produce ``FAIL:`` lines (all of them, with
the ``make bench-baseline`` hint) and exit code 1, not a ``KeyError``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_bench.py"
_spec = importlib.util.spec_from_file_location("check_bench", _SCRIPT)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _doc(**overrides):
    """A minimal valid current-schema artifact."""
    doc = {
        "schema": check_bench.SCHEMA,
        "kernels": {
            "reference": {"trials_per_s": 10_000.0},
            "batch": {
                "trials_per_s": 250_000.0,
                "speedup_vs_reference": 25.0,
            },
        },
        "autotune": {
            "points": 3,
            "cells_per_s_cold": 8.0,
            "cells_per_s_warm": 800.0,
            "warm_speedup": 100.0,
        },
        "runner": {
            "refs": 40_000,
            "standard_refs_per_s": 500_000.0,
            "silent_write_refs_per_s": 490_000.0,
            "overhead_pct": 2.0,
        },
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(tmp_path, capsys, current, baseline, *extra):
    rc = check_bench.main(
        [
            "--current",
            _write(tmp_path, "current.json", current),
            "--baseline",
            _write(tmp_path, "baseline.json", baseline),
            *extra,
        ]
    )
    return rc, capsys.readouterr().out


class TestValidation:
    def test_passing_pair(self, tmp_path, capsys):
        rc, out = _run(tmp_path, capsys, _doc(), _doc())
        assert rc == 0
        assert "PASS:" in out

    def test_schema_mismatch_fails_with_hint(self, tmp_path, capsys):
        rc, out = _run(tmp_path, capsys, _doc(), _doc(schema=1))
        assert rc == 1
        assert "FAIL: baseline: schema 1" in out
        assert "make bench-baseline" in out
        assert "Traceback" not in out

    def test_schema_v1_shape_fails_before_any_deref(self, tmp_path, capsys):
        # A real pre-v2 artifact: no kernels section at all.  Every
        # structural problem is reported, not just the first.
        old = {
            "schema": 1,
            "batch_trials_per_s": 250_000.0,
            "speedup": 25.0,
        }
        rc, out = _run(tmp_path, capsys, old, _doc())
        assert rc == 1
        assert "FAIL: current: schema 1" in out
        assert "FAIL: current: missing per-backend 'kernels' section" in out
        assert "Traceback" not in out and "KeyError" not in out

    def test_missing_required_key_fails(self, tmp_path, capsys):
        broken = _doc()
        del broken["kernels"]["batch"]["speedup_vs_reference"]
        rc, out = _run(tmp_path, capsys, broken, _doc())
        assert rc == 1
        assert "FAIL: current: kernels['batch']['speedup_vs_reference']" in out
        assert "make bench-baseline" in out

    def test_non_numeric_value_fails(self, tmp_path, capsys):
        broken = _doc()
        broken["kernels"]["reference"]["trials_per_s"] = "fast"
        rc, out = _run(tmp_path, capsys, broken, _doc())
        assert rc == 1
        assert "FAIL: current: kernels['reference']['trials_per_s']" in out

    def test_all_violations_reported_together(self, tmp_path, capsys):
        rc, out = _run(
            tmp_path, capsys, {"schema": 99}, {"not": "an artifact"}
        )
        assert rc == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
        assert len(fails) >= 3  # current schema+kernels, baseline schema+kernels
        assert any("current" in line for line in fails)
        assert any("baseline" in line for line in fails)

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            check_bench.main(
                [
                    "--current",
                    str(tmp_path / "nope.json"),
                    "--baseline",
                    _write(tmp_path, "baseline.json", _doc()),
                ]
            )
        assert "FAIL:" in str(excinfo.value)

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            check_bench.main(
                [
                    "--current",
                    str(bad),
                    "--baseline",
                    _write(tmp_path, "baseline.json", _doc()),
                ]
            )
        assert "FAIL:" in str(excinfo.value)


class TestGates:
    def test_throughput_regression_fails(self, tmp_path, capsys):
        slow = _doc()
        slow["kernels"]["batch"]["trials_per_s"] = 100_000.0  # -60%
        rc, out = _run(tmp_path, capsys, slow, _doc())
        assert rc == 1
        assert "FAIL: batch throughput" in out

    def test_speedup_floors(self, tmp_path, capsys):
        weak = _doc()
        weak["kernels"]["batch"]["speedup_vs_reference"] = 8.0
        rc, out = _run(tmp_path, capsys, weak, weak)
        assert rc == 1
        assert "batch/reference speedup 8.0x" in out

    def test_tolerance_flag_loosens_the_floor(self, tmp_path, capsys):
        slow = _doc()
        slow["kernels"]["batch"]["trials_per_s"] = 100_000.0
        rc, _ = _run(tmp_path, capsys, slow, _doc(), "--tolerance", "0.9")
        assert rc == 0


class TestAutotuneFloors:
    def test_missing_autotune_section_fails_validation(
        self, tmp_path, capsys
    ):
        broken = _doc()
        del broken["autotune"]
        rc, out = _run(tmp_path, capsys, broken, _doc())
        assert rc == 1
        assert "FAIL: current: missing 'autotune' section" in out
        assert "make bench-baseline" in out

    def test_malformed_autotune_fails_before_deref(self, tmp_path, capsys):
        broken = _doc(autotune={"cells_per_s_cold": "quick"})
        rc, out = _run(tmp_path, capsys, broken, _doc())
        assert rc == 1
        assert "autotune['cells_per_s_cold']" in out
        assert "autotune['warm_speedup']" in out
        assert "Traceback" not in out

    def test_cold_pass_regression_fails(self, tmp_path, capsys):
        slow = _doc()
        slow["autotune"]["cells_per_s_cold"] = 2.0  # -75% vs baseline 8
        rc, out = _run(tmp_path, capsys, slow, _doc())
        assert rc == 1
        assert "FAIL: autotune cold-pass throughput" in out

    def test_warm_speedup_floor(self, tmp_path, capsys):
        # The ratio is gated within the current run: a dead point cache
        # shows up as ~1x even when absolute rates look healthy.
        broken = _doc()
        broken["autotune"]["warm_speedup"] = 1.1
        rc, out = _run(tmp_path, capsys, broken, _doc())
        assert rc == 1
        assert "autotune warm-cache speedup 1.1x" in out

    def test_speedup_flag_overrides_the_floor(self, tmp_path, capsys):
        modest = _doc()
        modest["autotune"]["warm_speedup"] = 3.0
        rc, _ = _run(tmp_path, capsys, modest, _doc(),
                     "--min-autotune-speedup", "2.0")
        assert rc == 0

    def test_summary_quotes_autotune(self, tmp_path, capsys):
        rc, out = _run(tmp_path, capsys, _doc(), _doc())
        assert rc == 0
        assert "autotune 8.0 cells/s cold (100x warm)" in out


def _scenarios(rate):
    return {
        "nominal": {"batch_trials_per_s": rate},
        "burst-heavy": {"batch_trials_per_s": rate / 2},
    }


class TestScenarioFloors:
    def test_scenario_regression_fails(self, tmp_path, capsys):
        rc, out = _run(
            tmp_path,
            capsys,
            _doc(scenarios=_scenarios(50_000.0)),
            _doc(scenarios=_scenarios(200_000.0)),
        )
        assert rc == 1
        assert "scenario 'burst-heavy'" in out
        assert "scenario 'nominal'" in out

    def test_within_tolerance_passes(self, tmp_path, capsys):
        rc, out = _run(
            tmp_path,
            capsys,
            _doc(scenarios=_scenarios(190_000.0)),
            _doc(scenarios=_scenarios(200_000.0)),
        )
        assert rc == 0
        assert "PASS:" in out

    def test_baseline_without_scenarios_skips_gracefully(
        self, tmp_path, capsys
    ):
        # A pre-v3 baseline shape (minus the schema bump) must not
        # fail the gate just because it lacks scenario rows.
        rc, out = _run(
            tmp_path, capsys, _doc(scenarios=_scenarios(50_000.0)), _doc()
        )
        assert rc == 0
        assert "scenario floors skipped" in out

    def test_malformed_scenarios_fail_before_deref(self, tmp_path, capsys):
        rc, out = _run(
            tmp_path,
            capsys,
            _doc(scenarios={"nominal": {}}),
            _doc(scenarios=_scenarios(1.0)),
        )
        assert rc == 1
        assert "scenarios['nominal']" in out
        assert "bench-baseline" in out


def _runner(rate, overhead=2.0):
    return {
        "refs": 40_000,
        "standard_refs_per_s": rate,
        "silent_write_refs_per_s": rate * (1 - overhead / 100),
        "overhead_pct": overhead,
    }


class TestRunnerFloors:
    def test_missing_runner_section_fails_validation(
        self, tmp_path, capsys
    ):
        doc = _doc()
        del doc["runner"]
        rc, out = _run(tmp_path, capsys, doc, _doc())
        assert rc == 1
        assert "FAIL: current: missing 'runner' section" in out
        assert "bench-baseline" in out

    def test_malformed_runner_fails_before_deref(self, tmp_path, capsys):
        rc, out = _run(tmp_path, capsys, _doc(runner={}), _doc())
        assert rc == 1
        assert "runner['standard_refs_per_s']" in out
        assert "runner['overhead_pct']" in out

    def test_nominal_path_regression_fails(self, tmp_path, capsys):
        rc, out = _run(
            tmp_path,
            capsys,
            _doc(runner=_runner(100_000.0)),
            _doc(runner=_runner(500_000.0)),
        )
        assert rc == 1
        assert "runner standard-path throughput" in out

    def test_detection_overhead_ceiling(self, tmp_path, capsys):
        rc, out = _run(
            tmp_path,
            capsys,
            _doc(runner=_runner(500_000.0, overhead=9.0)),
            _doc(),
        )
        assert rc == 1
        assert "silent-write detection overhead 9.0% exceeds" in out

    def test_overhead_flag_overrides_the_ceiling(self, tmp_path, capsys):
        rc, out = _run(
            tmp_path,
            capsys,
            _doc(runner=_runner(500_000.0, overhead=9.0)),
            _doc(),
            "--max-runner-overhead", "15",
        )
        assert rc == 0
        assert "PASS:" in out

    def test_summary_quotes_runner(self, tmp_path, capsys):
        rc, out = _run(tmp_path, capsys, _doc(), _doc())
        assert rc == 0
        assert "runner 500,000 refs/s (2.0% detection overhead)" in out
