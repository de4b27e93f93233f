"""Performance-regression gate over the kernel-throughput artifact.

Compares the JSON written by ``benchmarks/bench_reliability_throughput.py``
against the committed baseline (``BENCH_reliability.json`` at the repo
root) and exits non-zero when any floor is violated:

* **absolute throughput** — each backend's current trials/s must stay
  within ``--tolerance`` (default 30%) of the baseline's, so a kernel
  regression cannot land silently even if it stays "fast enough";
* **speedup ratios** — batch must remain at least ``--min-speedup``
  (default 10×) faster than the reference path, *measured in the same
  run* — a machine-independent bound that holds on slow CI runners
  where absolute numbers drift;
* **scenario rows** — each correlated-fault preset's batch throughput
  is gated with the same tolerance, for every scenario both artifacts
  measured.  A baseline predating the ``scenarios`` section skips
  those floors gracefully rather than failing;
* **autotune explorer** (schema v4) — the Pareto explorer's cold-pass
  cells/s is held to the same tolerance floor against the baseline,
  and its warm-cache re-run must stay at least
  ``--min-autotune-speedup`` (default 5×) faster than the cold pass,
  measured in the same run — a point-cache bug degrades that ratio to
  ~1× long before any absolute rate drifts;
* **runner throughput** (schema v5) — the reference-stream runner's
  standard-variant refs/s is floored against the baseline (the nominal
  path must not pay for the traffic-aware machinery), and the
  silent-write variant's in-run detection overhead must stay under
  ``--max-runner-overhead`` (default 5%).

Both files are **validated before anything is dereferenced**: a schema
bump or a missing key produces ``FAIL:`` lines (all violations, not
just the first) plus the ``make bench-baseline`` hint and exit code 1 —
never a KeyError traceback.

Usage (what ``make bench-perf`` runs):

    python scripts/check_bench.py \
        --current benchmarks/results/BENCH_reliability.json \
        --baseline BENCH_reliability.json

Refreshing the baseline after an intentional change: ``make
bench-baseline``, then commit the updated root JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The artifact schema this gate understands (see the benchmark module).
SCHEMA = 5

#: Keys every artifact must carry before any gate math runs.
REQUIRED_KERNEL_KEYS = {
    "reference": ("trials_per_s",),
    "batch": ("trials_per_s", "speedup_vs_reference"),
}

#: Keys the (v4-mandatory) ``autotune`` section must carry.
AUTOTUNE_KEYS = ("cells_per_s_cold", "cells_per_s_warm", "warm_speedup")

#: Keys the (v5-mandatory) ``runner`` section must carry.
RUNNER_KEYS = (
    "standard_refs_per_s", "silent_write_refs_per_s", "overhead_pct"
)

REGENERATE_HINT = "regenerate the baseline with `make bench-baseline`"


def _load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        sys.exit(f"FAIL: benchmark file not found: {path}")
    except json.JSONDecodeError as exc:
        sys.exit(f"FAIL: {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        sys.exit(f"FAIL: {path} must contain a JSON object")
    return doc


def validate(doc: dict, label: str) -> list:
    """Structural violations of one artifact (empty == usable).

    Runs *before* any gate dereferences the documents, so stale or
    hand-edited artifacts fail with actionable messages instead of
    tracebacks.
    """
    problems = []
    schema = doc.get("schema")
    if schema != SCHEMA:
        problems.append(
            f"{label}: schema {schema!r} does not match the expected "
            f"{SCHEMA!r} — {REGENERATE_HINT}"
        )
    kernels = doc.get("kernels")
    if not isinstance(kernels, dict):
        problems.append(
            f"{label}: missing per-backend 'kernels' section — "
            f"{REGENERATE_HINT}"
        )
        return problems
    for kernel, keys in REQUIRED_KERNEL_KEYS.items():
        entry = kernels.get(kernel)
        if not isinstance(entry, dict):
            problems.append(
                f"{label}: kernels[{kernel!r}] entry is missing — "
                f"{REGENERATE_HINT}"
            )
            continue
        for key in keys:
            if not isinstance(entry.get(key), (int, float)):
                problems.append(
                    f"{label}: kernels[{kernel!r}][{key!r}] is missing "
                    f"or not a number — {REGENERATE_HINT}"
                )
    # The scenarios section is optional (a pre-v3 baseline may lack
    # it) but must be well-formed when present.
    scenarios = doc.get("scenarios")
    if scenarios is not None:
        if not isinstance(scenarios, dict):
            problems.append(
                f"{label}: 'scenarios' must be an object — "
                f"{REGENERATE_HINT}"
            )
        else:
            for name, entry in scenarios.items():
                if not isinstance(entry, dict) or not isinstance(
                    entry.get("batch_trials_per_s"), (int, float)
                ):
                    problems.append(
                        f"{label}: scenarios[{name!r}]"
                        f"['batch_trials_per_s'] is missing or not a "
                        f"number — {REGENERATE_HINT}"
                    )
    # The autotune section is mandatory from schema v4 on: the schema
    # check above already flags older artifacts, so this only has to
    # reject a v4 document with a malformed or missing section.
    autotune = doc.get("autotune")
    if not isinstance(autotune, dict):
        problems.append(
            f"{label}: missing 'autotune' section — {REGENERATE_HINT}"
        )
    else:
        for key in AUTOTUNE_KEYS:
            if not isinstance(autotune.get(key), (int, float)):
                problems.append(
                    f"{label}: autotune[{key!r}] is missing or not a "
                    f"number — {REGENERATE_HINT}"
                )
    # The runner section is mandatory from schema v5 on, same logic.
    runner = doc.get("runner")
    if not isinstance(runner, dict):
        problems.append(
            f"{label}: missing 'runner' section — {REGENERATE_HINT}"
        )
    else:
        for key in RUNNER_KEYS:
            if not isinstance(runner.get(key), (int, float)):
                problems.append(
                    f"{label}: runner[{key!r}] is missing or not a "
                    f"number — {REGENERATE_HINT}"
                )
    return problems


def check(
    current: dict,
    baseline: dict,
    tolerance: float,
    min_speedup: float,
    min_autotune_speedup: float,
    max_runner_overhead: float,
) -> list:
    """Gate violations between two *validated* artifacts (empty == pass)."""
    problems = []
    cur = current["kernels"]
    base = baseline["kernels"]

    for kernel in ("reference", "batch"):
        floor = base[kernel]["trials_per_s"] * (1.0 - tolerance)
        got = cur[kernel]["trials_per_s"]
        if got < floor:
            problems.append(
                f"{kernel} throughput {got:,.0f} trials/s is below the "
                f"floor {floor:,.0f} (baseline "
                f"{base[kernel]['trials_per_s']:,.0f} minus "
                f"{tolerance:.0%} tolerance)"
            )

    if cur["batch"]["speedup_vs_reference"] < min_speedup:
        problems.append(
            f"batch/reference speedup "
            f"{cur['batch']['speedup_vs_reference']:.1f}x is below the "
            f"{min_speedup:.1f}x floor"
        )

    # Scenario floors: only for presets both artifacts measured.
    cur_scenarios = current.get("scenarios") or {}
    base_scenarios = baseline.get("scenarios") or {}
    for name in sorted(set(cur_scenarios) & set(base_scenarios)):
        floor = base_scenarios[name]["batch_trials_per_s"] * (
            1.0 - tolerance
        )
        got = cur_scenarios[name]["batch_trials_per_s"]
        if got < floor:
            problems.append(
                f"scenario {name!r} batch throughput {got:,.0f} "
                f"trials/s is below the floor {floor:,.0f} (baseline "
                f"{base_scenarios[name]['batch_trials_per_s']:,.0f} "
                f"minus {tolerance:.0%} tolerance)"
            )

    # Autotune explorer: the cold pass gets the same tolerance floor;
    # the warm/cold ratio is gated within the current run only (the
    # warm pass is pure cache lookups — its absolute rate is too noisy
    # to floor against a baseline, but the ratio is machine-free).
    cold_floor = baseline["autotune"]["cells_per_s_cold"] * (
        1.0 - tolerance
    )
    cold = current["autotune"]["cells_per_s_cold"]
    if cold < cold_floor:
        problems.append(
            f"autotune cold-pass throughput {cold:,.1f} cells/s is "
            f"below the floor {cold_floor:,.1f} (baseline "
            f"{baseline['autotune']['cells_per_s_cold']:,.1f} minus "
            f"{tolerance:.0%} tolerance)"
        )
    warm_speedup = current["autotune"]["warm_speedup"]
    if warm_speedup < min_autotune_speedup:
        problems.append(
            f"autotune warm-cache speedup {warm_speedup:.1f}x is below "
            f"the {min_autotune_speedup:.1f}x floor"
        )

    # Runner: the nominal path's absolute rate holds the tolerance
    # floor against the baseline; the silent-write detection's cost is
    # a same-run ratio (machine-free) held under the overhead ceiling.
    runner_floor = baseline["runner"]["standard_refs_per_s"] * (
        1.0 - tolerance
    )
    runner_rate = current["runner"]["standard_refs_per_s"]
    if runner_rate < runner_floor:
        problems.append(
            f"runner standard-path throughput {runner_rate:,.0f} refs/s "
            f"is below the floor {runner_floor:,.0f} (baseline "
            f"{baseline['runner']['standard_refs_per_s']:,.0f} minus "
            f"{tolerance:.0%} tolerance)"
        )
    overhead = current["runner"]["overhead_pct"]
    if overhead > max_runner_overhead:
        problems.append(
            f"silent-write detection overhead {overhead:.1f}% exceeds "
            f"the {max_runner_overhead:.1f}% ceiling"
        )
    return problems


def _summary_line(label: str, doc: dict) -> str:
    kernels = doc["kernels"]
    parts = [
        f"reference {kernels['reference']['trials_per_s']:,.0f}",
        f"batch {kernels['batch']['trials_per_s']:,.0f} "
        f"({kernels['batch']['speedup_vs_reference']:.1f}x)",
    ]
    autotune = doc["autotune"]
    runner = doc["runner"]
    return (
        f"{label}: " + ", ".join(parts) + " trials/s; autotune "
        f"{autotune['cells_per_s_cold']:,.1f} cells/s cold "
        f"({autotune['warm_speedup']:.0f}x warm); runner "
        f"{runner['standard_refs_per_s']:,.0f} refs/s "
        f"({runner['overhead_pct']:.1f}% detection overhead)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "--current",
        default=str(root / "benchmarks" / "results" / "BENCH_reliability.json"),
        help="JSON produced by this run's benchmark",
    )
    parser.add_argument(
        "--baseline",
        default=str(root / "BENCH_reliability.json"),
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below the baseline (default 0.30)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="required batch/reference speedup in the current run",
    )
    parser.add_argument(
        "--min-autotune-speedup",
        type=float,
        default=5.0,
        help="required autotune warm-cache/cold speedup in the current "
             "run",
    )
    parser.add_argument(
        "--max-runner-overhead",
        type=float,
        default=5.0,
        help="allowed silent-write detection overhead (%% of standard "
             "refs/s) in the current run",
    )
    args = parser.parse_args(argv)

    current = _load(args.current)
    baseline = _load(args.baseline)

    # Structure first — nothing below may touch a key this rejected.
    problems = validate(current, "current") + validate(baseline, "baseline")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1

    problems = check(
        current,
        baseline,
        args.tolerance,
        args.min_speedup,
        args.min_autotune_speedup,
        args.max_runner_overhead,
    )

    print(_summary_line("current ", current))
    print(_summary_line("baseline", baseline))
    if not baseline.get("scenarios"):
        print("note: baseline has no scenario rows; scenario floors skipped")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print("PASS: kernel throughput within the regression gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
