"""Compare two checkouts on one ``perfbench`` workload in alternating pairs.

Host time on a shared machine swings by tens of percent, so a speed
claim needs paired runs: pair ``i`` runs ``perfbench/run.py --trace 0
--seed i`` in the base and the head checkout, the base first in odd
pairs and the head first in even ones, and only the two runs of one
pair are compared with each other.  The script prints every pair, and
per end-to-end metric each side's median, the base runs' interquartile
range, the pairs the head wins and the median over the pairs of the
head/base ratio.  It exits 1 when a median ratio is worse than the
metric's bound in the head checkout's ``BENCHMARK.json`` (``better``
and ``bound`` per metric), or when the head runs fail a larger share
of their operations than the base runs.

Usage, from anywhere::

    python scripts/perf_pairs.py BASE_DIR HEAD_DIR --workload ipc --pairs 5

Each directory is a checkout root (it holds ``perfbench/run.py`` and
``BENCHMARK.json``).  ``--seconds`` is passed through to
``perfbench/run.py`` (its default is the benchmark's 24 s).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def parse_result(stdout: str) -> Dict:
    """The result object of one ``perfbench/run.py`` run: its last
    non-empty stdout line, which is one JSON object."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("the last line is not a perfbench result")
    return result


def metric_values(result: Dict) -> Dict[str, float]:
    """Metric name -> value of one result object."""
    return {
        name: float(entry["value"])
        for name, entry in result["metrics"].items()
    }


def load_bounds(checkout: Path) -> Dict[str, Tuple[str, float]]:
    """End-to-end metric name -> (``better``, ``bound``) from a
    checkout's ``BENCHMARK.json``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {
        m["name"]: (m["better"], float(m["bound"]))
        for m in spec["end_to_end"]
    }


def ratio(head: float, base: float) -> float:
    """``head / base``; 1.0 when both are 0."""
    if base == 0:
        return 1.0 if head == 0 else float("inf")
    return head / base


def worse_than_bound(better: str, bound: float, median_ratio: float) -> bool:
    """Whether a head/base ratio is worse than ``bound`` allows: above
    ``1 + bound`` for a lower-is-better metric, below ``1 - bound`` for
    a higher-is-better one."""
    if better == "lower":
        return median_ratio > 1.0 + bound
    return median_ratio < 1.0 - bound


def quartile_spread(values: Sequence[float]) -> float:
    """The distance between the upper and lower quartiles of
    ``values`` (0 for fewer than two)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def failed_share(results: Sequence[Dict]) -> float:
    """Failed operations over attempted ones, across ``results``."""
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    return failed / attempted if attempted else 0.0


def summarise(
    pairs: Sequence[Tuple[Dict, Dict]],
    bounds: Dict[str, Tuple[str, float]],
) -> Tuple[List[Tuple], List[str]]:
    """Per bounded metric: ``(name, base median, head median, base
    interquartile range, pairs the head wins, median of the head/base
    ratios, worse than its bound)``, and the reasons the comparison
    fails (empty when it passes).  A tie wins for neither side."""
    rows = []
    problems = []
    for name, (better, bound) in bounds.items():
        base = [metric_values(b)[name] for b, _ in pairs]
        head = [metric_values(h)[name] for _, h in pairs]
        mid = statistics.median(ratio(h, b) for b, h in zip(base, head))
        worse = worse_than_bound(better, bound, mid)
        wins = sum(
            (h < b) if better == "lower" else (h > b)
            for b, h in zip(base, head)
        )
        rows.append((
            name, statistics.median(base), statistics.median(head),
            quartile_spread(base), wins, mid, worse,
        ))
        if worse:
            problems.append(
                f"{name}: median head/base {mid:.4f} is past its bound "
                f"{bound:g} ({better} is better)"
            )
    base_share = failed_share([b for b, _ in pairs])
    head_share = failed_share([h for _, h in pairs])
    if head_share > base_share:
        problems.append(
            f"failed share of operations rose: {base_share:.4g} -> "
            f"{head_share:.4g}"
        )
    return rows, problems


def run_perfbench(
    checkout: Path, workload: str, seed: int, seconds: Optional[float]
) -> Dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    proc = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"perfbench failed in {checkout} (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="base checkout root")
    parser.add_argument("head", type=Path, help="head checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bounds = load_bounds(args.head)
    names = list(bounds)
    pairs = []
    for seed in range(1, args.pairs + 1):
        if seed % 2:
            base = run_perfbench(args.base, args.workload, seed, args.seconds)
            head = run_perfbench(args.head, args.workload, seed, args.seconds)
        else:
            head = run_perfbench(args.head, args.workload, seed, args.seconds)
            base = run_perfbench(args.base, args.workload, seed, args.seconds)
        pairs.append((base, head))
        base_values, head_values = metric_values(base), metric_values(head)
        cells = "  ".join(
            f"{name} {base_values[name]:.4g}/{head_values[name]:.4g}"
            for name in names
        )
        print(f"pair {seed} (seed {seed}, base/head): {cells}", flush=True)

    rows, problems = summarise(pairs, bounds)
    print(f"{args.workload}: {len(pairs)} pairs")
    print(f"  {'metric':22s} {'base median':>12s} {'head median':>12s} "
          f"{'base IQR':>10s} {'head wins':>10s} {'median ratio':>13s}")
    for name, base_mid, head_mid, spread, wins, mid, worse in rows:
        flag = "  WORSE" if worse else ""
        print(f"  {name:22s} {base_mid:12.4g} {head_mid:12.4g} "
              f"{spread:10.4g} {f'{wins}/{len(pairs)}':>10s} "
              f"{mid:13.4f}{flag}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
