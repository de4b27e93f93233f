"""Seed-to-seed spread of the end-to-end metrics of one workload.

Runs ``perfbench/run.py`` once per seed (untraced) and prints, for every
gated end-to-end metric, the median over the runs and the spread: the
distance between the first and third quartile as a share of the median.
Beside them, from the same runs, it prints the spread of the measured
mean and median pass times in seconds, so the effect of the host-relative
unit shows.

Usage: ``python3 perfbench/spread.py WORKLOAD SEED[,SEED...]``
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Measured times printed beside the gated metrics (not gated).
MEASURED = ("pass_s", "pass_s.median")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    workload, seeds = argv[0], [int(s) for s in argv[1].split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
            return 1
        last = json.loads(out.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            print(out.stdout[-2000:], file=sys.stderr)
            return 1
        raw = json.loads((
            ROOT / ".perfbench" / "raw" / f"{workload}-seed{seed}-trace0.json"
        ).read_text())
        row = {k: v["value"] for k, v in last["metrics"].items()}
        for name, metric in raw["e2e"].items():
            if name.split(" ")[0] in MEASURED:
                row[name] = metric["value"]
                row["passes"] = metric["samples"]
        for name, value in row.items():
            values.setdefault(name, []).append(value)
        print(seed, {k: round(v, 4) for k, v in row.items()}, flush=True)
    for name, series in values.items():
        if name == "passes":
            continue
        bound = bounds.get(name)
        limit = f"bound {bound}" if bound is not None else "measured, not gated"
        print(f"{workload} {name}: median {statistics.median(series):.5g} "
              f"spread {spread(series):.4f} ({limit})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
