"""Render benchmark results: raw JSON -> CSV -> one table per workload.

Step 1, ``python3 perfbench/run.py ...`` (any number of runs), leaves one
``.perfbench/raw/<workload>-seed<n>-trace<t>.json`` per run.  Step 2,
this script, flattens them into ``.perfbench/results.csv`` (one row per
run and metric) and prints, per workload, its rationale and a table of
every metric over the runs: count, median, min and max.

Usage: ``python3 perfbench/render.py [--raw DIR] [--csv PATH]``
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench"
FIELDS = ("workload", "seed", "trace", "kind", "metric", "value", "unit",
          "samples")


def to_rows(raw_dir: Path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for path in sorted(raw_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        base = {k: doc[k] for k in ("workload", "seed", "trace")}
        for name, metric in doc.get("e2e", {}).items():
            yield dict(base, kind="e2e", metric=name, value=metric["value"],
                       unit=metric["unit"], samples=metric["samples"])
        for name, value in doc.get("layers", {}).items():
            yield dict(base, kind="layer", metric=name, value=value,
                       unit=layer_units.get(name, ""), samples=1)
        yield dict(base, kind="check", metric="failed", value=doc["failed"],
                   unit="count", samples=doc["attempted"])


def write_csv(rows, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def render(path: Path) -> str:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rationale = json.loads((HERE / "rationale.json").read_text())
    lines = [rationale["model"], ""]
    for workload in rationale["workloads"]:
        mine = [r for r in rows if r["workload"] == workload]
        if not mine:
            continue
        info = rationale["workloads"][workload]
        runs = sorted({(r["seed"], r["trace"]) for r in mine})
        lines.append(f"== {workload}  ({len(runs)} runs)")
        lines.append(f"   why: {info['why']}")
        lines.append(f"   loads: {', '.join(info['loads'])}")
        lines.append(f"   bypasses: {', '.join(info['bypasses'])}")
        lines.append(
            f"   {'metric':46s} {'runs':>4s} {'median':>12s} "
            f"{'min':>12s} {'max':>12s}  unit"
        )
        seen = {}
        for r in mine:
            seen.setdefault((r["kind"], r["metric"], r["unit"]), []).append(
                float(r["value"])
            )
        for (kind, metric, unit), values in sorted(seen.items()):
            lines.append(
                f"   {kind + ' ' + metric:46s} {len(values):4d} "
                f"{statistics.median(values):12.6g} {min(values):12.6g} "
                f"{max(values):12.6g}  {unit}"
            )
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--raw", type=Path, default=OUT / "raw")
    parser.add_argument("--csv", type=Path, default=OUT / "results.csv")
    args = parser.parse_args(argv)
    if not args.raw.is_dir():
        print(f"error: no results under {args.raw}; run perfbench/run.py "
              "first", file=sys.stderr)
        return 2
    write_csv(to_rows(args.raw), args.csv)
    print(render(args.csv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
