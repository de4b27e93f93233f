"""End-to-end and per-layer benchmark of the ``repro`` simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time (median of fresh processes), the time of one pass of the
workload and its throughput, both in units of a calibration loop timed in
the same run (see ``workloads.py``), and the peak resident memory.  ``--trace
1`` runs one plain pass, one pass under ``cProfile`` and then traced
passes with spans around every layer's entry points, and reports the
per-layer metrics.  Either way the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(exactly the metrics ``BENCHMARK.json`` lists for the mode).  Detailed
results go to ``.perfbench/raw/`` (render them with
``python3 perfbench/render.py``) and spans to ``.perfbench/spans/``.

The simulator is deterministic: every simulated statistic repeats
exactly for a seed, so each workload prints a digest of its outputs.
Host time is the only noisy quantity.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from workloads import RATE, mean_s

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7

perf = time.perf_counter


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def probe_setup(workload: str, seed: int) -> List[float]:
    """CPU seconds from process start to ready for the first timed op, in
    fresh processes.  Set-up is single-threaded work (imports, tables,
    server bind), so CPU time measures it and leaves out the time the host
    gives to other tenants."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            word, _, cpu_s = proc.stdout.readline().partition(" ")
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(float(cpu_s))
    return times


def run_pass(workload):
    t0 = perf()
    result = workload.run_pass()
    result.wall_s = perf() - t0
    return result


def run_passes(workload, seconds: float, start: float):
    """At least one pass; another only while it is expected to end within
    ``seconds`` of ``start``."""
    passes = []
    while not passes or perf() - start + mean_s(passes) <= seconds:
        passes.append(run_pass(workload))
    return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics ---------------------------------------------------------


def layer_values(
    totals: Dict[str, List[float]],
    counters: Dict[str, int],
    passes: list,
) -> Dict[str, float]:
    """Every per-layer metric, per traced pass.  Times come from spans,
    counts from the runs' ``hierarchy.snapshot()`` and the responses."""
    from workloads import CAMPAIGN_CELLS

    n = len(passes)

    def rows(name: str) -> List[List[float]]:
        return [
            row for span, row in totals.items()
            if span == name or span.startswith(name + ".")
        ]

    def count(name: str) -> float:
        return sum(r[0] for r in rows(name)) / n

    def total(name: str) -> float:
        return sum(r[1] for r in rows(name)) / n

    def own(name: str) -> float:
        return sum(r[2] for r in rows(name)) / n

    def value(name: str) -> float:
        return statistics.fmean(p.values.get(name, 0.0) for p in passes)

    def per_call(name: str) -> float:
        row = totals.get(name)
        return row[1] / row[0] if row and row[0] else 0.0

    lookups = counters.get("experiments.pool.lookups", 0)
    plain_l2 = per_call("cache.l2")
    out = {
        "workloads.generators.refs": count("workloads.generators"),
        "workloads.generators.self_s": own("workloads.generators"),
        "workloads.mix.insts": count("workloads.mix"),
        "workloads.mix.self_s": own("workloads.mix"),
        "cache.hierarchy.refs": value("cache.hierarchy.refs"),
        "cache.hierarchy.self_s": own("cache.hierarchy"),
        "cache.l1.accesses": value("cache.l1.accesses"),
        "cache.l1.hit_rate": value("cache.l1.hit_rate"),
        "cache.l1.self_s": own("cache.l1"),
        "cache.l2.accesses": value("cache.l2.accesses"),
        "cache.l2.miss_rate": value("cache.l2.miss_rate"),
        "cache.l2.self_s": own("cache.l2"),
        "cache.below_l1.self_s": own("cache.below_l1"),
        "core.protected_cache.accesses": value("core.protected_cache.accesses"),
        "core.protected_cache.self_s": own("core.protected_cache"),
        "core.protected_cache.cost_ratio": (
            per_call("core.protected_cache") / plain_l2 if plain_l2 else 0.0
        ),
        "core.cleaning.advance_calls": count("core.cleaning"),
        "core.cleaning.self_s": own("core.cleaning"),
        "cpu.ooo.self_s": own("cpu.ooo"),
        "reliability.shard.count": count("reliability.shard"),
        "reliability.shard.trials": sum(
            v for k, v in counters.items()
            if k.startswith("reliability.shard.trials.")
        ) / n,
        "reliability.shard.self_s": own("reliability.shard"),
        "reliability.campaign.aggregate_s": own("reliability.campaign"),
        "reliability.checkpoint.appends": count("reliability.checkpoint.append"),
        "reliability.checkpoint.append_s": total("reliability.checkpoint.append"),
        "reliability.checkpoint.load_s": total("reliability.checkpoint.load"),
        "experiments.pool.cells": lookups / n,
        "experiments.pool.hit_ratio": (
            counters.get("experiments.pool.hits", 0) / lookups
            if lookups else 0.0
        ),
        "experiments.pool.lookup_s": total("experiments.pool.lookup"),
        "experiments.pool.execute_s": total("experiments.pool.execute"),
        "experiments.pool.put_s": total("experiments.pool.put"),
        "autotune.explore_s": total("autotune.explore"),
        "autotune.pareto_s": total("autotune.pareto"),
        "api.request_key_s": total("api.request_key"),
        "api.execute_s": total("api.execute"),
        "service.requests": count("service.http"),
        "service.errors": count("service.error"),
        "service.submit_s": total("service.submit"),
        "service.fabric.cached_result_s": total("service.fabric.cached_result"),
        "service.fabric.record_job_s": total("service.fabric.record_job"),
        "service.fabric.store_result_s": total("service.fabric.store_result"),
    }
    for scenario, _, _ in CAMPAIGN_CELLS:
        trials = counters.get(f"reliability.shard.trials.{scenario}", 0) / n
        busy = total(f"reliability.shard.{scenario}")
        out[f"reliability.shard.trials_per_s.{scenario}"] = (
            trials / busy if busy else 0.0
        )
    for name in (
        "cache.mshr.allocations", "cache.mshr.merges",
        "cache.write_buffer.inserts", "cache.write_buffer.coalesced",
        "cache.mainmem.reads", "cache.mainmem.writes",
        "cache.mainmem.busy_cycles", "core.cleaning.checks",
        "core.cleaning.writebacks", "core.ecc_array.allocations",
        "core.ecc_array.evictions", "core.traffic.silent_writes",
        "core.traffic.elided_ecc_updates", "cpu.ooo.insts",
        "cpu.ooo.sim_cycles", "reliability.campaign.rounds",
        "autotune.points", "service.jobs.queue_wait_s",
        "service.jobs.shared_ratio", "sim_writeback_pct",
        "sim_ipc_loss_pct",
    ):
        out[name] = value(name)
    return out


def layer_split(totals: Dict[str, List[float]]) -> Dict[str, float]:
    """Self time per repro subpackage, from the spans."""
    from spans import span_subpackage

    split: Dict[str, float] = {}
    for span, (_, _, own) in totals.items():
        package = span_subpackage(span)
        if package is not None:
            split[package] = split.get(package, 0.0) + own
    return split


def shares(times: Dict[str, float]) -> Dict[str, float]:
    whole = sum(times.values())
    return {k: v / whole for k, v in times.items()} if whole else {}


def traced_run(workload, seconds: float, start: float) -> Dict[str, Any]:
    import spans

    with workload.host:
        plain = run_pass(workload)
    with spans.ThreadProfiles() as profiles:
        profiled = workload.run_pass()
    by_package = profiles.self_time_by_subpackage()
    recorder = spans.SpanRecorder()
    installation = spans.Installation(recorder)
    try:
        traced = run_passes(workload, seconds, start)
    finally:
        installation.uninstall()
    totals = recorder.totals()
    layers = layer_values(totals, recorder.counters, traced)
    split = {k: v / len(traced) for k, v in layer_split(totals).items()}
    traced_wall = sum(p.wall_s for p in traced)
    repro_profile = {k: v for k, v in by_package.items() if k != "other"}
    span_shares, profile_shares = shares(split), shares(repro_profile)
    gap = {
        package: span_shares.get(package, 0.0) - profile_shares.get(package, 0.0)
        for package in sorted(set(span_shares) | set(profile_shares))
    }
    layers["trace.overhead_s"] = (
        statistics.median(p.time_s() for p in traced) - plain.time_s()
    )
    layers["trace.uncovered_share"] = (
        1.0 - recorder.main_thread_top_s() / traced_wall
    )
    layers["trace.cprofile_share_gap"] = max(
        (abs(v) for v in gap.values()), default=0.0
    )
    replay = None
    if workload.name == "figures":
        import replay as l2_replay

        replay = l2_replay.run(workload.seed)
        for name, rate in replay["refs_per_s"].items():
            layers[f"core.replay.{name}.refs_per_s"] = rate
        layers["core.replay.protection_cost_ratio"] = (
            replay["protection_cost_ratio"]
        )
    return {
        "passes": [plain, profiled] + traced,
        "traced_passes": len(traced),
        "layers": layers,
        "split_s": split,
        "cprofile_s": {k: v for k, v in by_package.items()},
        "cprofile_share_gap": gap,
        "replay": replay,
        "spans": {
            "totals": {k: v for k, v in sorted(totals.items())},
            "counters": dict(recorder.counters),
            "records": recorder.records,
        },
    }


# -- reporting -----------------------------------------------------------------


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(args, workload, result: Dict[str, Any]) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])}")
    for name, (value, unit, n) in result["e2e"].items():
        print(f"  {name:28s} {fmt(value):>12s} {unit:8s} n={n}")
    if args.workload == "ipc":
        from workloads import PAPER_IPC_LOSS_PCT as paper

        print(f"  {'':28s} paper Section 5.2 (reference only, not an error "
              f"figure): {paper['fp']}% FP, {paper['int']}% INT")
    columns = {
        k: v for k, v in result["passes"][0].values.items()
        if k.startswith("column.")
    }
    for name, value in sorted(columns.items()):
        print(f"  {name:44s} {fmt(value)}")
    print(f"  digest {result['digest']}")
    for name, ok in result["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    for failure in result["failures"][:20]:
        print(f"  failure {failure}")
    if args.trace:
        trace = result["traced"]
        print(f"  traced passes {trace['traced_passes']}")
        profile = shares({
            k: v for k, v in trace["cprofile_s"].items() if k != "other"
        })
        spans_share = shares(trace["split_s"])
        print(f"  {'self time by subpackage':24s} {'spans s/pass':>12s} "
              f"{'share':>7s} {'cProfile share':>15s} {'diff':>7s}")
        for package, gap in trace["cprofile_share_gap"].items():
            print(f"  {package:24s} "
                  f"{fmt(trace['split_s'].get(package, 0.0)):>12s} "
                  f"{spans_share.get(package, 0.0):7.1%} "
                  f"{profile.get(package, 0.0):15.1%} {gap:+7.1%}")
        for name, value in sorted(trace["layers"].items()):
            print(f"  layer {name:44s} {fmt(value)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(workloads.WORKLOADS)}")
    scratch = OUT / "tmp" / str(os.getpid())
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    try:
        if args.probe_setup:
            workload.setup()
            print(f"ready {time.process_time()}", flush=True)
            workload.teardown()
            return 0
        e2e_units, layer_units = declared_metrics()
        setup_samples = [] if args.trace else probe_setup(
            args.workload, args.seed
        )
        workload.setup()
        workload.teardown()
        start = perf()
        if args.trace:
            trace = traced_run(workload, args.seconds, start)
            passes = trace["passes"]
        else:
            trace = None
            with workload.host:
                passes = run_passes(workload, args.seconds, start)
        checks = workload.checks(passes)
        if trace is not None and trace["replay"] is not None:
            checks.append((
                "L2 replay into ProtectedL2 ends in the recorded run's state",
                trace["replay"]["replay_matches_recorded_run"],
            ))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    failures += [f"check failed: {name}" for name, ok in checks if not ok]
    attempted = sum(p.attempted for p in passes) + len(checks)
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "digest": passes[0].digest,
        "checks": checks,
        "failures": failures,
        "attempted": attempted,
        "failed": len(failures),
    }
    timed = passes if trace is None else passes[:1]  # untraced only
    loop_s = workload.host.loop_s()
    pass_s, rate_s = mean_s(timed), mean_s(timed, RATE)
    clock = "cpu" if workload.clock is time.process_time else "wall"
    e2e = {
        "pass_loops": (pass_s / loop_s, "loops", len(timed)),
        "throughput_per_loop": (
            timed[0].units * loop_s / rate_s, "1/loop", len(timed),
        ),
        f"pass_s ({clock})": (pass_s, "s", len(timed)),
        f"pass_s.median ({clock})": (
            statistics.median(p.time_s() for p in timed), "s", len(timed),
        ),
        "wall_s": (
            statistics.median(p.wall_s for p in timed), "s", len(timed),
        ),
        workload.throughput_name: (
            timed[0].units / rate_s, f"{workload.unit_name}/s", len(timed),
        ),
        "loop_s": (loop_s, "s", len(workload.host.samples)),
    }
    e2e.update(workload.e2e(timed))
    e2e["error_rate"] = (len(failures) / attempted, "fraction", attempted)
    e2e["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    if trace is None:
        e2e["setup_s"] = (
            statistics.median(setup_samples), "s", len(setup_samples)
        )
        metrics = {
            name: {"value": e2e[name][0], "unit": unit}
            for name, unit in e2e_units.items()
        }
    else:
        result["traced"] = trace
        metrics = {
            name: {"value": trace["layers"].get(name, 0.0), "unit": unit}
            for name, unit in layer_units.items()
        }
    result["e2e"] = e2e
    report(args, workload, result)
    write_outputs(args, result)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args, names: List[str]) -> int:
    """Every workload, each in its own process; nonzero if any fails."""
    status = 0
    for name in names:
        status |= subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        ).returncode
    return status


def write_outputs(args, result: Dict[str, Any]) -> None:
    """Raw results for the renderer; spans (traced runs) in their own file."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {
        k: v for k, v in result.items() if k not in ("passes", "traced")
    }
    raw["pass_s"] = [p.time_s() for p in result["passes"]]
    raw["e2e"] = {
        name: {"value": v, "unit": u, "samples": n}
        for name, (v, u, n) in result["e2e"].items()
    }
    if "traced" in result:
        trace = result["traced"]
        raw["layers"] = trace["layers"]
        raw["split_s"] = trace["split_s"]
        raw["cprofile_s"] = trace["cprofile_s"]
        raw["replay"] = trace["replay"]
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        (OUT / "spans" / f"{stem}.json").write_text(
            json.dumps(trace["spans"])
        )
    (OUT / "raw").mkdir(parents=True, exist_ok=True)
    (OUT / "raw" / f"{stem}.json").write_text(
        json.dumps(raw, indent=1, default=str)
    )


if __name__ == "__main__":
    sys.exit(main())
