"""Command-line interface: ``python -m repro <command>``.

The CLI is a thin rendering shell over :mod:`repro.api`: every command
builds a frozen request dataclass, hands it to the facade, and renders
the returned result dataclass — as a table by default, or verbatim as
JSON under ``--format json``.  Invalid inputs surface as
:class:`repro.api.ReproError` and exit with status 2; the same facade
calls (and the same result documents) are served over HTTP by
``repro serve`` (:mod:`repro.service`).

Commands
--------
``figures``   regenerate one or all of the paper's figures/tables
``run``       one reference-mode run of a benchmark or trace file
``ipc``       one CPU-mode run (org vs ours IPC comparison)
``area``      the Section 5.2 area accounting
``inject``    a fault-injection campaign against a codec
``reliability``  a Monte Carlo fault-injection campaign across schemes
``autotune``  Pareto fronts over the scheme/codec/interval design grid
``recommend`` pick a front point under FIT and area budgets
``serve``     long-running job server over the same facade; several
              replicas sharing one ``--data-dir`` form a fabric
``workers``   list a running service's fabric worker registry
``trace``     export a benchmark's synthetic trace to a file
``list``      list the benchmark suite
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro import api
from repro.experiments import (
    RunConfig,
    render_series,
    render_table,
)
from repro.experiments.report import render_snapshot
from repro.telemetry import (
    EventTracer,
    PhaseProfiler,
    mean_snapshots,
)
from repro.workloads import (
    BENCHMARKS,
    get_benchmark,
    load_trace,
    make_ref_stream,
    save_trace,
    summarize_trace,
)


def _typed_arg(
    kind: str,
    none_values: tuple = ("none", "off"),
    suffixes: Optional[Dict[str, int]] = None,
) -> Callable[[str], Optional[int]]:
    """Build an argparse ``type``: a positive int, 'none'-able, with
    optional magnitude suffixes (``1M``, ``256K``).

    All of the CLI's nullable numeric options share this grammar; the
    factory keeps their parsing and error messages identical.
    """

    def parse(text: str) -> Optional[int]:
        raw = text.strip().lower()
        if raw in none_values:
            return None
        multiplier = 1
        if suffixes:
            for suffix, mult in suffixes.items():
                if raw.endswith(suffix):
                    multiplier, raw = mult, raw[: -len(suffix)]
                    break
        try:
            value = int(raw) * multiplier
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad {kind} {text!r}"
            ) from None
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"{kind} must be positive or 'none'"
            )
        return value

    parse.__name__ = f"_parse_{kind}"
    return parse


#: '1M'/'256K'/'none' -> cycles (paper-nominal) or None.
_parse_interval = _typed_arg(
    "interval",
    none_values=("none", "off", "0"),
    suffixes={"m": 1 << 20, "k": 1 << 10},
)

#: Shared-ECC entries per set, or None for unconstrained.
_parse_entries = _typed_arg("entries")

#: Event-tracer ring-buffer capacity ('64K' style suffixes allowed).
_parse_capacity = _typed_arg(
    "capacity", suffixes={"m": 1 << 20, "k": 1 << 10}
)


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--refs", type=int, default=60_000,
                        help="measured memory references")
    parser.add_argument("--warmup", type=int, default=20_000,
                        help="warm-up references (stats discarded)")
    parser.add_argument("--seed", type=int, default=0)


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep grid (1 = sequential)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result-cache directory (default $REPRO_CACHE_DIR or "
             "~/.cache/repro-sweeps)",
    )


def _add_format_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["table", "json", "csv"], default="table",
        help="render a table (default), print the facade's result "
             "document as JSON, or emit the table's rows as CSV",
    )


def _emit_json(response) -> int:
    """``--format json``: the facade result document, nothing else."""
    print(json.dumps(response.as_dict(), indent=2, sort_keys=True))
    return 0


def _emit_csv(headers, rows) -> int:
    """``--format csv``: the table's headers and raw rows, one CSV."""
    import csv

    writer = csv.writer(sys.stdout)
    writer.writerow(headers)
    writer.writerows(rows)
    return 0


def _render_rows(
    args, headers, rows, *, title=None, ndigits=2, response=None, doc=None
) -> int:
    """The one ``table|json|csv`` renderer the tabular commands share.

    ``json`` prints the facade result document (``response.as_dict()``)
    when one exists, otherwise the explicit ``doc``; ``csv`` emits the
    same headers and raw rows the table would render.
    """
    if args.format == "json":
        if response is not None:
            return _emit_json(response)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.format == "csv":
        return _emit_csv(headers, rows)
    print(render_table(headers, rows, ndigits=ndigits, title=title))
    return 0


def _engine(args):
    """Build the sweep engine a command's pool flags describe."""
    from repro.experiments.pool import SweepEngine

    if args.jobs < 1:
        raise api.ReproError("--jobs must be >= 1")
    cache = False if args.no_cache else (args.cache_dir or True)
    return SweepEngine(jobs=args.jobs, cache=cache,
                       progress=sys.stderr.isatty())


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write structured events as JSON Lines to PATH "
             "(tracing is off without this)",
    )
    parser.add_argument(
        "--trace-capacity", type=_parse_capacity, default=65536,
        metavar="N",
        help="event ring-buffer capacity (oldest events drop beyond it)",
    )


def _add_variant_arg(parser: argparse.ArgumentParser) -> None:
    # Like --kernel/--scenario/--codec: no argparse `choices` — the
    # facade rejects unknown names with the same enumerating error the
    # HTTP service returns as a 400.
    from repro.core.policy import available_variants

    parser.add_argument(
        "--variant", default="standard",
        help="policy variant: " + ", ".join(available_variants())
             + " ('silent-write' elides redundant stores, 'wb-compress' "
             "compresses write-back traffic; see docs/traffic.md)",
    )


def _add_protection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--interval", type=_parse_interval, default="1M", metavar="CYCLES",
        help="cleaning interval, paper-nominal (e.g. 256K, 1M, none)",
    )
    parser.add_argument(
        "--ecc-entries", type=_parse_entries, default="1", metavar="N",
        help="shared ECC entries per set (or 'none' for unconstrained)",
    )


def _print_sweep_stats(engine) -> None:
    """Surface per-sweep wall-time/throughput accounting."""
    if engine.stats.cells:
        print(engine.summary())


def _make_tracer(args) -> Optional[EventTracer]:
    """The tracer ``--trace-out`` asks for, or None (tracing is opt-in)."""
    if not getattr(args, "trace_out", None):
        return None
    return EventTracer(capacity=args.trace_capacity)


def _export_trace(tracer: Optional[EventTracer], args, file=None) -> None:
    if tracer is None:
        return
    n = tracer.export_jsonl(args.trace_out)
    print(f"wrote {n} events to {args.trace_out} ({tracer.summary()})",
          file=file or sys.stdout)


def _area_rows(response: api.AreaResponse) -> List[List[str]]:
    rows = [[f"conventional: {n}", f"{k:.2f}"]
            for n, k in response.conventional]
    rows += [[f"proposed: {n}", f"{k:.2f}"] for n, k in response.proposed]
    rows.append(["reduction", f"{100 * response.reduction:.1f}%"])
    return rows


def _render_area(response: api.AreaResponse) -> str:
    return render_table(["component", "KiB"], _area_rows(response),
                        title="Protection area, 1MB 4-way 64B L2")


def cmd_figures(args) -> int:
    engine = _engine(args)
    if args.json:
        from repro.experiments import regenerate_all, save_json

        config = RunConfig(n_refs=args.refs, warmup_refs=args.warmup,
                           seed=args.seed)
        doc = regenerate_all(config, include_ipc=not args.no_ipc,
                             ipc_insts=args.refs * 2, engine=engine)
        save_json(doc, args.json)
        print(f"wrote {args.json}")
        _print_sweep_stats(engine)
        return 0
    request = api.FiguresRequest(
        fig=args.fig, refs=args.refs, warmup=args.warmup, seed=args.seed,
        ecc_area_entries=args.ecc_area_entries,
    )
    response = api.figures(request, engine=engine)
    for section in response.sections:
        if section.text is not None:
            print(section.title)
            print(section.text)
        elif section.area is not None:
            print(_render_area(section.area))
        else:
            print(render_series(section.series, ndigits=section.ndigits,
                                title=section.title))
        print()
    _print_sweep_stats(engine)
    return 0


def cmd_run(args) -> int:
    request = api.RunRequest(
        benchmark=args.benchmark, trace=args.trace, interval=args.interval,
        ecc_entries=args.ecc_entries, refs=args.refs, warmup=args.warmup,
        seed=args.seed, variant=args.variant,
    )
    tracer = _make_tracer(args)
    profiler = PhaseProfiler()
    out = api.run(request, engine=_engine(args), tracer=tracer,
                  profiler=profiler)
    rows = [
        ["benchmark", out.benchmark],
        ["measured refs", out.refs],
        ["cycles", out.cycles],
        ["avg dirty %", 100 * out.dirty_fraction],
        ["peak dirty %", 100 * out.peak_dirty_fraction],
        ["writeback % of refs", 100 * out.writeback_fraction],
        ["  WB %", 100 * out.writeback_split["WB"]],
        ["  Clean-WB %", 100 * out.writeback_split["Clean-WB"]],
        ["  ECC-WB %", 100 * out.writeback_split["ECC-WB"]],
        ["L2 miss rate", out.l2_miss_rate],
        ["bus utilisation", out.bus_utilization],
    ]
    if out.cleaning_interval is not None:
        # Paper-nominal interval plus the cycles this geometry ran it at.
        rows.insert(1, ["cleaning interval", out.cleaning_interval])
    if args.variant != "standard":
        rows.insert(1, ["variant", args.variant])
        rows += [
            ["silent writes", out.silent_writes],
            ["elided ECC updates", out.elided_ecc_updates],
            ["write-back bytes raw", out.wb_bytes_raw],
            ["write-back bytes sent", out.wb_bytes_compressed],
        ]
    ret = _render_rows(args, ["metric", "value"], rows, response=out)
    _export_trace(tracer, args,
                  file=None if args.format == "table" else sys.stderr)
    if args.profile and args.format == "table":
        print(profiler.summary())
    return ret


def cmd_ipc(args) -> int:
    request = api.IpcRequest(
        benchmark=args.benchmark, insts=args.insts, interval=args.interval,
        ecc_entries=args.ecc_entries, refs=args.refs, warmup=args.warmup,
        seed=args.seed, variant=args.variant,
    )
    engine = _engine(args)
    out = api.ipc(request, engine=engine)
    rows = [
        ["IPC", out.org_ipc, out.ours_ipc],
        ["cycles", out.org_cycles, out.ours_cycles],
        ["writeback fraction", out.org_writeback_fraction,
         out.ours_writeback_fraction],
        ["energy (uJ)", out.org_energy_uj, out.ours_energy_uj],
    ]
    if args.variant != "standard":
        rows += [
            ["silent writes", 0, out.silent_writes],
            ["elided ECC updates", 0, out.elided_ecc_updates],
            ["write-back bytes raw", 0, out.wb_bytes_raw],
            ["write-back bytes sent", 0, out.wb_bytes_compressed],
        ]
    title = f"{args.benchmark}: {args.insts} instructions"
    if args.variant != "standard":
        title += f" (ours = {args.variant})"
    ret = _render_rows(args, ["metric", "org", "ours"], rows,
                       ndigits=3, title=title, response=out)
    if args.format == "table":
        print(f"IPC loss: {out.ipc_loss_pct:.2f}%")
        _print_sweep_stats(engine)
    return ret


def cmd_area(args) -> int:
    response = api.area(api.AreaRequest(ecc_entries=args.ecc_area_entries))
    return _render_rows(
        args, ["component", "KiB"], _area_rows(response),
        title="Protection area, 1MB 4-way 64B L2", response=response,
    )


def cmd_inject(args) -> int:
    request = api.InjectRequest(codec=args.codec, trials=args.trials,
                                flips=args.flips, seed=args.seed)
    tracer = _make_tracer(args)
    out = api.inject(request, tracer=tracer)
    rows = [[name, doc["count"], doc["rate"]]
            for name, doc in out.outcomes.items()]
    ret = _render_rows(
        args, ["outcome", "count", "rate"], rows, ndigits=4,
        title=f"{args.codec}: {args.trials} trials x {args.flips} flips",
        response=out,
    )
    _export_trace(tracer, args,
                  file=None if args.format == "table" else sys.stderr)
    return ret


def _parse_trials(text: str) -> Optional[int]:
    """``auto`` (run until the stopping rule fires) or a positive int."""
    raw = text.strip().lower()
    if raw == "auto":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad trials {text!r} (want 'auto' or a positive int)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("trials must be positive or 'auto'")
    return value


def cmd_reliability(args) -> int:
    """Run (or resume) a Monte Carlo fault-injection campaign."""
    engine = _engine(args)
    tracer = _make_tracer(args)
    request = api.ReliabilityRequest(
        schemes=tuple(args.schemes),
        trials=args.trials,
        target=args.target,
        metric=args.metric,
        trials_per_shard=args.trials_per_shard,
        shards_per_round=args.shards_per_round,
        max_trials=args.max_trials,
        kernel=args.kernel,
        seed=args.seed,
        double_bit_fraction=args.double_bit_fraction,
        raw_fit=args.raw_fit,
        n_lines=args.n_lines,
        benchmark=args.benchmark,
        refs=args.refs,
        warmup=args.warmup,
        checkpoint=args.checkpoint,
        scenario=args.scenario,
        codec=args.codec,
        variant=args.variant,
    )

    def progress(event: Dict[str, object]) -> None:
        if event.get("type") == "dirty-fractions":
            fractions = event["dirty_fractions"]
            print(f"{args.benchmark}: measured dirty fractions "
                  + ", ".join(f"{k}={v:.3f}"
                              for k, v in sorted(fractions.items())))

    try:
        response = api.reliability(
            request, engine=engine, tracer=tracer, progress=progress
        )
    except api.ReproError as err:
        # Checkpoint mismatches and bad campaign shapes keep their
        # historical SystemExit contract (message, no traceback).
        raise SystemExit(str(err)) from None
    except KeyboardInterrupt:
        if args.checkpoint:
            print(f"\ninterrupted; completed shards are in "
                  f"{args.checkpoint} — rerun the same command to resume")
        else:
            print("\ninterrupted (no --checkpoint: progress discarded)")
        return 130

    result = response.result
    title = "Reliability campaign"
    if args.benchmark:
        title += f" ({args.benchmark} dirty fractions)"
    settings = [
        ["trials", "auto" if args.trials is None else args.trials],
        ["target half-width",
         f"±{args.target:.3g} on {args.metric} (95% Wilson)"],
        ["seed", args.seed],
        ["resumed / executed shards",
         f"{result.resumed_shards} / {result.executed_shards}"],
    ]
    # Non-default fault model: say so where the numbers are read.
    if args.variant != "standard":
        settings.insert(0, ["variant", args.variant])
    if args.scenario != "nominal":
        settings.insert(0, ["scenario", args.scenario])
    if args.codec != "secded":
        settings.insert(1 if args.scenario != "nominal" else 0,
                        ["ecc codec", args.codec])
    print(render_table(
        ["setting", "value"],
        settings,
        title=title,
    ))
    print()
    from repro.experiments.report import render_campaign

    print(render_campaign(result))
    _export_trace(tracer, args)
    _print_sweep_stats(engine)
    return 0


def _autotune_request_kwargs(args) -> Dict[str, object]:
    """The AutotuneRequest fields both grid verbs share."""
    return dict(
        benchmarks=tuple(args.benchmarks),
        schemes=tuple(args.schemes),
        codecs=tuple(args.codecs),
        intervals=tuple(args.intervals),
        ecc_entries=tuple(args.ecc_entries),
        write_buffers=tuple(args.write_buffers),
        variants=tuple(args.variants),
        scenarios=tuple(args.scenarios),
        objectives=tuple(args.objectives),
        trials=args.trials,
        trials_per_shard=args.trials_per_shard,
        kernel=args.kernel,
        seed=args.seed,
        refs=args.refs,
        warmup=args.warmup,
        insts=args.insts,
        double_bit_fraction=args.double_bit_fraction,
        raw_fit=args.raw_fit,
        n_lines=args.n_lines,
        checkpoint_dir=args.checkpoint_dir,
    )


def _autotune_progress(event: Dict[str, object]) -> None:
    """Per-point progress on stderr (interactive runs only)."""
    if event.get("type") != "point" or not sys.stderr.isatty():
        return
    state = "cached" if event.get("cached") else "ran"
    print(
        f"[{event['done']}/{event['total']}] {event['benchmark']} "
        f"{event['label']} ({state})",
        file=sys.stderr,
    )


def _emit_front_csv(response: "api.AutotuneResponse") -> int:
    """``--format csv``: one row per point, flat enough for a spreadsheet.

    Axis columns, the ``on_front`` flag, then ``<objective>``/
    ``<objective>_lo``/``<objective>_hi`` triples per objective.
    """
    import csv

    axes = ["benchmark", "scheme", "codec", "interval", "ecc_entries",
            "write_buffer", "variant", "scenario"]
    headers = axes + ["label", "on_front"]
    for name in response.objectives:
        headers += [name, f"{name}_lo", f"{name}_hi"]
    writer = csv.writer(sys.stdout)
    writer.writerow(headers)
    for doc in response.points:
        row = [doc[a] for a in axes] + [doc["label"], doc["on_front"]]
        for name in response.objectives:
            o = doc["objectives"][name]
            row += [o["value"], o["lo"], o["hi"]]
        writer.writerow(row)
    return 0


def _print_fronts(response: "api.AutotuneResponse") -> None:
    from repro.experiments.report import render_front

    for benchmark, front in response.fronts.items():
        candidates = [
            i for i, doc in enumerate(response.points)
            if doc["benchmark"] == benchmark
        ]
        print(render_front(
            response.points, front, response.objectives,
            title=(f"{benchmark}: Pareto front over "
                   f"{', '.join(response.objectives)} "
                   f"(* = non-dominated, CI-aware)"),
            indices=candidates,
        ))
        print()
    print(f"grid: {len(response.points)} points "
          f"({response.executed} executed, {response.cached} cached)")


def cmd_autotune(args) -> int:
    """Explore the design grid and print per-benchmark Pareto fronts."""
    engine = _engine(args)
    request = api.AutotuneRequest(**_autotune_request_kwargs(args))
    response = api.autotune(
        request, engine=engine, progress=_autotune_progress
    )
    if args.format == "json":
        return _emit_json(response)
    if args.format == "csv":
        return _emit_front_csv(response)
    _print_fronts(response)
    _print_sweep_stats(engine)
    return 0


def cmd_recommend(args) -> int:
    """Pick a budget-feasible front point per benchmark."""
    engine = _engine(args)
    request = api.RecommendRequest(
        fit_budget=args.fit_budget,
        area_budget=args.area_budget,
        **_autotune_request_kwargs(args),
    )
    response = api.recommend(
        request, engine=engine, progress=_autotune_progress
    )
    if args.format == "json":
        return _emit_json(response)
    if args.format == "csv":
        return _emit_front_csv(response.autotune)
    budgets = []
    if args.fit_budget is not None:
        budgets.append(f"FIT ≤ {args.fit_budget:g} (95% upper bound)")
    if args.area_budget is not None:
        budgets.append(f"area ≤ {args.area_budget:g} KiB")
    print("budgets: " + ", ".join(budgets))
    rows = []
    for benchmark, choice in response.choices.items():
        doc = choice["point"]
        fit = doc["objectives"]["fit"]
        rows.append([
            benchmark,
            doc["label"],
            f"{doc['objectives']['area']['value']:.1f}",
            ("inf" if fit["hi"] is None
             else f"{fit['value']:.1f} (≤{fit['hi']:.1f})"),
        ])
    print(render_table(
        ["benchmark", "recommended point", "area KiB", "FIT"],
        rows,
        title="Recommended design points",
    ))
    print()
    _print_fronts(response.autotune)
    _print_sweep_stats(engine)
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived job service over the :mod:`repro.api` facade."""
    from repro.service import ReproService

    service = ReproService(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        workers=args.workers,
        jobs=args.jobs,
        replica_id=args.replica_id,
    )
    print(f"repro service on http://{service.host}:{service.port} "
          f"(data dir {service.data_dir}, {args.workers} workers, "
          f"replica {service.store.replica_id})")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.shutdown()
    return 0


def cmd_workers(args) -> int:
    """List the fabric worker registry of a running service."""
    import urllib.error

    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    try:
        doc = client.workers()
    except urllib.error.URLError as err:
        raise api.ReproError(
            f"cannot reach service at {args.url}: {err.reason}"
        ) from None
    rows = [
        (
            w["replica_id"],
            w["host"] or "-",
            str(w["pid"] or "-"),
            "alive" if w["alive"] else "stale",
            f"{w['last_heartbeat'] - w['started_at']:.0f}s",
        )
        for w in doc["workers"]
    ]
    return _render_rows(
        args, ["replica", "host", "pid", "state", "up"], rows,
        title=f"fabric workers ({args.url})", doc=doc,
    )


def cmd_trace(args) -> int:
    import itertools

    spec = get_benchmark(args.benchmark)
    stream = itertools.islice(
        make_ref_stream(spec, args.l2_bytes, seed=args.seed), args.n
    )
    count = save_trace(stream, args.out, fmt=args.format)
    summary = summarize_trace(load_trace(args.out))
    print(f"wrote {count} refs to {args.out} "
          f"(write ratio {summary.write_ratio:.2f}, "
          f"footprint {summary.footprint_bytes // 1024} KiB)")
    return 0


def cmd_stats(args) -> int:
    """Multi-seed spread of the key metrics, from registry snapshots."""
    from repro.experiments.pool import Cell
    from repro.experiments.stats import SeedStats, summarize

    config = RunConfig(n_refs=args.refs, warmup_refs=args.warmup,
                       seed=args.seed)
    request = api.RunRequest(
        benchmark=args.benchmark, interval=args.interval,
        ecc_entries=args.ecc_entries,
    )
    protection = request.protection_config()
    engine = _engine(args)
    cells = [
        Cell(args.benchmark, protection, replace(config, seed=seed))
        for seed in range(args.n_seeds)
    ]
    outs = engine.run_cells(cells)
    dirty = summarize([out.dirty_fraction for out in outs])
    traffic = summarize([out.writeback_fraction for out in outs])
    snapshots = [out.snapshot for out in outs if out.snapshot is not None]
    mean_snap = mean_snapshots(snapshots)

    doc = None
    if args.format == "json":
        def _stats_doc(s: SeedStats) -> Dict[str, object]:
            import math

            return {"mean": s.mean, "std": s.std,
                    "ci95": s.ci95 if math.isfinite(s.ci95) else None,
                    "values": list(s.values)}

        doc = {
            "benchmark": args.benchmark,
            "n_seeds": args.n_seeds,
            "metrics": {
                "dirty_fraction": _stats_doc(dirty),
                "writeback_fraction": _stats_doc(traffic),
            },
            "mean_snapshot": mean_snap,
            "snapshots": snapshots,
            "profile": engine.profiler.as_dict(),
        }

    rows = [
        ["dirty fraction", dirty.mean, dirty.std, dirty.ci95],
        ["writeback fraction", traffic.mean, traffic.std, traffic.ci95],
    ]
    ret = _render_rows(
        args, ["metric", "mean", "std", "95% CI"], rows, ndigits=4,
        title=f"{args.benchmark}: spread over {args.n_seeds} seeds",
        doc=doc,
    )
    if args.format == "table":
        if mean_snap:
            print()
            print(render_snapshot(
                mean_snap,
                title=f"registry counters (mean of {len(snapshots)} seeds)",
            ))
        _print_sweep_stats(engine)
    return ret


def cmd_ablate(args) -> int:
    """Run one ablation study and print its table."""
    engine = _engine(args)
    request = api.AblateRequest(
        study=args.study,
        benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
        refs=args.refs, warmup=args.warmup, seed=args.seed,
    )
    out = api.ablate(request, engine=engine)
    if out.headers is not None:
        print(render_table(
            list(out.headers),
            [list(row) for row in out.rows],
            title=f"ablation: {args.study}",
        ))
    else:
        print(render_series(out.series, title=f"ablation: {args.study}"))
    _print_sweep_stats(engine)
    return 0


def cmd_list(args) -> int:
    rows = [
        [s.name, s.suite, s.kind, f"{s.ws_factor:g}x L2", s.store_ratio]
        for s in BENCHMARKS.values()
    ]
    print(render_table(
        ["benchmark", "suite", "kind", "working set", "store ratio"],
        rows,
        title="Synthetic SPEC2000 suite",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.ecc import available_codecs
    from repro.reliability.scenarios import available_scenarios

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Area-Efficient Error Protection for "
                    "Caches' (DATE 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument("--fig", default="all", choices=list(api.FIGURE_CHOICES))
    p.add_argument("--ecc-area-entries", type=int, default=1)
    p.add_argument("--json", metavar="PATH",
                   help="regenerate everything and write one JSON document")
    p.add_argument("--no-ipc", action="store_true",
                   help="skip the (slow) IPC runs in --json mode")
    _add_run_args(p)
    _add_pool_args(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("run", help="one reference-mode run")
    p.add_argument("--benchmark", default="mesa",
                   choices=sorted(BENCHMARKS))
    p.add_argument("--trace", help="run a trace file instead of a benchmark")
    p.add_argument("--profile", action="store_true",
                   help="print per-phase wall-time accounting")
    _add_variant_arg(p)
    _add_protection_args(p)
    _add_run_args(p)
    _add_pool_args(p)
    _add_trace_args(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ipc", help="org-vs-ours IPC comparison")
    p.add_argument("--benchmark", default="mesa",
                   choices=sorted(BENCHMARKS))
    p.add_argument("--insts", type=int, default=120_000)
    _add_variant_arg(p)
    _add_protection_args(p)
    _add_run_args(p)
    _add_pool_args(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_ipc)

    p = sub.add_parser("area", help="Section 5.2 area accounting")
    p.add_argument("--ecc-area-entries", type=int, default=1)
    _add_format_arg(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("inject", help="codec fault-injection campaign")
    p.add_argument("--codec", choices=available_codecs(), default="secded")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--flips", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_trace_args(p)
    _add_format_arg(p)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser(
        "reliability",
        help="Monte Carlo fault-injection campaign across schemes",
    )
    p.add_argument(
        "--trials", type=_parse_trials, default="auto", metavar="N|auto",
        help="trials per scheme; 'auto' runs until the Wilson half-width "
             "target is met (default)",
    )
    p.add_argument(
        "--schemes", nargs="+", default=["uniform-ecc", "non-uniform"],
        choices=["uniform-ecc", "non-uniform", "parity-only"],
        help="protection schemes to compare",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--target", type=float, default=0.01, metavar="HW",
        help="Wilson 95%% half-width to reach on --metric (auto mode)",
    )
    p.add_argument(
        "--metric", default="sdc",
        choices=["masked", "corrected", "refetched", "due", "sdc",
                 "failure"],
        help="rate the stopping rule targets ('failure' = sdc + due)",
    )
    p.add_argument("--trials-per-shard", type=int, default=500)
    p.add_argument("--shards-per-round", type=int, default=8)
    # No argparse `choices`: validation lives in the facade
    # (api.ReliabilityRequest), so an unknown kernel exits 2 with the
    # same backend listing the HTTP service returns as a 400.
    p.add_argument(
        "--kernel", default="batch",
        help="shard execution kernel: 'batch' classifies each sampled "
             "error pattern through a memoised pattern classifier (~20x "
             "faster than 'reference', bit-identical results); "
             "'reference' builds a live LineProtection per trial; "
             "'vector' classifies "
             "whole trial blocks with numpy gathers (needs the [fast] "
             "extra; same distribution, not the same per-trial stream)",
    )
    p.add_argument("--max-trials", type=int, default=1_000_000,
                   help="hard per-scheme trial budget in auto mode")
    # Like --kernel, --scenario and --codec carry no argparse `choices`:
    # the facade rejects unknown names with the same enumerating error
    # the HTTP service returns as a 400.
    p.add_argument(
        "--scenario", default="nominal",
        help="correlated-fault scenario pack: "
             + ", ".join(available_scenarios())
             + " (burst/row-column strike mixtures and raw-BER "
             "scaling; see docs/reliability.md). 'nominal' reproduces "
             "the classic Bernoulli stream bit-identically",
    )
    p.add_argument(
        "--codec", default="secded",
        help="code in the ECC protection slot: "
             + ", ".join(available_codecs())
             + " (check-bit geometry and guarantees in docs/codecs.md)",
    )
    p.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="JSONL checkpoint: completed shards persist here and an "
             "interrupted campaign resumes from it",
    )
    p.add_argument(
        "--benchmark", default=None, choices=sorted(BENCHMARKS),
        help="measure per-scheme dirty fractions from this benchmark "
             "instead of using the paper's averages",
    )
    _add_variant_arg(p)
    p.add_argument(
        "--double-bit-fraction", type=float, default=0.05, metavar="P",
        help="P(a strike upsets two bits of one codeword) — the "
             "multi-bit tail interleaving suppresses",
    )
    p.add_argument("--raw-fit", type=float, default=1000.0,
                   help="raw SRAM strike rate, FIT per Mbit")
    p.add_argument("--n-lines", type=int, default=16384,
                   help="lines of the protected structure (paper L2)")
    # One --seed drives both the campaign and any --benchmark
    # measurement run, so only the remaining run flags are added here.
    p.add_argument("--refs", type=int, default=60_000,
                   help="measured references for --benchmark")
    p.add_argument("--warmup", type=int, default=20_000,
                   help="warm-up references for --benchmark")
    _add_pool_args(p)
    _add_trace_args(p)
    p.set_defaults(func=cmd_reliability)

    def _add_autotune_grid_args(p: argparse.ArgumentParser) -> None:
        """The grid/evaluation flags ``autotune`` and ``recommend`` share.

        Axis flags take several values (``--codecs secded dected``);
        like ``reliability``'s --kernel/--scenario/--codec, most carry
        no argparse `choices` — the facade rejects unknown names with
        the same enumerating error the HTTP service returns as a 400.
        """
        from repro.autotune import SCHEMES, available_objectives
        from repro.core.policy import available_variants

        g = p.add_argument_group("design grid axes")
        g.add_argument("--benchmarks", nargs="+", default=["mesa"],
                       choices=sorted(BENCHMARKS), metavar="NAME",
                       help="workloads to explore (a front per workload)")
        g.add_argument("--schemes", nargs="+",
                       default=["non-uniform", "uniform-ecc"],
                       help="protection schemes: " + ", ".join(SCHEMES))
        g.add_argument("--codecs", nargs="+", default=["secded", "dected"],
                       help="ECC codecs: " + ", ".join(available_codecs()))
        g.add_argument("--intervals", nargs="+", type=_parse_interval,
                       default=[262144, 1048576], metavar="CYCLES",
                       help="cleaning intervals, paper-nominal "
                            "(e.g. 256K 1M); applies to non-uniform "
                            "points only")
        g.add_argument("--ecc-entries", nargs="+", type=_parse_entries,
                       default=[1], metavar="N",
                       help="shared ECC entries per set (non-uniform only)")
        g.add_argument("--write-buffers", nargs="+", type=int,
                       default=[16], metavar="N",
                       help="write-buffer depths between L2 and memory")
        g.add_argument("--variants", nargs="+", default=["standard"],
                       help="policy variants: "
                            + ", ".join(available_variants())
                            + " (see docs/traffic.md for the "
                            "traffic-aware ones)")
        g.add_argument("--scenarios", nargs="+", default=["nominal"],
                       help="correlated-fault scenario packs: "
                            + ", ".join(available_scenarios()))
        p.add_argument(
            "--objectives", nargs="+", default=["area", "fit", "traffic"],
            help="objectives the front is computed over: "
                 + ", ".join(available_objectives())
                 + " (fit/mttf use Wilson intervals; dominance is "
                 "CI-aware)",
        )
        p.add_argument("--trials", type=int, default=2000,
                       help="fixed injection trials per design point")
        p.add_argument("--trials-per-shard", type=int, default=500)
        p.add_argument("--kernel", default="batch",
                       help="campaign kernel (batch, reference, vector)")
        p.add_argument("--insts", type=int, default=120_000,
                       help="CPU-mode instructions for the ipc objective")
        p.add_argument("--double-bit-fraction", type=float, default=0.05,
                       metavar="P")
        p.add_argument("--raw-fit", type=float, default=1000.0,
                       help="raw SRAM strike rate, FIT per Mbit")
        p.add_argument("--n-lines", type=int, default=16384,
                       help="lines of the protected structure (paper L2)")
        p.add_argument(
            "--checkpoint-dir", metavar="DIR", default=None,
            help="directory of per-point campaign checkpoints: an "
                 "interrupted sweep resumes mid-grid from it",
        )
        _add_run_args(p)
        _add_pool_args(p)
        p.add_argument(
            "--format", choices=["table", "json", "csv"], default="table",
            help="front tables (default), the facade's JSON document, "
                 "or one flat CSV row per design point",
        )

    p = sub.add_parser(
        "autotune",
        help="Pareto fronts over the scheme/codec/interval design grid",
    )
    _add_autotune_grid_args(p)
    p.set_defaults(func=cmd_autotune)

    p = sub.add_parser(
        "recommend",
        help="pick a Pareto-front design point under FIT/area budgets",
    )
    p.add_argument("--fit-budget", type=float, default=None, metavar="FIT",
                   help="total-FIT budget; judged against the Wilson 95%% "
                        "upper bound")
    p.add_argument("--area-budget", type=float, default=None, metavar="KIB",
                   help="protection-area budget in KiB")
    _add_autotune_grid_args(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser(
        "serve", help="serve facade requests as deduplicated jobs over HTTP"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument(
        "--data-dir", metavar="PATH", default=None,
        help="service state root: result cache and campaign checkpoints "
             "(default $REPRO_SERVICE_DIR or ~/.cache/repro-service)",
    )
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent job-executor threads")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes each job's sweep engine may use")
    p.add_argument(
        "--replica-id", metavar="ID", default=None,
        help="this replica's identity in the shared fabric (several "
             "replicas on one --data-dir cooperate on campaigns; "
             "default: a unique host-pid id)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "workers", help="list the fabric workers of a running service"
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL (default %(default)s)",
    )
    _add_format_arg(p)
    p.set_defaults(func=cmd_workers)

    p = sub.add_parser("trace", help="export a synthetic trace")
    p.add_argument("--benchmark", required=True, choices=sorted(BENCHMARKS))
    p.add_argument("--out", required=True)
    p.add_argument("-n", type=int, default=100_000)
    p.add_argument("--format", choices=["binary", "text"], default="binary")
    p.add_argument("--l2-bytes", type=int, default=64 * 1024)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("stats", help="multi-seed spread of key metrics")
    p.add_argument("--benchmark", default="mesa",
                   choices=sorted(BENCHMARKS))
    p.add_argument("--n-seeds", type=int, default=5)
    _add_format_arg(p)
    _add_protection_args(p)
    _add_run_args(p)
    _add_pool_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("ablate", help="run one ablation study")
    p.add_argument("study", choices=sorted(api.ABLATIONS))
    p.add_argument("--benchmarks", nargs="*", metavar="NAME",
                   help="restrict to these benchmarks")
    _add_run_args(p)
    _add_pool_args(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("list", help="list the benchmark suite")
    p.set_defaults(func=cmd_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except api.ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
