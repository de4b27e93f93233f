"""Command-line interface: ``python -m repro <command>``.

The CLI is a thin rendering shell over :mod:`repro.api`: every command
builds a frozen request dataclass, hands it to the facade, and renders
the returned result dataclass — as a table by default, or verbatim as
JSON under ``--format json``.  Invalid inputs surface as
:class:`repro.api.ReproError` and exit with status 2; the same facade
calls (and the same result documents) are served over HTTP by
``repro serve`` (:mod:`repro.service`).

A kind verb's request flags are not declared here: they are derived
from the fields of its request dataclass (:func:`_add_request_args` —
name, default, type hint, and the help/grammar in the field's
metadata), and the parsed flags become the request in one call
(:func:`_request`).  Only the flags that are not request fields — the
pool, ``--format``, tracing, ``--profile``, ``figures --json`` —
and the ``serve``/``workers``/``trace``/``stats``/``list`` verbs are
written out by hand.

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
import dataclasses
import json
import sys
import typing
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro import api
from repro.experiments import render_series, render_table
from repro.experiments.pool import StoreError
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


#: A request field's metadata ``grammar`` -> the parser of its flag.
_GRAMMARS: Dict[str, Callable[[str], Optional[int]]] = {
    "interval": _parse_interval,
    "entries": _parse_entries,
    "trials": _parse_trials,
}


def _flag_name(field: dataclasses.Field) -> str:
    return field.metadata.get("flag") or "--" + field.name.replace("_", "-")


def _dest(field: dataclasses.Field) -> str:
    """The argparse ``dest`` a request field's value is parsed into."""
    if field.metadata.get("positional"):
        return field.name
    return _flag_name(field)[2:].replace("-", "_")


def _add_request_args(
    parser: argparse.ArgumentParser, cls: type, skip: Sequence[str] = ()
) -> None:
    """One argument per field of the request class ``cls``.

    The flag is ``--<field-name>`` and its default the field's; the
    type comes from the type hint (``Optional`` unwraps; a tuple takes
    several values, ``nargs='*'`` when the field may be None) unless
    the metadata names a ``grammar``.  Help, ``metavar``, ``choices``
    and the rest come from the metadata (:func:`repro.api.requests._flag`).
    """
    from repro.api.requests import _enum_providers

    hints = typing.get_type_hints(cls)
    groups: Dict[str, argparse._ArgumentGroup] = {}
    for field in dataclasses.fields(cls):
        if field.name in skip:
            continue
        meta = field.metadata
        hint = hints[field.name]
        optional = type(None) in typing.get_args(hint)
        if optional:
            [hint] = [a for a in typing.get_args(hint) if a is not type(None)]
        kwargs: Dict[str, object] = {"help": meta.get("help")}
        if typing.get_origin(hint) is tuple:
            kwargs["nargs"] = "*" if optional else "+"
            hint = typing.get_args(hint)[0]
        parse = _GRAMMARS.get(meta.get("grammar"), hint)
        if parse is not str:
            kwargs["type"] = parse
        if "{enum}" in (kwargs["help"] or ""):
            values = _enum_providers()[field.name]
            kwargs["help"] = meta["help"].format(enum=", ".join(values))
        choices = meta.get("choices")
        if choices is not None:
            kwargs["choices"] = list(
                choices() if callable(choices) else choices
            )
        if "metavar" in meta:
            kwargs["metavar"] = meta["metavar"]
        target = parser
        if "group" in meta:
            if meta["group"] not in groups:
                groups[meta["group"]] = parser.add_argument_group(
                    meta["group"]
                )
            target = groups[meta["group"]]
        if meta.get("positional"):
            target.add_argument(field.name, **kwargs)
            continue
        default = field.default
        kwargs["default"] = (
            list(default) if isinstance(default, tuple) else default
        )
        target.add_argument(_flag_name(field), **kwargs)


def _request(args, cls: type, skip: Sequence[str] = ()):
    """The ``cls`` request the parsed flags describe (validated by it)."""
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name in skip:
            continue
        value = getattr(args, _dest(field))
        if isinstance(value, list):
            value = tuple(value) or None  # nargs='*' given no values
        kwargs[field.name] = value
    return cls(**kwargs)


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


def _json(response) -> str:
    """The facade result document as the CLI writes it."""
    return json.dumps(response.as_dict(), indent=2, sort_keys=True)


def _emit_json(response) -> int:
    """``--format json``: the facade result document, nothing else."""
    print(_json(response))
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


def _add_front_format_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["table", "json", "csv"], default="table",
        help="front tables (default), the facade's JSON document, "
             "or one flat CSV row per design point",
    )


def _add_figures_json_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", metavar="PATH",
                        help="write the figures result document (the "
                             "service's, for the same request) to PATH "
                             "instead of printing tables")


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", action="store_true",
                        help="print per-phase wall-time accounting")


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
    request = _request(args, api.FiguresRequest)
    engine = _engine(args)
    response = api.figures(request, engine=engine)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as out:
                out.write(_json(response) + "\n")
        except OSError as err:
            raise api.ReproError(
                f"cannot write {args.json}: {err.strerror}"
            ) from err
        print(f"wrote {args.json}")
        _print_sweep_stats(engine)
        return 0
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
    request = _request(args, api.RunRequest)
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
    request = _request(args, api.IpcRequest)
    engine = _engine(args)
    profiler = PhaseProfiler()
    out = api.ipc(request, engine=engine, profiler=profiler)
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
        print(engine.stats.summary())
        if args.profile:
            print(profiler.summary())
    return ret


def cmd_area(args) -> int:
    response = api.area(_request(args, api.AreaRequest))
    return _render_rows(
        args, ["component", "KiB"], _area_rows(response),
        title="Protection area, 1MB 4-way 64B L2", response=response,
    )


def cmd_inject(args) -> int:
    request = _request(args, api.InjectRequest)
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


def cmd_reliability(args) -> int:
    """Run (or resume) a Monte Carlo fault-injection campaign."""
    request = _request(args, api.ReliabilityRequest)
    engine = _engine(args)
    tracer = _make_tracer(args)

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
        # Checkpoint mismatches keep their historical SystemExit
        # contract (message, no traceback).
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
    request = _request(args, api.AutotuneRequest)
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
    request = _request(args, api.RecommendRequest)
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

    if args.n < 0:
        raise api.ReproError("-n must be non-negative")
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

    request = _request(args, api.RunRequest, skip=_STATS_SKIP)
    if args.n_seeds < 1:
        raise api.ReproError("--n-seeds must be >= 1")
    config = request.run_config()
    protection = request.protection_config()
    engine = _engine(args)
    cells = [
        Cell(request.benchmark, protection, replace(config, seed=seed))
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
    request = _request(args, api.AblateRequest)
    engine = _engine(args)
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


#: ``stats`` takes the run flags of :class:`repro.api.RunRequest` except
#: these (it always simulates a benchmark under the standard policy).
_STATS_SKIP = ("trace", "variant")

#: Kind verb -> (help line, command, adders of its hand-written flags).
#: The verb's request flags come from its :data:`repro.api.KINDS` class.
_KIND_VERBS = {
    "figures": ("regenerate the paper's figures", cmd_figures,
                (_add_figures_json_args, _add_pool_args)),
    "run": ("one reference-mode run", cmd_run,
            (_add_profile_arg, _add_pool_args, _add_trace_args,
             _add_format_arg)),
    "ipc": ("org-vs-ours IPC comparison", cmd_ipc,
            (_add_profile_arg, _add_pool_args, _add_format_arg)),
    "area": ("Section 5.2 area accounting", cmd_area, (_add_format_arg,)),
    "inject": ("codec fault-injection campaign", cmd_inject,
               (_add_trace_args, _add_format_arg)),
    "reliability": ("Monte Carlo fault-injection campaign across schemes",
                    cmd_reliability, (_add_pool_args, _add_trace_args)),
    "autotune": ("Pareto fronts over the scheme/codec/interval design grid",
                 cmd_autotune, (_add_pool_args, _add_front_format_arg)),
    "recommend": ("pick a Pareto-front design point under FIT/area budgets",
                  cmd_recommend, (_add_pool_args, _add_front_format_arg)),
    "ablate": ("run one ablation study", cmd_ablate, (_add_pool_args,)),
}


class _Parser(argparse.ArgumentParser):
    """A bad or removed flag is one ``error:`` line and exit status 2,
    like a bad value (the subcommand parsers inherit the class)."""

    def error(self, message: str) -> typing.NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Reproduction of 'Area-Efficient Error Protection for "
                    "Caches' (DATE 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for verb, (help_line, func, extras) in _KIND_VERBS.items():
        p = sub.add_parser(verb, help=help_line)
        _add_request_args(p, api.KINDS[verb][0])
        for add in extras:
            add(p)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "serve", help="serve facade requests as deduplicated jobs over HTTP"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument(
        "--data-dir", metavar="PATH", default=None,
        help="service state root: result cache and fabric.db "
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
    _add_request_args(p, api.RunRequest, skip=_STATS_SKIP)
    p.add_argument("--n-seeds", type=int, default=5)
    _add_format_arg(p)
    _add_pool_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("list", help="list the benchmark suite")
    p.set_defaults(func=cmd_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (api.ReproError, StoreError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
