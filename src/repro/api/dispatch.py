"""Executors and the request-kind registry.

Every request kind the facade serves is one :func:`register_kind`
entry pairing a request dataclass with its executor — the CLI, the job
service and the tests all dispatch through :func:`execute`, so adding
a kind is one registration, not an if/elif edit in three layers.  The
registry also carries per-kind capabilities (does the executor take a
``SweepEngine``?  is it a long, abortable campaign?) that the job
service reads instead of hard-coding kind names.

:func:`request_key` gives every request a content-addressed identity
(folding in :func:`repro.experiments.pool.code_version`); plain
benchmark runs reuse the sweep cache's own
:func:`~repro.experiments.pool.cell_key`, so service-level dedupe and
the on-disk result cache agree about what "the same work" means.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.requests import (
    ABLATIONS,
    AblateRequest,
    AreaRequest,
    AutotuneRequest,
    FiguresRequest,
    InjectRequest,
    IpcRequest,
    RecommendRequest,
    ReliabilityRequest,
    ReproError,
    RunRequest,
    _as_dict,
    _enum_providers,
    _run_config,
)
from repro.api.responses import (
    AblateResponse,
    AreaResponse,
    AutotuneResponse,
    FigureSection,
    FiguresResponse,
    InjectResponse,
    IpcResponse,
    RecommendResponse,
    ReliabilityResponse,
    RunResponse,
)
from repro.experiments.pool import Cell, SweepEngine, cell_key, code_version
from repro.experiments.runner import RunConfig, interval_label

#: Wire-protocol version tag.  Every document the job service sends —
#: job, result, event, error — carries ``"schema": SCHEMA``, and
#: :class:`repro.service.client.ServiceClient` refuses anything else.
SCHEMA = "repro/v1"

#: Request kind -> (request class, executor).  The service's job types.
#: Populated by :func:`register_kind`; the tuple shape is public API.
KINDS: Dict[str, Tuple[type, Callable[..., Any]]] = {}

#: Kinds whose executor accepts an ``engine=`` SweepEngine kwarg.
ENGINE_KINDS: set = set()

#: Kinds that run as long, abortable campaigns (``progress=`` and
#: ``should_abort=`` kwargs).
CAMPAIGN_KINDS: set = set()

#: Kind -> kwargs producing a representative request, for kinds whose
#: zero-argument construction is invalid (e.g. recommend requires a
#: budget).  Consumed by :func:`default_doc` / ``GET /v1/kinds``.
EXAMPLE_KWARGS: Dict[str, dict] = {}


def register_kind(
    kind: str,
    request_cls: type,
    executor: Callable[..., Any],
    *,
    engine: bool = False,
    campaign: bool = False,
    example: dict = None,
) -> None:
    """Register one request kind with its executor and capabilities."""
    if kind in KINDS:
        raise ValueError(f"request kind {kind!r} already registered")
    KINDS[kind] = (request_cls, executor)
    if engine:
        ENGINE_KINDS.add(kind)
    if campaign:
        CAMPAIGN_KINDS.add(kind)
    if example is not None:
        EXAMPLE_KWARGS[kind] = dict(example)


def kind_enums(kind: str) -> Dict[str, List[str]]:
    """A kind's registry-backed fields and their valid values."""
    import dataclasses

    cls, _ = KINDS[kind]
    providers = _enum_providers()
    return {
        f.name: providers[f.name]
        for f in dataclasses.fields(cls)
        if f.name in providers
    }


def default_doc(kind: str) -> dict:
    """A kind's default (or minimal representative) request document.

    The document carries one extra, informational ``"enums"`` key
    mapping each registry-backed field to its valid values (from
    :func:`kind_enums`); strip it before POSTing the document back.
    """
    cls, _ = KINDS[kind]
    doc = cls(**EXAMPLE_KWARGS.get(kind, {})).as_dict()
    enums = kind_enums(kind)
    if enums:
        doc["enums"] = enums
    return doc


def execute(kind: str, request: Any, **kwargs: Any) -> Any:
    """Dispatch one request to its registered executor by kind name."""
    try:
        cls, func = KINDS[kind]
    except KeyError:
        raise ReproError(
            f"unknown request kind {kind!r}; known: {sorted(KINDS)}"
        ) from None
    if not isinstance(request, cls):
        raise ReproError(
            f"{kind} request must be {cls.__name__}, "
            f"got {type(request).__name__}"
        )
    return func(request, **kwargs)


def request_key(kind: str, request: Any) -> str:
    """Content-addressed identity of one request.

    A plain benchmark run *is* a sweep-cache cell, so its key is the
    cache's own :func:`~repro.experiments.pool.cell_key` — the service
    dedupes exactly where the on-disk result cache would hit.  Every
    other request hashes its canonical dict plus the source-tree
    version, so a code change never serves stale work.
    """
    if kind == "run" and isinstance(request, RunRequest) and not request.trace:
        return cell_key(
            Cell(
                request.benchmark,
                request.protection_config(),
                request.run_config(),
                variant=request.variant,
            )
        )
    payload = {
        "kind": kind,
        "request": _as_dict(request),
        "code": code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _engine(engine: Optional[SweepEngine]) -> SweepEngine:
    return engine if engine is not None else SweepEngine()


# -- run ----------------------------------------------------------------------


def run(
    request: RunRequest,
    engine: Optional[SweepEngine] = None,
    tracer=None,
    profiler=None,
) -> RunResponse:
    """Execute one reference-mode run.

    ``tracer`` forces a live (uncached) simulation, since event traces
    cannot come out of the result cache.
    """
    from repro.experiments.runner import run_refs, run_trace
    from repro.workloads import load_trace

    config = request.run_config()
    protection = request.protection_config()
    if request.trace:
        path = Path(request.trace)
        if not path.exists():
            raise ReproError(f"trace file not found: {request.trace}")
        try:
            stream = load_trace(path)
        except (OSError, ValueError) as err:
            raise ReproError(
                f"unreadable trace {request.trace}: {err}"
            ) from None
        out = run_trace(
            stream, protection, config, label=request.trace,
            tracer=tracer, profiler=profiler, variant=request.variant,
        )
    elif tracer is not None:
        out = run_refs(
            request.benchmark, protection, config,
            tracer=tracer, profiler=profiler, variant=request.variant,
        )
    else:
        eng = _engine(engine)
        mark = eng.profiler.mark()
        out = eng.run_refs(
            request.benchmark, protection, config, variant=request.variant,
        )
        if profiler is not None:
            profiler.merge(eng.profiler, since=mark)

    label = None
    if protection is not None and protection.cleaning_interval is not None:
        geometry = config.geometry
        label = (
            f"{interval_label(protection.cleaning_interval)} "
            f"({geometry.scaled_interval(protection.cleaning_interval)} "
            f"scaled cycles)"
        )
    return RunResponse(
        request=request,
        benchmark=out.benchmark,
        cleaning_interval=label,
        refs=out.refs,
        cycles=out.cycles,
        dirty_fraction=out.dirty_fraction,
        peak_dirty_fraction=out.peak_dirty_fraction,
        writeback_fraction=out.writeback_fraction,
        writeback_split=dict(out.writeback_split),
        l2_miss_rate=out.l2_miss_rate,
        bus_utilization=out.bus_utilization,
        silent_writes=out.silent_writes,
        elided_ecc_updates=out.elided_ecc_updates,
        wb_bytes_raw=out.wb_bytes_raw,
        wb_bytes_compressed=out.wb_bytes_compressed,
    )


# -- ipc ----------------------------------------------------------------------


def ipc(
    request: IpcRequest,
    engine: Optional[SweepEngine] = None,
    profiler=None,
) -> IpcResponse:
    """Run the paired org/ours CPU-mode comparison.

    Both machines go to the engine in one call, so they replay one
    recorded front end.  ``profiler`` (opt-in) receives the phases
    this call added to the engine's, the core's record and per-machine
    replay among them when the pair was simulated rather than served
    from the cache.
    """
    config = RunConfig(seed=request.seed)
    eng = _engine(engine)
    mark = eng.profiler.mark()
    org, ours = eng.run_cells([
        Cell(
            request.benchmark, None, config, mode="ipc",
            n_insts=request.insts,
        ),
        Cell(
            request.benchmark, request.protection_config(), config,
            mode="ipc", n_insts=request.insts, variant=request.variant,
        ),
    ])
    if profiler is not None:
        profiler.merge(eng.profiler, since=mark)
    loss = 100 * (org.ipc - ours.ipc) / org.ipc if org.ipc else 0.0
    return IpcResponse(
        request=request,
        benchmark=request.benchmark,
        insts=request.insts,
        org_ipc=org.ipc,
        ours_ipc=ours.ipc,
        org_cycles=org.result.cycles,
        ours_cycles=ours.result.cycles,
        org_writeback_fraction=org.writeback_fraction,
        ours_writeback_fraction=ours.writeback_fraction,
        ipc_loss_pct=loss,
        org_energy_uj=org.energy_uj,
        ours_energy_uj=ours.energy_uj,
        silent_writes=ours.silent_writes,
        elided_ecc_updates=ours.elided_ecc_updates,
        wb_bytes_raw=ours.wb_bytes_raw,
        wb_bytes_compressed=ours.wb_bytes_compressed,
    )


# -- area ---------------------------------------------------------------------


def area(request: AreaRequest = AreaRequest()) -> AreaResponse:
    from repro.experiments import area_table

    conv, ours, red = area_table(ecc_entries_per_set=request.ecc_entries)
    return AreaResponse(
        request=request,
        conventional=tuple((name, kib) for name, _, kib in conv.rows()),
        proposed=tuple((name, kib) for name, _, kib in ours.rows()),
        reduction=red,
    )


# -- inject -------------------------------------------------------------------


def inject(request: InjectRequest, tracer=None) -> InjectResponse:
    from repro.ecc import FaultInjector, get_codec

    injector = FaultInjector(
        get_codec(request.codec), seed=request.seed, tracer=tracer
    )
    stats = injector.campaign(request.trials, request.flips)
    outcomes = {
        outcome.value: {"count": n, "rate": n / stats.trials}
        for outcome, n in sorted(
            stats.by_outcome.items(), key=lambda kv: kv[0].value
        )
    }
    return InjectResponse(
        request=request, trials=stats.trials, outcomes=outcomes
    )


# -- figures ------------------------------------------------------------------


def figures(
    request: FiguresRequest, engine: Optional[SweepEngine] = None
) -> FiguresResponse:
    """Regenerate the requested figures as structured sections.

    The one figure orchestrator: which sweeps to run, how to title
    them, which suites feed which figure.  ``repro figures`` renders
    the sections as tables, ``repro figures --json`` writes
    ``as_dict()`` of the response, and the service returns the same
    document; ``scripts/check_claims.py`` checks the paper's claims
    against its committed bench-size copy.
    """
    from repro.experiments import (
        figure1,
        figure3_4,
        figure5_6,
        figure7,
        figure8,
        ipc_loss,
        reference_grid,
        table1,
    )

    wanted = request.fig
    config = _run_config(request)
    eng = _engine(engine)
    sections: List[FigureSection] = []

    if wanted in ("all", "table1"):
        sections.append(
            FigureSection(
                title="Table 1: baseline configuration", text=table1()
            )
        )
    # Each cell is simulated once: with every figure wanted, Figure 1
    # reads the sweeps' 'org' runs; Figures 7 and 8 share one grid.
    suites = {
        "all": ("fp", "int"), "3": ("fp",), "5": ("fp",), "4": ("int",),
        "6": ("int",),
    }.get(wanted, ())
    want_full = wanted in ("all", "7", "8")
    sweeps: Dict[str, Dict[str, Any]] = {}
    full = None
    if suites or want_full:
        sweeps, full = reference_grid(
            config, eng, suites=suites, full=want_full
        )
    if wanted in ("all", "1"):
        f1 = figure1(
            config, engine=eng,
            sweep={**sweeps["fp"], **sweeps["int"]} if sweeps else None,
        )
        sections.append(FigureSection(
            title="Figure 1: % dirty lines (conventional)",
            series={k: {"dirty %": v} for k, v in f1.items()},
        ))
    for suite, sweep in sweeps.items():
        if wanted in ("all", "3", "4"):
            fig = "3" if suite == "fp" else "4"
            sections.append(FigureSection(
                title=f"Figure {fig}: dirty % vs interval ({suite})",
                series=figure3_4(suite, config, sweep=sweep),
            ))
        if wanted in ("all", "5", "6"):
            fig = "5" if suite == "fp" else "6"
            sections.append(FigureSection(
                title=f"Figure {fig}: writeback % vs interval ({suite})",
                series=figure5_6(suite, config, sweep=sweep),
            ))
    if wanted in ("all", "7"):
        f7 = figure7(config, full=full)
        sections.append(FigureSection(
            title="Figure 7: % dirty lines (full scheme)",
            series={k: {"dirty %": v} for k, v in f7.items()},
        ))
    if wanted in ("all", "8"):
        sections.append(FigureSection(
            title="Figure 8: writeback split (full scheme)",
            series=figure8(config, full=full),
        ))
    if wanted in ("all", "ipc"):
        rows: Dict[str, Dict[str, float]] = {}
        for suite in ("fp", "int"):
            rows.update(ipc_loss(
                config, suite=suite, n_insts=request.refs * 2, engine=eng
            ))
        sections.append(FigureSection(
            title="IPC: org vs ours", series=rows, ndigits=3
        ))
    if wanted in ("all", "area"):
        sections.append(FigureSection(
            title="Protection area, 1MB 4-way 64B L2",
            area=area(AreaRequest(ecc_entries=request.ecc_area_entries)),
        ))
    return FiguresResponse(request=request, sections=tuple(sections))


# -- ablate -------------------------------------------------------------------


def ablate(
    request: AblateRequest, engine: Optional[SweepEngine] = None
) -> AblateResponse:
    import inspect

    import repro.experiments as experiments

    func = getattr(experiments, ABLATIONS[request.study])
    kwargs: Dict[str, Any] = {"config": _run_config(request)}
    if request.benchmarks:
        kwargs["benchmarks"] = list(request.benchmarks)
    if "engine" in inspect.signature(func).parameters:
        kwargs["engine"] = _engine(engine)
    result = func(**kwargs)
    if request.study == "ecc-entries":
        return AblateResponse(
            request=request,
            study=request.study,
            headers=(
                "entries/set", "area KiB", "dirty %", "ECC-WB %",
                "total WB %",
            ),
            rows=tuple(
                (p.entries_per_set, p.area_kib, p.dirty_pct, p.ecc_wb_pct,
                 p.total_wb_pct)
                for p in result
            ),
        )
    return AblateResponse(
        request=request, study=request.study, series=result
    )


# -- reliability --------------------------------------------------------------


def reliability(
    request: ReliabilityRequest,
    engine: Optional[SweepEngine] = None,
    tracer=None,
    registry=None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    checkpoint=None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> ReliabilityResponse:
    """Run (or resume) a campaign.

    ``checkpoint`` is the campaign's shard store and overrides
    ``request.checkpoint``: a JSONL path, or a store object such as the
    :class:`repro.service.fabric.ShardCoordinator` the service passes
    so its replicas lease disjoint shards of this one campaign from
    ``fabric.db`` (see :class:`repro.reliability.CampaignEngine`).
    ``progress`` receives round-level event dicts from the engine;
    ``should_abort`` is polled on every round-loop iteration to cancel
    cooperatively.
    """
    from repro.experiments.reliability import measured_dirty_fractions
    from repro.reliability import CampaignEngine, CheckpointError

    eng = _engine(engine)
    dirty_fractions = None
    if request.benchmark:
        dirty_fractions = measured_dirty_fractions(
            request.benchmark, _run_config(request), engine=eng,
            variant=request.variant,
        )
        if progress is not None:
            progress({
                "type": "dirty-fractions",
                "benchmark": request.benchmark,
                "dirty_fractions": dict(dirty_fractions),
            })

    campaign = request.campaign_config(dirty_fractions)
    try:
        result = CampaignEngine(
            campaign,
            engine=eng,
            checkpoint=checkpoint or request.checkpoint,
            tracer=tracer,
            registry=registry,
            progress=progress,
            should_abort=should_abort,
        ).run()
    except CheckpointError as err:
        raise ReproError(str(err)) from None
    return ReliabilityResponse(
        request=request,
        dirty_fractions=(
            dict(dirty_fractions) if dirty_fractions is not None else None
        ),
        result=result,
        resumed_shards=result.resumed_shards,
        executed_shards=result.executed_shards,
        remote_shards=result.remote_shards,
    )


# -- autotune -----------------------------------------------------------------


def autotune(
    request: AutotuneRequest,
    engine: Optional[SweepEngine] = None,
    tracer=None,
    registry=None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> AutotuneResponse:
    """Explore the design grid and compute per-benchmark Pareto fronts.

    The unit of work and of resumption is a whole design point, stored
    in the engine's result cache: ``should_abort`` is polled between
    point batches, completed points stay cached, and a rerun executes
    only the missing ones.
    """
    from repro.autotune import (
        PointTask,
        expand_grid,
        explore,
        pareto_front,
        resolve_objectives,
    )

    del tracer, registry  # unused; uniform executor surface
    eng = _engine(engine)
    points = expand_grid(
        request.benchmarks,
        request.schemes,
        request.codecs,
        request.intervals,
        request.ecc_entries,
        request.write_buffers,
        request.variants,
        request.scenarios,
    )
    specs = resolve_objectives(request.objectives)
    tasks = [
        PointTask(
            point=point,
            trials=request.trials,
            trials_per_shard=request.trials_per_shard,
            kernel=request.kernel,
            seed=request.seed,
            refs=request.refs,
            warmup=request.warmup,
            insts=request.insts,
            double_bit_fraction=request.double_bit_fraction,
            raw_fit=request.raw_fit,
            n_lines=request.n_lines,
            measure_ipc="ipc" in request.objectives,
        )
        for point in points
    ]
    metrics, executed, cached = explore(
        tasks,
        engine=eng,
        progress=progress,
        should_abort=should_abort,
    )

    intervals = [
        {spec.name: spec.interval(m) for spec in specs} for m in metrics
    ]
    fronts: Dict[str, Tuple[int, ...]] = {}
    on_front = set()
    for benchmark in request.benchmarks:
        indices = [
            i for i, m in enumerate(metrics)
            if m.point.benchmark == benchmark
        ]
        local = pareto_front(
            [intervals[i] for i in indices], list(request.objectives)
        )
        fronts[benchmark] = tuple(indices[i] for i in local)
        on_front.update(fronts[benchmark])

    docs = tuple(
        {
            **m.point.describe(),
            "label": m.point.label,
            "trials": m.trials,
            "dirty_pct": m.dirty_pct,
            "objectives": m.objective_doc(specs),
            "on_front": i in on_front,
        }
        for i, m in enumerate(metrics)
    )
    return AutotuneResponse(
        request=request,
        objectives=tuple(request.objectives),
        points=docs,
        fronts=fronts,
        executed=executed,
        cached=cached,
        metrics=tuple(metrics),
    )


# -- recommend ----------------------------------------------------------------


def recommend(
    request: RecommendRequest,
    engine: Optional[SweepEngine] = None,
    tracer=None,
    registry=None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> RecommendResponse:
    """Explore the grid, then pick a budget-feasible front point.

    Per benchmark: the front point with minimum area among those whose
    FIT Wilson 95% upper bound clears ``fit_budget`` and whose storage
    clears ``area_budget`` (:mod:`repro.autotune.recommend`).  Any
    benchmark without a feasible point raises :class:`ReproError`
    quoting the best achievable numbers.
    """
    from repro.autotune import recommend as select

    response = autotune(
        request,
        engine=engine,
        tracer=tracer,
        registry=registry,
        progress=progress,
        should_abort=should_abort,
    )
    choices: Dict[str, Dict[str, Any]] = {}
    infeasible = []
    for benchmark in request.benchmarks:
        chosen, best = select(
            response.metrics,
            response.fronts[benchmark],
            fit_budget=request.fit_budget,
            area_budget=request.area_budget,
        )
        if chosen is None:
            infeasible.append(
                f"{benchmark}: best achievable FIT (95% upper bound) "
                f"{best.get('min_fit_hi', float('nan')):.1f}, "
                f"smallest area {best.get('min_area_kib', float('nan')):.1f}"
                " KiB"
            )
            continue
        choices[benchmark] = {
            "index": chosen,
            "point": dict(response.points[chosen]),
            "fit_budget": request.fit_budget,
            "area_budget": request.area_budget,
        }
    if infeasible:
        raise ReproError(
            "no design point satisfies the stated budgets — "
            + "; ".join(infeasible)
        )
    return RecommendResponse(
        request=request, autotune=response, choices=choices
    )


# -- the registry -------------------------------------------------------------

register_kind("run", RunRequest, run, engine=True)
register_kind("ipc", IpcRequest, ipc, engine=True)
register_kind("area", AreaRequest, area)
register_kind("inject", InjectRequest, inject)
register_kind("figures", FiguresRequest, figures, engine=True)
register_kind("ablate", AblateRequest, ablate, engine=True)
register_kind(
    "reliability", ReliabilityRequest, reliability, engine=True,
    campaign=True,
)
# campaign=True gives autotune/recommend the service's progress stream
# and cooperative-abort hook.
register_kind(
    "autotune", AutotuneRequest, autotune, engine=True, campaign=True,
)
register_kind(
    "recommend", RecommendRequest, recommend, engine=True, campaign=True,
    example={"fit_budget": 1000.0},
)


__all__ = [
    "CAMPAIGN_KINDS",
    "ENGINE_KINDS",
    "EXAMPLE_KWARGS",
    "KINDS",
    "SCHEMA",
    "ablate",
    "area",
    "autotune",
    "default_doc",
    "execute",
    "figures",
    "inject",
    "ipc",
    "kind_enums",
    "recommend",
    "register_kind",
    "reliability",
    "request_key",
    "run",
]
