"""Design-grid expansion and point evaluation for the autotuner.

A **design point** is one coordinate of the paper's co-design space:
scheme × codec × cleaning interval × shared-ECC ways × write-buffer
depth × policy variant × fault scenario, measured on one benchmark.
Evaluating a point runs

1. a reference-mode simulation (the sweep :class:`~repro.experiments.pool.Cell`
   machinery, including ablation-variant L2s) for dirty residency,
   write traffic and the hierarchy counters the energy model reads;
2. a fixed-trials Monte Carlo campaign
   (:class:`~repro.reliability.CampaignEngine`) under the measured
   dirty fraction, the point's scenario pack and its ECC codec, for
   FIT/MTTF with Wilson intervals;
3. the area model (:mod:`repro.core.area`) at the FIT conversion's own
   cache geometry, and optionally a CPU-mode run for IPC.

:func:`evaluate_point` is a module-level pure function of its
:class:`PointTask`, so :meth:`~repro.experiments.pool.SweepEngine.map_tasks`
can fan points across worker processes — results are bit-identical at
any ``--jobs`` value.  :func:`explore` adds point-level content
addressing on top of the engine's :class:`~repro.experiments.pool.ResultCache`
(the same store the figure sweeps share), which is what makes an
interrupted grid resumable and a repeated grid a warm-cache no-op.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.autotune.pareto import ObjectiveSpec
from repro.experiments.pool import (
    Cell,
    SweepEngine,
    code_version,
    execute_cell,
)
from repro.experiments.runner import (
    RunConfig,
    SCALED_GEOMETRY,
    interval_label,
)

#: Campaign schemes the grid may sweep.  ``non-uniform`` is the paper's
#: design (and the only scheme the interval/ways/variant axes apply to);
#: the other two are the baselines it is traded against.
SCHEMES: Tuple[str, ...] = ("non-uniform", "uniform-ecc", "parity-only")


@dataclass(frozen=True)
class DesignPoint:
    """One coordinate of the design grid, in canonical form.

    Axes that do not apply to a scheme are collapsed to their canonical
    value by :func:`expand_grid` (e.g. a ``uniform-ecc`` point carries
    no cleaning interval), so two spellings of the same design share
    one cache entry and appear once per front.
    """

    benchmark: str
    scheme: str
    codec: str
    #: Cleaning interval in paper-nominal cycles (non-uniform only).
    interval: Optional[int]
    #: Shared ECC entries per set (non-uniform only).
    ecc_entries: Optional[int]
    #: Write-buffer entries between the L1D and the L2.
    write_buffer: int
    #: Policy variant (:func:`repro.core.policy.available_variants`).
    variant: str
    #: Correlated-fault scenario pack.
    scenario: str

    @property
    def label(self) -> str:
        parts = [self.scheme, self.codec]
        if self.interval is not None:
            parts.append(interval_label(self.interval))
        if self.ecc_entries is not None and self.ecc_entries != 1:
            parts.append(f"e{self.ecc_entries}")
        if self.write_buffer != 16:
            parts.append(f"wb{self.write_buffer}")
        if self.variant != "standard":
            parts.append(self.variant)
        if self.scenario != "nominal":
            parts.append(self.scenario)
        return "/".join(parts)

    def describe(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "codec": self.codec,
            "interval": self.interval,
            "ecc_entries": self.ecc_entries,
            "write_buffer": self.write_buffer,
            "variant": self.variant,
            "scenario": self.scenario,
        }


@dataclass(frozen=True)
class PointTask:
    """Everything one point's evaluation depends on (picklable)."""

    point: DesignPoint
    trials: int
    trials_per_shard: int
    kernel: str
    seed: int
    refs: int
    warmup: int
    insts: int
    double_bit_fraction: float
    raw_fit: float
    n_lines: int
    measure_ipc: bool

    def describe(self) -> Dict[str, Any]:
        """Canonical cache-key payload."""
        return {
            "point": self.point.describe(),
            "trials": self.trials,
            "trials_per_shard": self.trials_per_shard,
            "kernel": self.kernel,
            "seed": self.seed,
            "refs": self.refs,
            "warmup": self.warmup,
            "insts": self.insts,
            "double_bit_fraction": self.double_bit_fraction,
            "raw_fit": self.raw_fit,
            "n_lines": self.n_lines,
            "measure_ipc": self.measure_ipc,
        }


@dataclass(frozen=True)
class PointMetrics:
    """Every objective measurement of one evaluated design point."""

    point: DesignPoint
    #: Protection storage at the FIT conversion's cache geometry.
    area_kib: float
    #: Total failure FIT (SDC + DUE), ``(value, lo, hi)`` Wilson 95%.
    fit: Tuple[float, float, float]
    #: ``(value, lo, hi)``; ``inf`` when no failures were observed.
    mttf_hours: Tuple[float, float, float]
    #: Memory-system energy of the measured window.
    energy_uj: float
    #: None unless the task asked for the (slow) CPU-mode run.
    ipc: Optional[float]
    #: Write-backs as % of loads/stores.
    traffic_pct: float
    #: Average dirty residency, %.
    dirty_pct: float
    trials: int

    def objective_doc(
        self, specs: Sequence[ObjectiveSpec]
    ) -> Dict[str, Dict[str, Optional[float]]]:
        """Raw (un-negated) per-objective values with bounds, JSON-able."""
        doc: Dict[str, Dict[str, Optional[float]]] = {}
        for spec in specs:
            raw = getattr(self, spec.attr)
            if spec.stochastic:
                value, lo, hi = raw
            else:
                value = lo = hi = float(raw)
            doc[spec.name] = {
                "value": _finite(value),
                "lo": _finite(lo),
                "hi": _finite(hi),
            }
        return doc


def _finite(x: float) -> Optional[float]:
    """JSON-able float: ``inf``/NaN (e.g. MTTF with 0 failures) → None."""
    return x if x == x and abs(x) != float("inf") else None


def point_key(task: PointTask, version: Optional[str] = None) -> str:
    """Content-addressed identity of one point evaluation.

    Same digest family as :func:`repro.experiments.pool.cell_key` —
    SHA-256 of the canonical JSON payload plus the source-tree version
    — but in its own ``autotune-point`` namespace, so autotune entries
    and sweep cells can share one :class:`ResultCache` directory
    without key collisions.
    """
    payload = {
        "autotune-point": task.describe(),
        "code": version if version is not None else code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def expand_grid(
    benchmarks: Sequence[str],
    schemes: Sequence[str],
    codecs: Sequence[str],
    intervals: Sequence[int],
    ecc_entries: Sequence[int],
    write_buffers: Sequence[int],
    variants: Sequence[str],
    scenarios: Sequence[str],
) -> List[DesignPoint]:
    """The canonical, de-duplicated cross product of the grid axes.

    Canonicalization rules (applied before de-duplication, preserving
    first-seen order):

    * ``uniform-ecc`` / ``parity-only`` have no cleaning interval, no
      shared-ECC ways and no policy variant — those axes collapse;
      ``parity-only`` additionally has no ECC slot, so its codec axis
      collapses to ``secded`` (the value is unused).
    * variants whose registry spec sets ``collapses_interval`` (e.g.
      ``eager``, which replaces periodic cleaning with eager
      write-backs) have their interval axis collapsed.
    """
    points: List[DesignPoint] = []
    seen = set()
    for benchmark in benchmarks:
        for scheme in schemes:
            for codec in codecs:
                for interval in intervals:
                    for entries in ecc_entries:
                        for wb in write_buffers:
                            for variant in variants:
                                for scenario in scenarios:
                                    point = _canonical(
                                        benchmark, scheme, codec,
                                        interval, entries, wb, variant,
                                        scenario,
                                    )
                                    if point not in seen:
                                        seen.add(point)
                                        points.append(point)
    return points


def _canonical(
    benchmark: str,
    scheme: str,
    codec: str,
    interval: Optional[int],
    entries: Optional[int],
    write_buffer: int,
    variant: str,
    scenario: str,
) -> DesignPoint:
    from repro.core.policy import get_variant

    if scheme != "non-uniform":
        interval, entries, variant = None, None, "standard"
        if scheme == "parity-only":
            codec = "secded"
    elif get_variant(variant).collapses_interval:
        interval = None
    return DesignPoint(
        benchmark=benchmark,
        scheme=scheme,
        codec=codec,
        interval=interval,
        ecc_entries=entries,
        write_buffer=write_buffer,
        variant=variant,
        scenario=scenario,
    )


# -- point evaluation (top level so worker processes can pickle it) -----------


def evaluate_point(task: PointTask) -> PointMetrics:
    """Evaluate one design point end to end; pure function of the task."""
    from repro.cache.energy import EnergyParams, estimate_energy
    from repro.core.protected_cache import ProtectionConfig

    point = task.point
    protection = None
    if point.scheme == "non-uniform":
        protection = ProtectionConfig(
            cleaning_interval=point.interval,
            ecc_entries_per_set=point.ecc_entries,
        )
    geometry = replace(
        SCALED_GEOMETRY, write_buffer_entries=point.write_buffer
    )
    config = RunConfig(
        geometry=geometry,
        n_refs=task.refs,
        warmup_refs=task.warmup,
        seed=task.seed,
    )
    cell = Cell(
        point.benchmark, protection, config, variant=point.variant
    )
    out = execute_cell(cell)
    dirty = min(max(out.dirty_fraction, 0.0), 1.0)

    estimate = _campaign_estimate(task, dirty)
    fit = estimate.avf.scaled(estimate.strike_fit)

    area_kib = _point_area_kib(point, task.n_lines)
    ecc_scale = _codec_check_bits(point.codec) / 8.0
    machine = geometry.hierarchy_config()
    if point.scheme == "uniform-ecc":
        energy = estimate_energy(
            out.snapshot, machine, "conventional", 1.0,
            EnergyParams(ecc_per_word=0.06 * ecc_scale),
        )
    elif point.scheme == "parity-only":
        # No ECC slot at all: zero its per-word energy instead of
        # teaching the energy model a third scheme.
        energy = estimate_energy(
            out.snapshot, machine, "proposed", 0.0,
            EnergyParams(ecc_per_word=0.0),
        )
    else:
        energy = estimate_energy(
            out.snapshot, machine, "proposed", dirty,
            EnergyParams(ecc_per_word=0.06 * ecc_scale),
        )

    ipc = None
    if task.measure_ipc:
        ipc = execute_cell(
            replace(cell, mode="ipc", n_insts=task.insts)
        ).ipc

    return PointMetrics(
        point=point,
        area_kib=area_kib,
        fit=fit,
        mttf_hours=estimate.mttf_hours,
        energy_uj=energy.total_uj,
        ipc=ipc,
        traffic_pct=100.0 * out.writeback_fraction,
        dirty_pct=100.0 * dirty,
        trials=estimate.trials,
    )


def _campaign_estimate(task: PointTask, dirty_fraction: float):
    """The point's fixed-trials Monte Carlo estimate."""
    from repro.reliability import (
        CampaignConfig,
        CampaignEngine,
        FaultModelConfig,
    )

    point = task.point
    campaign = CampaignConfig(
        schemes=(point.scheme,),
        trials=task.trials,
        trials_per_shard=task.trials_per_shard,
        metric="failure",
        seed=task.seed,
        model=FaultModelConfig(
            double_bit_fraction=task.double_bit_fraction,
            scenario=point.scenario,
            ecc_codec=point.codec,
        ),
        dirty_fractions={point.scheme: dirty_fraction},
        raw_fit_per_mbit=task.raw_fit,
        n_lines=task.n_lines,
        kernel=task.kernel,
    )
    result = CampaignEngine(campaign).run()
    return result.schemes[point.scheme].estimate


def _codec_check_bits(codec: str) -> int:
    from repro.ecc import get_codec

    return get_codec(codec).check_bits_per_word


def _point_area_kib(point: DesignPoint, n_lines: int) -> float:
    """Protection storage of the point, at the FIT model's geometry.

    The cache geometry is the paper's 64 B-line L2 scaled to the FIT
    conversion's ``n_lines``, so the area and reliability objectives
    always describe the same structure.
    """
    from repro.cache.hierarchy import default_l2_config
    from repro.core.area import conventional_overhead, proposed_overhead

    base = default_l2_config()
    l2 = replace(base, size_bytes=n_lines * base.line_bytes)
    if point.scheme == "uniform-ecc":
        return conventional_overhead(l2, ecc_codec=point.codec).total_kib
    breakdown = proposed_overhead(
        l2,
        ecc_entries_per_set=point.ecc_entries or 1,
        ecc_codec=point.codec,
    )
    if point.scheme == "parity-only":
        # Parity everywhere, nothing else: no shared ECC array and no
        # written bit (there is no selective-ECC path to steer).
        kept = {
            name: bits
            for name, bits in breakdown.components.items()
            if name not in ("ECC array", "written bits")
        }
        return sum(kept.values()) / 8 / 1024
    return breakdown.total_kib


# -- the explore loop ---------------------------------------------------------


def explore(
    tasks: Sequence[PointTask],
    engine: Optional[SweepEngine] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> Tuple[List[PointMetrics], int, int]:
    """Evaluate every task; returns ``(metrics, executed, cached)``.

    Results come back in task order whatever the engine's ``jobs``
    setting.  With a caching engine each point is content-addressed via
    :func:`point_key` and the cache is the grid's only store: re-running
    a grid (or resuming an interrupted one) executes only the missing
    points, and a point cut short is re-run whole.  ``should_abort`` is
    polled between batches; aborting raises
    :class:`~repro.reliability.CampaignAborted` with every completed
    point already in the cache.
    """
    from repro.reliability import CampaignAborted

    eng = engine if engine is not None else SweepEngine()
    tasks = list(tasks)
    version = code_version()
    keys = [point_key(task, version) for task in tasks]
    outputs: List[Optional[PointMetrics]] = [None] * len(tasks)
    pending: List[int] = []

    cached = 0
    for i, task in enumerate(tasks):
        hit = eng.cache.get(keys[i]) if eng.cache is not None else None
        if isinstance(hit, PointMetrics):
            outputs[i] = hit
            cached += 1
            if progress is not None:
                progress({
                    "type": "point",
                    "label": task.point.label,
                    "benchmark": task.point.benchmark,
                    "cached": True,
                    "done": cached,
                    "total": len(tasks),
                })
        else:
            pending.append(i)

    # Batches of a few points per worker: large enough to keep the pool
    # busy, small enough that aborts and progress stay responsive.
    batch = max(1, eng.jobs) * 2
    done = cached
    for start in range(0, len(pending), batch):
        if should_abort is not None and should_abort():
            raise CampaignAborted("autotune aborted")
        indices = pending[start:start + batch]
        results = eng.map_tasks(
            evaluate_point, [tasks[i] for i in indices], phase="autotune"
        )
        for i, metrics in zip(indices, results):
            outputs[i] = metrics
            if eng.cache is not None:
                eng.cache.put(keys[i], metrics)
            done += 1
            if progress is not None:
                progress({
                    "type": "point",
                    "label": tasks[i].point.label,
                    "benchmark": tasks[i].point.benchmark,
                    "cached": False,
                    "done": done,
                    "total": len(tasks),
                })
    return list(outputs), len(pending), cached  # type: ignore[arg-type]


__all__ = [
    "DesignPoint",
    "PointMetrics",
    "PointTask",
    "SCHEMES",
    "evaluate_point",
    "expand_grid",
    "explore",
    "point_key",
]
