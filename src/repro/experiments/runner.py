"""Run one benchmark under one protection configuration.

Two run modes:

* **Reference mode** (:func:`run_refs`) — drives just the memory
  hierarchy with the benchmark's memory-reference stream, advancing the
  cycle clock by the instruction gaps.  Fast; used for the residency and
  traffic figures (1, 3–8).  It runs in two stages split at the L1:
  stage A (:class:`~repro.cache.hierarchy.L1Recorder`) runs the stream
  through copies of the L1D and the write buffer and records tapes, and
  stage B (:meth:`~repro.cache.hierarchy.MemoryHierarchy.replay_l1_tape`)
  drives everything below them from those tapes.  The L2 designs of a
  figure grid share one benchmark's tape (:func:`run_refs_with_hierarchy`).
* **CPU mode** (:func:`run_ipc`) — expands the stream into full
  instructions and runs the out-of-order core, so bus contention turns
  into IPC.  Used for the Section 5.2 performance-loss numbers.  It
  runs in two stages split below the L1s: stage A
  (:class:`~repro.cpu.tape.CoreRecorder`) generates and expands the
  stream and runs the fetch blocks, TLBs, branch predictor and copies
  of the L1I, L1D and write buffer, and records
  :class:`~repro.cpu.tape.CoreTape` chunks; stage B
  (:meth:`~repro.cpu.ooo.OoOCore.run`) replays each chunk against the
  MSHRs, the unified levels and memory.  The org and ours machines of
  a comparison replay the same chunks (:func:`run_ipc_group`).

Geometry scaling (DESIGN.md §5): Python cannot simulate the paper's
10^9-instruction runs, so the default geometry shrinks every capacity
(L1s, L2, working sets — which are specified relative to the L2 — and
cleaning intervals) by the same factor, preserving the residency and
lifetime relationships the figures depend on.  The paper's full
geometry remains available as ``PAPER_GEOMETRY``.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.energy import estimate_energy
from repro.cache.hierarchy import (
    HierarchyConfig,
    L1Recorder,
    L1Tape,
    MemoryHierarchy,
    default_l1d_config,
    default_l1i_config,
    default_l2_config,
)
from repro.cache.mainmem import MemoryConfig
from repro.cache.write_buffer import WriteBuffer
from repro.core.policy import build_variant_l2
from repro.core.protected_cache import ProtectedL2, ProtectionConfig
from repro.core.scrub import check_invariants
from repro.cpu.ooo import OoOCore, RunResult
from repro.cpu.config import ProcessorConfig
from repro.telemetry.profiling import PhaseProfiler
from repro.telemetry.tracing import EventTracer
from repro.workloads.mix import InstructionMixer, MixConfig
from repro.workloads.spec2000 import BenchmarkSpec, get_benchmark, make_ref_stream


@dataclass(frozen=True)
class Geometry:
    """A coherent scaling of the paper's memory-system capacities.

    ``interval_scale`` maps the paper's cleaning intervals (64K…4M
    cycles) onto this geometry; interval labels always use the paper's
    nominal values.
    """

    name: str
    l1_bytes: int
    l2_bytes: int
    interval_scale: float
    #: The paper's nominal cleaning intervals, in cycles.
    paper_intervals: Tuple[int, ...] = (65536, 262144, 1048576, 4194304)
    # The machine knobs the autotuner and the ablation studies vary;
    # the defaults are Table 1's machine.
    #: Write-buffer entries between the L1D and the L2 (Table 1: 16).
    write_buffer_entries: int = 16
    #: The L2's replacement policy (``lru``/``fifo``/``random``).
    l2_replacement: str = "lru"
    #: Off-chip bus width in bytes (Table 1: 8).
    bus_width_bytes: int = 8
    #: The L2's capacity as a multiple of ``l2_bytes``.  The stream's
    #: working sets stay sized to ``l2_bytes``, as a real machine's
    #: programs would.
    l2_scale: float = 1.0

    def _naive_scaled(self, paper_interval: int) -> int:
        return max(1, int(paper_interval * self.interval_scale))

    def _grid_scaled(self) -> Tuple[int, ...]:
        """Scaled values of the nominal grid, forced strictly increasing.

        Extreme scale factors can collapse neighbouring grid points onto
        the same scaled value (e.g. everything to 1), after which a
        scaled interval could no longer be mapped back to one nominal
        label.  Collapsed points are nudged up by the minimum needed to
        keep the grid injective; ordinary scales (1, 1/32, ...) are
        unaffected.
        """
        scaled: List[int] = []
        prev = 0
        for p in self.paper_intervals:
            s = max(prev + 1, self._naive_scaled(p))
            scaled.append(s)
            prev = s
        return tuple(scaled)

    def scaled_interval(self, paper_interval: int) -> int:
        if paper_interval in self.paper_intervals:
            idx = self.paper_intervals.index(paper_interval)
            return self._grid_scaled()[idx]
        return self._naive_scaled(paper_interval)

    def nominal_interval(self, scaled: int) -> int:
        """Inverse of :meth:`scaled_interval`: paper-nominal cycles.

        Grid points map back exactly; off-grid values are inverted
        arithmetically (best effort for ad-hoc intervals).
        """
        grid = self._grid_scaled()
        if scaled in grid:
            return self.paper_intervals[grid.index(scaled)]
        if self.interval_scale > 0:
            return max(1, round(scaled / self.interval_scale))
        return scaled

    def interval_label_for(self, scaled: int) -> str:
        """The paper's nominal label for a *scaled* interval (``64K``...)."""
        return interval_label(self.nominal_interval(scaled))

    def interval_grid(self) -> List[Tuple[str, int]]:
        """(paper label, scaled cycles) for the sweep figures."""
        return [
            (interval_label(p), self.scaled_interval(p))
            for p in self.paper_intervals
        ]

    def hierarchy_config(self) -> HierarchyConfig:
        l1i = replace(default_l1i_config(), size_bytes=self.l1_bytes)
        l1d = replace(default_l1d_config(), size_bytes=self.l1_bytes)
        l2 = replace(
            default_l2_config(),
            size_bytes=int(self.l2_bytes * self.l2_scale),
            replacement=self.l2_replacement,
        )
        return HierarchyConfig(
            l1i=l1i, l1d=l1d, l2=l2,
            memory=MemoryConfig(bus_width_bytes=self.bus_width_bytes),
            write_buffer_entries=self.write_buffer_entries,
        )


def interval_label(cycles: int) -> str:
    """Render a cleaning interval the way the paper does (64K, 1M, ...)."""
    if cycles % (1 << 20) == 0:
        return f"{cycles >> 20}M"
    if cycles % (1 << 10) == 0:
        return f"{cycles >> 10}K"
    return str(cycles)


#: The paper's exact Table 1 geometry (slow in Python; for spot checks).
PAPER_GEOMETRY = Geometry(
    name="paper", l1_bytes=32 * 1024, l2_bytes=1024 * 1024, interval_scale=1.0
)

#: Default: capacities scaled by 1/16 (a 64 KB L2 of 1K lines) and
#: cleaning intervals by 1/32, which keeps the line-lifetime vs
#: cleaning-interval ratios of the paper's 10^9-instruction runs intact
#: at trace lengths Python can simulate in seconds (calibrated against
#: the paper's "256K interval → ~2K dirty lines, 1M → ~4K" anchors).
SCALED_GEOMETRY = Geometry(
    name="scaled",
    l1_bytes=2 * 1024,
    l2_bytes=64 * 1024,
    interval_scale=1.0 / 32.0,
)


@dataclass(frozen=True)
class RunConfig:
    """How much work one run does."""

    geometry: Geometry = SCALED_GEOMETRY
    #: Memory references measured (after warm-up).
    n_refs: int = 120_000
    #: Memory references used to warm the hierarchy before measuring.
    warmup_refs: int = 40_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_refs", "warmup_refs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class RefRunOutput:
    """Measured quantities of one reference-mode run."""

    benchmark: str
    protection: Optional[ProtectionConfig]
    cycles: int
    refs: int
    dirty_fraction: float
    peak_dirty_fraction: float
    #: Write-backs as a fraction of all loads/stores (paper Figs 5/6/8).
    writeback_fraction: float
    #: Same, split by cause: WB / Clean-WB / ECC-WB.
    writeback_split: Dict[str, float]
    l2_miss_rate: float
    bus_utilization: float
    #: Mean dirty-episode length (first write to write-back), cycles.
    mean_dirty_episode_cycles: float = 0.0
    #: Traffic-aware variant counters; all stay 0 on the standard path.
    silent_writes: int = 0
    elided_ecc_updates: int = 0
    wb_bytes_raw: int = 0
    wb_bytes_compressed: int = 0
    #: ``MetricsRegistry.snapshot()`` of the hierarchy at run end.
    snapshot: Optional[Dict[str, Dict[str, float]]] = None


@dataclass
class IpcRunOutput:
    """Measured quantities of one CPU-mode run."""

    benchmark: str
    protection: Optional[ProtectionConfig]
    result: RunResult
    writeback_fraction: float
    dirty_fraction: float
    #: Traffic-aware variant counters; all stay 0 on the standard path.
    silent_writes: int = 0
    elided_ecc_updates: int = 0
    wb_bytes_raw: int = 0
    wb_bytes_compressed: int = 0
    #: Memory-system energy of the run (:mod:`repro.cache.energy`).
    energy_uj: float = 0.0
    #: ``MetricsRegistry.snapshot()`` of the hierarchy at run end.
    snapshot: Optional[Dict[str, Dict[str, float]]] = None

    @property
    def ipc(self) -> float:
        return self.result.ipc


def build_l2(
    geometry: Geometry, protection: Optional[ProtectionConfig], seed: int = 0
) -> SetAssociativeCache:
    """The L2 under test: plain (conventional) or the paper's protected L2.

    ``protection.cleaning_interval`` is given in *paper-nominal* cycles
    and scaled to the geometry here.
    """
    l2_cfg = geometry.hierarchy_config().l2
    if protection is None:
        return SetAssociativeCache(l2_cfg, seed=seed)
    scaled = ProtectionConfig(
        cleaning_interval=(
            geometry.scaled_interval(protection.cleaning_interval)
            if protection.cleaning_interval is not None
            else None
        ),
        ecc_entries_per_set=protection.ecc_entries_per_set,
    )
    return ProtectedL2(l2_cfg, scaled, seed=seed)


def build_hierarchy(
    config: RunConfig,
    protection: Optional[ProtectionConfig],
    variant: str = "standard",
) -> MemoryHierarchy:
    """The machine a run measures: ``config.geometry``'s hierarchy around
    the variant registry's L2 (:func:`repro.core.policy.build_variant_l2`),
    seeded from the run.  Every reference-mode and CPU-mode run builds
    its machine here."""
    geometry = config.geometry
    l2 = build_variant_l2(variant, geometry, protection, seed=config.seed)
    return MemoryHierarchy(config=geometry.hierarchy_config(), l2=l2)


def l1_tape_key(
    benchmark: str,
    config: RunConfig,
    l1d: CacheConfig,
    write_buffer_entries: int,
    write_buffer_block_bytes: int,
) -> tuple:
    """Everything stage A reads: the benchmark, the stream's
    ``l2_bytes``, the seed, both reference counts, the L1D's
    configuration and the write buffer's shape.  Runs with one key
    record the same L1 tape, whatever lies below the L1."""
    return (
        benchmark, config.geometry.l2_bytes, config.seed, config.warmup_refs,
        config.n_refs, astuple(l1d), write_buffer_entries,
        write_buffer_block_bytes,
    )


def _reset_measurement(hierarchy: MemoryHierarchy, cycle: int) -> None:
    """Zero every counter after warm-up, keeping cache contents.

    Every stats holder in the hierarchy registered itself into
    ``hierarchy.registry`` at construction, so the measurement boundary
    is one registry call; component-specific boundary work (the
    dirty-episode clamp, restarting the residency integrator) lives in
    each component's own ``reset``.
    """
    hierarchy.reset_measurement(cycle)


def run_refs(
    benchmark: str,
    protection: Optional[ProtectionConfig],
    config: RunConfig = RunConfig(),
    tracer: Optional[EventTracer] = None,
    profiler: Optional[PhaseProfiler] = None,
    variant: str = "standard",
) -> RefRunOutput:
    """Reference-mode run of one benchmark under one protection config."""
    hierarchy = build_hierarchy(config, protection, variant)
    return run_refs_with_hierarchy(
        benchmark, hierarchy, config, protection,
        tracer=tracer, profiler=profiler,
    )


#: A run's stored tape: its warm-up and measured windows as
#: :class:`~repro.cache.hierarchy.L1Tape` chunks, and the L1D and write
#: buffer stage A left.  Immutable, so threads may share it.
_StoredTape = Tuple[
    Tuple[L1Tape, ...], Tuple[L1Tape, ...], SetAssociativeCache, WriteBuffer
]

#: Longest run (warm-up plus measured references) whose tape the memo
#: keeps: up to about 10 MB.  A longer run records as it replays, one
#: chunk at a time.
_MEMO_REFS = 1 << 20

#: The most recent memoised tape: ``(key, tape)``.  One slot, so a grid
#: that runs a benchmark's cells back to back records its tape once,
#: and nothing outlives the next benchmark.
_LAST_TAPE: Optional[Tuple[tuple, _StoredTape]] = None


def run_refs_with_hierarchy(
    benchmark: str,
    hierarchy: MemoryHierarchy,
    config: RunConfig = RunConfig(),
    protection: Optional[ProtectionConfig] = None,
    tracer: Optional[EventTracer] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> RefRunOutput:
    """Reference-mode run against a caller-supplied hierarchy (one
    :func:`build_hierarchy` made, or a hand-configured or used one).

    A fresh hierarchy (clock 0, no reference seen) reuses the tape of
    the previous call when everything stage A reads is the same (its
    :func:`l1_tape_key`).  A run of at most :data:`_MEMO_REFS`
    references on a fresh hierarchy leaves its tape for the next call.
    A used hierarchy records its own tape from its current L1D and write
    buffer.
    """
    global _LAST_TAPE
    wb = hierarchy.write_buffer
    fresh = hierarchy.fresh
    key = l1_tape_key(
        benchmark, config, hierarchy.l1d.config, wb.entries, wb.block_bytes
    )
    last = _LAST_TAPE
    if fresh and last is not None and last[0] == key:
        return _replay(
            *last[1], hierarchy, config, benchmark, protection, tracer,
            profiler,
        )
    spec: BenchmarkSpec = get_benchmark(benchmark)
    stream = make_ref_stream(spec, config.geometry.l2_bytes, seed=config.seed)
    recorder = L1Recorder(hierarchy, stream)
    warmup = recorder.window(config.warmup_refs)
    measured = recorder.window(config.n_refs, boundary=True)
    if not (fresh and config.warmup_refs + config.n_refs <= _MEMO_REFS):
        return _replay(
            warmup, measured, recorder.l1d, recorder.write_buffer,
            hierarchy, config, benchmark, protection, tracer, profiler,
        )
    kept: Tuple[List[L1Tape], List[L1Tape]] = ([], [])
    out = _replay(
        _kept(warmup, kept[0]), _kept(measured, kept[1]), recorder.l1d,
        recorder.write_buffer, hierarchy, config, benchmark, protection,
        tracer, profiler,
    )
    _LAST_TAPE = (
        key,
        (tuple(kept[0]), tuple(kept[1]), recorder.l1d, recorder.write_buffer),
    )
    return out


def _kept(tapes: Iterable[L1Tape], into: List[L1Tape]) -> Iterator[L1Tape]:
    """``tapes``, each also appended to ``into`` as it passes."""
    for tape in tapes:
        into.append(tape)
        yield tape


def run_ref_stream(
    stream,
    hierarchy: MemoryHierarchy,
    config: RunConfig = RunConfig(),
    label: str = "trace",
    protection: Optional[ProtectionConfig] = None,
    tracer: Optional[EventTracer] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> RefRunOutput:
    """Drive a hierarchy with an explicit reference stream.

    The first ``config.warmup_refs`` references warm the caches with
    statistics discarded; the next ``config.n_refs`` are measured.  A
    shorter stream (e.g. a user trace file) simply ends early — the
    measured counts are whatever it contained.  Stage A records the
    stream as stage B replays it, one chunk at a time, so a stream of
    any length runs in bounded memory.

    ``tracer`` (opt-in) records structured events from every cache
    level; ``profiler`` (opt-in) accounts wall time to the warm-up and
    measurement phases.
    """
    recorder = L1Recorder(hierarchy, stream)
    return _replay(
        recorder.window(config.warmup_refs),
        recorder.window(config.n_refs, boundary=True),
        recorder.l1d, recorder.write_buffer,
        hierarchy, config, label, protection, tracer, profiler,
    )


def _replay(
    warmup: Iterable[L1Tape],
    measured: Iterable[L1Tape],
    l1d: SetAssociativeCache,
    write_buffer: WriteBuffer,
    hierarchy: MemoryHierarchy,
    config: RunConfig,
    label: str,
    protection: Optional[ProtectionConfig],
    tracer: Optional[EventTracer],
    profiler: Optional[PhaseProfiler],
) -> RefRunOutput:
    """Stage B over the warm-up and measured windows' tapes, then the
    outputs.  ``l1d`` and ``write_buffer`` are read once ``measured`` is
    used up: a lazily recorded window fills them as it goes."""
    if tracer is not None:
        hierarchy.attach_tracer(tracer)
    if profiler is None:
        # A throwaway profiler keeps the code single-path; the cost is
        # two perf_counter pairs per run, not per reference.
        profiler = PhaseProfiler()
    replay = hierarchy.replay_l1_tape
    cycle = 0
    with profiler.phase("warmup") as rec:
        for tape in warmup:
            cycle = replay(tape, cycle)
        rec.events += (
            hierarchy.stats.loads_stores + hierarchy.stats.ifetches
        )

    _reset_measurement(hierarchy, cycle)
    start_cycle = cycle
    with profiler.phase("measure") as rec:
        for tape in measured:
            cycle = replay(tape, cycle)
        # Stats were zeroed at the boundary, so this is the measured count.
        rec.events += (
            hierarchy.stats.loads_stores + hierarchy.stats.ifetches
        )
    hierarchy.adopt_l1_state(l1d, write_buffer)

    for level in hierarchy.levels:
        check_invariants(level)
    l2 = hierarchy.l2
    elapsed = cycle - start_cycle
    refs = hierarchy.stats.loads_stores
    split = {
        "WB": l2.stats.writebacks_replacement / refs if refs else 0.0,
        "Clean-WB": l2.stats.writebacks_cleaning / refs if refs else 0.0,
        "ECC-WB": l2.stats.writebacks_ecc_eviction / refs if refs else 0.0,
    }
    return RefRunOutput(
        benchmark=label,
        protection=protection,
        cycles=elapsed,
        refs=refs,
        dirty_fraction=l2.dirty.average_dirty_fraction(cycle),
        peak_dirty_fraction=l2.dirty.peak_dirty / l2.config.n_lines,
        writeback_fraction=hierarchy.writeback_fraction(),
        writeback_split=split,
        l2_miss_rate=l2.stats.miss_rate,
        bus_utilization=hierarchy.memory.utilization(elapsed),
        mean_dirty_episode_cycles=l2.stats.mean_dirty_episode_cycles,
        silent_writes=l2.stats.silent_writes,
        elided_ecc_updates=l2.stats.elided_ecc_updates,
        wb_bytes_raw=l2.stats.wb_bytes_raw,
        wb_bytes_compressed=l2.stats.wb_bytes_compressed,
        snapshot=hierarchy.snapshot(),
    )


def run_trace(
    stream,
    protection: Optional[ProtectionConfig],
    config: RunConfig = RunConfig(),
    label: str = "trace",
    tracer: Optional[EventTracer] = None,
    profiler: Optional[PhaseProfiler] = None,
    variant: str = "standard",
) -> RefRunOutput:
    """Reference-mode run of an arbitrary trace (e.g. from a file)."""
    hierarchy = build_hierarchy(config, protection, variant)
    return run_ref_stream(
        stream, hierarchy, config, label, protection,
        tracer=tracer, profiler=profiler,
    )


def ipc_instructions(config: RunConfig, n_insts: Optional[int] = None) -> int:
    """The instructions a CPU-mode run times: ``n_insts``, or three per
    measured reference of ``config`` when it is None."""
    return config.n_refs * 3 if n_insts is None else n_insts


def run_ipc(
    benchmark: str,
    protection: Optional[ProtectionConfig],
    config: RunConfig = RunConfig(),
    n_insts: Optional[int] = None,
    processor: Optional[ProcessorConfig] = None,
    variant: str = "standard",
    profiler: Optional[PhaseProfiler] = None,
) -> IpcRunOutput:
    """CPU-mode run: full out-of-order timing, returns IPC and traffic.

    ``variant`` selects the L2 under test from the variant registry
    (:func:`repro.core.policy.available_variants`); ``standard`` is the
    plain/protected L2 the paper evaluates.  The one-member case of
    :func:`run_ipc_group`.
    """
    return run_ipc_group(
        benchmark, ((protection, variant),), config, n_insts, processor,
        profiler,
    )[0]


def run_ipc_group(
    benchmark: str,
    members: Sequence[Tuple[Optional[ProtectionConfig], str]],
    config: RunConfig = RunConfig(),
    n_insts: Optional[int] = None,
    processor: Optional[ProcessorConfig] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> List[IpcRunOutput]:
    """CPU-mode runs of one benchmark on one front end, one per
    ``(protection, variant)`` member, in member order.

    The members share everything stage A reads (the benchmark, the
    geometry, the seed, the instruction count and the processor), so
    the stream is generated and recorded once: each
    :class:`~repro.cpu.tape.CoreTape` chunk is replayed into every
    member's core before the next is recorded, and memory holds one
    chunk whatever ``n_insts`` is.  The first member's core records on
    its own predictor and TLBs (inside its ``run``); the others adopt
    their final state.  Every member's hierarchy adopts the recorder's
    final L1I, L1D and write buffer.
    ``profiler`` (opt-in) accounts wall time to ``core-record`` and to
    one ``core-replay-<member>`` phase per member (``org`` for the
    plain standard L2, ``ours`` for a protected one, then the variant).
    """
    spec = get_benchmark(benchmark)
    cores = [
        OoOCore(build_hierarchy(config, protection, variant), config=processor)
        for protection, variant in members
    ]
    phases = [
        "core-replay-" + ("org" if protection is None else "ours")
        + ("" if variant == "standard" else f"-{variant}")
        for protection, variant in members
    ]
    stream = make_ref_stream(spec, config.geometry.l2_bytes, seed=config.seed)
    mix = MixConfig(fp_fraction=0.5 if spec.suite == "fp" else 0.1)
    mixer = InstructionMixer(mix, seed=config.seed)
    insts = itertools.islice(
        mixer.expand(stream), ipc_instructions(config, n_insts)
    )
    recorder = cores[0].recorder(insts)
    while True:
        # Stage A runs inside the first core's ``run``, so per-layer
        # timing of ``OoOCore.run`` covers the whole core.
        cores[0].run(recorder, profiler, phases[0])
        if not len(recorder.tape):
            break
        for core, phase in zip(cores[1:], phases[1:]):
            core.run(recorder.tape, profiler, phase)
    outputs = []
    for core, (protection, variant) in zip(cores, members):
        if core is not cores[0]:
            core.adopt_front_end(cores[0])
        core.hierarchy.adopt_l1_state(
            recorder.l1d, recorder.write_buffer, recorder.l1i
        )
        outputs.append(_ipc_output(benchmark, protection, variant, core))
    return outputs


def _ipc_output(
    benchmark: str,
    protection: Optional[ProtectionConfig],
    variant: str,
    core: OoOCore,
) -> IpcRunOutput:
    """One member's output once its core has run the whole stream."""
    hierarchy = core.hierarchy
    for level in hierarchy.levels:
        check_invariants(level)
    l2 = hierarchy.l2
    dirty = l2.dirty.average_dirty_fraction(hierarchy.clock)
    snapshot = hierarchy.snapshot()
    # Charge the unprotected baseline as the conventional (uniform-ECC)
    # design and any protected L2 as the paper's proposed scheme — the
    # same pairing the energy ablation uses for its org/ours tables.
    if protection is None and variant == "standard":
        energy = estimate_energy(
            snapshot, hierarchy.config, "conventional", 1.0
        )
    else:
        energy = estimate_energy(
            snapshot, hierarchy.config, "proposed",
            min(max(dirty, 0.0), 1.0),
        )
    return IpcRunOutput(
        benchmark=benchmark,
        protection=protection,
        result=core.result,
        writeback_fraction=hierarchy.writeback_fraction(),
        dirty_fraction=dirty,
        silent_writes=l2.stats.silent_writes,
        elided_ecc_updates=l2.stats.elided_ecc_updates,
        wb_bytes_raw=l2.stats.wb_bytes_raw,
        wb_bytes_compressed=l2.stats.wb_bytes_compressed,
        energy_uj=energy.total_uj,
        snapshot=snapshot,
    )
