"""Ablation studies over the paper's design choices (DESIGN.md §6).

Studies the paper motivates but does not evaluate, among them:

* :func:`ablate_ecc_entries` — size of the shared ECC array: the paper
  picks one entry per set; more entries trade area for less ECC-WB
  traffic and a higher dirty-residency cap.
* :func:`ablate_best_interval` — the paper notes "each benchmark will
  have different cleaning interval for best results" but uses a global
  1M; this finds each benchmark's best interval under a traffic budget.
* :func:`ablate_eager_writeback` — Lee et al.'s eager write-back [7] as
  an alternative dirty-line reducer.
* :func:`ablate_written_bit` — the value of the written bit itself:
  cleaning without the second-chance bit (clean any dirty line on
  sweep) versus the paper's design.

Every study is a grid of :class:`~repro.experiments.pool.Cell` objects
that one :class:`~repro.experiments.pool.SweepEngine` runs, so each study
that takes ``engine=`` honours its workers and result cache (the
bus-width sweep runs on a sequential, uncached one); a machine knob a
study varies (write-buffer depth, L2 replacement or capacity, bus width)
is a :class:`~repro.experiments.runner.Geometry` field of its cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.cache.cache import AccessResult, CacheConfig, WritebackReason
from repro.cache.energy import EnergyParams, estimate_energy
from repro.core.area import proposed_overhead
from repro.core.protected_cache import ProtectedL2, ProtectionConfig
from repro.experiments.pool import Cell, SweepEngine
from repro.experiments.runner import RunConfig, interval_label
from repro.workloads.spec2000 import BENCHMARKS


def _with(config: RunConfig, **knobs) -> RunConfig:
    """``config`` on its geometry with ``knobs`` changed."""
    return replace(config, geometry=replace(config.geometry, **knobs))


@dataclass
class EccEntriesPoint:
    """One point of the ECC-array-size ablation."""

    entries_per_set: int
    area_kib: float
    dirty_pct: float
    ecc_wb_pct: float
    total_wb_pct: float


def ablate_ecc_entries(
    benchmarks: Optional[List[str]] = None,
    entries_grid: tuple = (1, 2, 4),
    config: RunConfig = RunConfig(),
    cleaning_interval: int = 1 << 20,
    engine: Optional[SweepEngine] = None,
) -> List[EccEntriesPoint]:
    """Sweep the shared-ECC-array size, averaged over ``benchmarks``."""
    names = benchmarks or sorted(BENCHMARKS)
    points: List[EccEntriesPoint] = []
    paper_l2 = CacheConfig("l2", 1024 * 1024, 4, 64)
    # Benchmark-major, so a benchmark's cells run back to back and share
    # one L1 tape.
    cells = [
        Cell(
            name,
            ProtectionConfig(
                cleaning_interval=cleaning_interval,
                ecc_entries_per_set=entries,
            ),
            config,
        )
        for name in names
        for entries in entries_grid
    ]
    outputs = (engine or SweepEngine()).run_cells(cells)
    for e, entries in enumerate(entries_grid):
        dirty, ecc_wb, total_wb = 0.0, 0.0, 0.0
        for b in range(len(names)):
            out = outputs[b * len(entries_grid) + e]
            dirty += out.dirty_fraction
            ecc_wb += out.writeback_split["ECC-WB"]
            total_wb += out.writeback_fraction
        n = len(names)
        points.append(
            EccEntriesPoint(
                entries_per_set=entries,
                area_kib=proposed_overhead(
                    paper_l2, ecc_entries_per_set=entries
                ).total_kib,
                dirty_pct=100.0 * dirty / n,
                ecc_wb_pct=100.0 * ecc_wb / n,
                total_wb_pct=100.0 * total_wb / n,
            )
        )
    return points


def ablate_best_interval(
    config: RunConfig = RunConfig(),
    traffic_budget_pct: float = 1.0,
    benchmarks: Optional[List[str]] = None,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-benchmark best cleaning interval under a traffic budget.

    Picks, for each benchmark, the smallest interval whose write-back
    traffic stays within ``traffic_budget_pct`` percentage points of the
    uncleaned baseline, and reports it with its dirty residency.
    """
    names = benchmarks or sorted(BENCHMARKS)
    intervals = config.geometry.paper_intervals
    cells: List[Cell] = []
    for name in names:
        cells.append(Cell(name, None, config))
        cells.extend(
            Cell(
                name,
                ProtectionConfig(
                    cleaning_interval=paper_interval, ecc_entries_per_set=None
                ),
                config,
            )
            for paper_interval in intervals
        )
    outputs = iter((engine or SweepEngine()).run_cells(cells))
    out: Dict[str, Dict[str, float]] = {}
    for name in names:
        org = next(outputs)
        best_label, best = None, None
        for paper_interval in intervals:
            res = next(outputs)
            over_budget = (
                100.0 * (res.writeback_fraction - org.writeback_fraction)
                > traffic_budget_pct
            )
            if over_budget:
                continue
            if best is None or res.dirty_fraction < best.dirty_fraction:
                best_label, best = interval_label(paper_interval), res
        if best is None:  # every interval blew the budget: take org
            best_label, best = "org", org
        out[name] = {
            "interval": best_label,
            "dirty %": 100.0 * best.dirty_fraction,
            "wb %": 100.0 * best.writeback_fraction,
            "org dirty %": 100.0 * org.dirty_fraction,
        }
    return out


def ablate_eager_writeback(
    config: RunConfig = RunConfig(),
    benchmarks: Optional[List[str]] = None,
    cleaning_interval: int = 1 << 20,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Eager write-back [7] vs the paper's written-bit cleaning."""
    names = benchmarks or sorted(BENCHMARKS)
    out: Dict[str, Dict[str, float]] = {}
    cells: List[Cell] = []
    for name in names:
        cells.append(Cell(name, None, config, variant="eager"))
        cells.append(
            Cell(
                name,
                ProtectionConfig(
                    cleaning_interval=cleaning_interval,
                    ecc_entries_per_set=None,
                ),
                config,
            )
        )
    outputs = (engine or SweepEngine()).run_cells(cells)
    for name, eager, cleaned in zip(names, outputs[0::2], outputs[1::2]):
        out[name] = {
            "eager dirty %": 100.0 * eager.dirty_fraction,
            "eager wb %": 100.0 * eager.writeback_fraction,
            "clean dirty %": 100.0 * cleaned.dirty_fraction,
            "clean wb %": 100.0 * cleaned.writeback_fraction,
        }
    return out


def ablate_bus_width(
    config: RunConfig = RunConfig(),
    benchmarks: Optional[List[str]] = None,
    widths: tuple = (4, 8, 16),
    n_insts: int = 60_000,
) -> Dict[str, Dict[str, float]]:
    """IPC cost of the scheme as a function of bus bandwidth.

    The paper's IPC argument is that extra write-backs only contend for
    the off-chip bus.  If so, the loss must shrink as the bus widens
    (fewer beats per transfer) and grow as it narrows — this sweep
    checks that mechanism directly.  Table 1's bus is 8 bytes wide.
    Each width's org/ours pair shares one recorded front end.
    """
    names = benchmarks or ["swim"]
    ours = ProtectionConfig(cleaning_interval=1 << 20, ecc_entries_per_set=1)
    cells = [
        Cell(
            name, protection, _with(config, bus_width_bytes=width),
            mode="ipc", n_insts=n_insts,
        )
        for name in names
        for width in widths
        for protection in (None, ours)
    ]
    outputs = iter(SweepEngine().run_cells(cells))
    out: Dict[str, Dict[str, float]] = {}
    for name in names:
        row: Dict[str, float] = {}
        for width in widths:
            org_ipc, ours_ipc = next(outputs).ipc, next(outputs).ipc
            row[f"{width}B loss %"] = (
                100.0 * (org_ipc - ours_ipc) / org_ipc if org_ipc else 0.0
            )
        out[name] = row
    return out


def ablate_cleaning_policy(
    config: RunConfig = RunConfig(),
    benchmarks: Optional[List[str]] = None,
    cleaning_interval: int = 1 << 20,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Written-bit cleaning vs decay-based cleaning [Kaxiras et al., 12].

    Both run without the ECC-array constraint so the comparison isolates
    the cleaning heuristic.  Decay cleans only fully-idle lines, so
    read-hot write-dead lines — which the written bit reclaims — stay
    dirty under decay.
    """
    names = benchmarks or sorted(BENCHMARKS)
    out: Dict[str, Dict[str, float]] = {}
    protection = ProtectionConfig(
        cleaning_interval=cleaning_interval, ecc_entries_per_set=None
    )
    cells: List[Cell] = []
    for name in names:
        cells.append(Cell(name, protection, config))
        cells.append(Cell(name, protection, config, variant="decay"))
    outputs = (engine or SweepEngine()).run_cells(cells)
    for name, written, decay in zip(names, outputs[0::2], outputs[1::2]):
        out[name] = {
            "written dirty %": 100.0 * written.dirty_fraction,
            "written wb %": 100.0 * written.writeback_fraction,
            "decay dirty %": 100.0 * decay.dirty_fraction,
            "decay wb %": 100.0 * decay.writeback_fraction,
        }
    return out


def ablate_write_buffer(
    config: RunConfig = RunConfig(),
    benchmarks: Optional[List[str]] = None,
    depths: tuple = (1, 4, 16, 64),
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Write-buffer depth sweep (Skadron & Clark [6] design space).

    The paper's baseline uses 16 fully-associative coalescing entries.
    Depth governs how many store blocks can merge before draining to
    the L2 — shallow buffers inflate L2 write traffic and, through it,
    the dirty-line population the protection scheme must manage.
    """
    names = benchmarks or sorted(BENCHMARKS)
    cells = [
        Cell(name, None, _with(config, write_buffer_entries=depth))
        for name in names
        for depth in depths
    ]
    outputs = iter((engine or SweepEngine()).run_cells(cells))
    out: Dict[str, Dict[str, float]] = {}
    for name in names:
        row: Dict[str, float] = {}
        for depth in depths:
            wb = next(outputs).snapshot["write_buffer"]
            stores = wb["stores_seen"]
            row[f"coalesce@{depth}"] = (
                100.0 * wb["coalesced"] / stores if stores else 0.0
            )
        out[name] = row
    return out


def ablate_cache_size(
    config: RunConfig = RunConfig(),
    benchmarks: Optional[List[str]] = None,
    scale_factors: tuple = (0.5, 1.0, 2.0),
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Dirty residency as a function of L2 capacity.

    The paper's Figure 1 premise is tied to the 1 MB capacity; this
    sweep shows how the dirty fraction moves when the cache shrinks
    (working sets spill, lines churn) or grows (resident dirty
    populations accumulate).  Working sets stay fixed at the reference
    geometry's scale, as a real machine's programs would, so every
    size replays the same L1 tape.
    """
    names = benchmarks or sorted(BENCHMARKS)
    cells = [
        Cell(name, None, _with(config, l2_scale=factor))
        for name in names
        for factor in scale_factors
    ]
    outputs = iter((engine or SweepEngine()).run_cells(cells))
    return {
        name: {
            f"{factor:g}x": 100.0 * next(outputs).dirty_fraction
            for factor in scale_factors
        }
        for name in names
    }


def ablate_energy(
    config: RunConfig = RunConfig(),
    benchmarks: Optional[List[str]] = None,
    cleaning_interval: int = 1 << 20,
    params: EnergyParams = EnergyParams(),
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Memory-system energy: conventional vs the paper's scheme.

    Each benchmark runs twice (same workload, same seed).  Reported per
    benchmark: total energy of each scheme in µJ, the protection-logic
    (coding) energy of each, and the net change in percent.  The
    proposed scheme trades less ECC-logic work (most lines only carry
    parity) against extra bus/DRAM energy from its additional
    write-backs — the balance the paper's interval choice manages.
    """
    names = benchmarks or sorted(BENCHMARKS)
    protection = ProtectionConfig(
        cleaning_interval=cleaning_interval, ecc_entries_per_set=1
    )
    cells: List[Cell] = []
    for name in names:
        cells.append(Cell(name, None, config))
        cells.append(Cell(name, protection, config))
    outputs = (engine or SweepEngine()).run_cells(cells)
    machine = config.geometry.hierarchy_config()
    out: Dict[str, Dict[str, float]] = {}
    for name, conv_out, ours_out in zip(names, outputs[0::2], outputs[1::2]):
        conv = estimate_energy(
            conv_out.snapshot, machine, "conventional", params=params
        )
        ours = estimate_energy(
            ours_out.snapshot, machine, "proposed",
            dirty_fraction=ours_out.dirty_fraction, params=params,
        )
        coding_conv = conv.components["L2 ECC logic"]
        coding_ours = (
            ours.components["L2 ECC logic"]
            + ours.components["L2 parity logic"]
        )
        out[name] = {
            "conv uJ": conv.total_uj,
            "ours uJ": ours.total_uj,
            "conv coding uJ": coding_conv / 1000.0,
            "ours coding uJ": coding_ours / 1000.0,
            "delta %": (
                100.0 * (ours.total_nj - conv.total_nj) / conv.total_nj
                if conv.total_nj
                else 0.0
            ),
        }
    return out


def ablate_replacement(
    config: RunConfig = RunConfig(),
    benchmarks: Optional[List[str]] = None,
    policies: tuple = ("lru", "fifo", "random"),
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """L2 replacement-policy sensitivity of the dirty-residency metric.

    The paper assumes LRU.  This checks that its headline observation —
    roughly half the cache dirty, with the same outlier benchmarks — is
    not an artifact of the replacement policy.  The ``random`` policy
    draws from the run's seed.
    """
    names = benchmarks or sorted(BENCHMARKS)
    cells = [
        Cell(name, None, _with(config, l2_replacement=policy))
        for name in names
        for policy in policies
    ]
    outputs = iter((engine or SweepEngine()).run_cells(cells))
    return {
        name: {
            policy: 100.0 * next(outputs).dirty_fraction
            for policy in policies
        }
        for name in names
    }


class _NoWrittenBitL2(ProtectedL2):
    """Cleaning without the written bit: clean every dirty line on sweep."""

    def advance(self, cycle: int):
        cleaning = self.cleaning
        due = cleaning.due_sets(cycle) if cleaning is not None else ()
        if not due:
            return []
        result = AccessResult(False, False)
        for set_idx in due:
            for way, line in enumerate(self.sets[set_idx]):
                if line.valid and line.dirty:
                    self._writeback_line(
                        set_idx, way, cycle, result, WritebackReason.CLEANING
                    )
        return result.writebacks


def ablate_written_bit(
    config: RunConfig = RunConfig(),
    benchmarks: Optional[List[str]] = None,
    cleaning_interval: int = 1 << 20,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Quantify what the written bit buys.

    Without it, the sweep writes back every dirty line it visits —
    including lines still being actively written, which immediately
    re-dirty and inflate memory traffic.
    """
    names = benchmarks or sorted(BENCHMARKS)
    out: Dict[str, Dict[str, float]] = {}
    protection = ProtectionConfig(
        cleaning_interval=cleaning_interval, ecc_entries_per_set=None
    )
    cells: List[Cell] = []
    for name in names:
        cells.append(Cell(name, protection, config))
        cells.append(Cell(name, protection, config, variant="no-written-bit"))
    outputs = (engine or SweepEngine()).run_cells(cells)
    for name, with_bit, without in zip(names, outputs[0::2], outputs[1::2]):
        out[name] = {
            "with dirty %": 100.0 * with_bit.dirty_fraction,
            "with wb %": 100.0 * with_bit.writeback_fraction,
            "without dirty %": 100.0 * without.dirty_fraction,
            "without wb %": 100.0 * without.writeback_fraction,
        }
    return out
