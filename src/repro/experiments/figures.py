"""Drivers that regenerate every table and figure of the paper.

Each function returns plain data (dict keyed by benchmark) so tests and
benchmarks can assert on shapes, plus the :mod:`report` helpers render
the paper-style tables.  Figure/Table numbering follows the paper:

* :func:`table1` — baseline processor configuration.
* :func:`figure1` — % dirty L2 lines per cycle, conventional cache.
* :func:`figure3_4` — dirty % vs cleaning interval (FP = Fig 3, INT = Fig 4).
* :func:`figure5_6` — write-back traffic vs interval (FP = Fig 5, INT = Fig 6).
* :func:`figure7` — dirty % under the full scheme (cleaning + shared ECC).
* :func:`figure8` — write-back traffic split WB / Clean-WB / ECC-WB.
* :func:`area_table` — the Section 5.2 54 KB vs 132 KB accounting.
* :func:`ipc_loss` — the Section 5.2 IPC-loss measurement.

Figure 1 can read the sweeps' 'org' runs and Figures 7/8 share one
:func:`full_scheme` grid when the caller passes them in, so a full
regeneration simulates each cell once.  :func:`reference_grid` runs the
sweeps and the full scheme together, benchmark by benchmark, so the
cells that read one benchmark's L1 tape run back to back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import default_l2_config
from repro.core.area import (
    AreaBreakdown,
    conventional_overhead,
    proposed_overhead,
    reduction,
)
from repro.core.protected_cache import ProtectionConfig
from repro.cpu.config import ProcessorConfig
from repro.experiments.pool import Cell, SweepEngine
from repro.experiments.runner import (
    RunConfig,
    interval_label,
)
from repro.workloads.spec2000 import (
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    BenchmarkSpec,
)

#: The interval the paper selects for its final scheme (Section 5.2).
CHOSEN_INTERVAL = 1 << 20  # 1M cycles (paper-nominal)


def _suite(suite: Optional[str]) -> List[BenchmarkSpec]:
    if suite == "fp":
        return FP_BENCHMARKS
    if suite == "int":
        return INT_BENCHMARKS
    if suite is None:
        return FP_BENCHMARKS + INT_BENCHMARKS
    raise ValueError(f"unknown suite {suite!r}; use 'fp', 'int' or None")


def table1(processor: Optional[ProcessorConfig] = None) -> str:
    """Render the Table 1 baseline-configuration block."""
    return (processor or ProcessorConfig()).describe()


def _engine(engine: Optional[SweepEngine]) -> SweepEngine:
    """Default engine: sequential, uncached — identical to direct runs."""
    return engine if engine is not None else SweepEngine()


def figure1(
    config: RunConfig = RunConfig(),
    engine: Optional[SweepEngine] = None,
    sweep: Optional[Dict[str, Dict[str, "object"]]] = None,
) -> Dict[str, float]:
    """Fig. 1: % dirty lines per cycle in the conventional L2, per benchmark.

    The paper reports a 51.6% average with apsi/mesa/gap/parser high.
    Its cells are the 'org' runs of :func:`interval_sweep`: pass both
    suites' sweeps merged into one dict to avoid re-simulating.
    """
    specs = _suite(None)
    if sweep is not None:
        outputs = [sweep[spec.name]["org"] for spec in specs]
    else:
        cells = [Cell(spec.name, None, config) for spec in specs]
        outputs = _engine(engine).run_cells(cells)
    return {
        spec.name: 100.0 * out.dirty_fraction
        for spec, out in zip(specs, outputs)
    }


def reference_grid(
    config: RunConfig = RunConfig(),
    engine: Optional[SweepEngine] = None,
    suites: Sequence[str] = ("fp", "int"),
    full: bool = True,
) -> Tuple[Dict[str, Dict[str, Dict[str, object]]], Optional[Dict[str, object]]]:
    """The reference-mode cells behind Figures 1 and 3–8 in one
    :meth:`~repro.experiments.pool.SweepEngine.run_cells` call.

    Returns ``(sweeps, full)``: ``sweeps`` maps each of ``suites`` to
    its :func:`interval_sweep`, and ``full`` is the
    :func:`full_scheme` (``None`` without ``full``).  Cells go in
    benchmark order (FP, then INT), each benchmark's sweep then its
    full-scheme cell, so a sequential engine runs every cell of a
    benchmark back to back and records its L1 tape once.
    """
    for suite in suites:
        if suite not in ("fp", "int"):
            raise ValueError(f"unknown suite {suite!r}; use 'fp' or 'int'")
    grid = config.geometry.paper_intervals
    sweeps: Dict[str, Dict[str, Dict[str, object]]] = {s: {} for s in suites}
    full_out: Optional[Dict[str, object]] = {} if full else None
    cells: List[Cell] = []
    slots: List[Tuple[dict, str]] = []
    for suite in ("fp", "int"):
        for spec in _suite(suite):
            if suite in sweeps:
                row = sweeps[suite][spec.name] = {}
                for paper_interval in grid:
                    protection = ProtectionConfig(
                        cleaning_interval=paper_interval,
                        ecc_entries_per_set=None,
                    )
                    cells.append(Cell(spec.name, protection, config))
                    slots.append((row, interval_label(paper_interval)))
                cells.append(Cell(spec.name, None, config))
                slots.append((row, "org"))
            if full_out is not None:
                cells.append(Cell(spec.name, _ours(), config))
                slots.append((full_out, spec.name))
    for (into, key), res in zip(slots, _engine(engine).run_cells(cells)):
        into[key] = res
    return sweeps, full_out


def interval_sweep(
    suite: str,
    config: RunConfig = RunConfig(),
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, "object"]]:
    """The cleaning-interval sweep behind Figures 3–6.

    Runs every benchmark of ``suite`` at each paper-nominal interval
    (cleaning only, no ECC-array constraint) plus the unmodified
    baseline ('org').  Returns {benchmark: {label: RefRunOutput}} so the
    dirty-residency figures (3/4) and the traffic figures (5/6) can both
    be projected from one set of simulations.  All cells of the grid are
    independent, so an ``engine`` with ``jobs > 1`` fans them out.
    """
    return reference_grid(config, engine, suites=(suite,), full=False)[0][suite]


def figure3_4(
    suite: str,
    config: RunConfig = RunConfig(),
    sweep: Optional[Dict[str, Dict[str, "object"]]] = None,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Figs. 3/4: dirty % per cleaning interval (cleaning only, no ECC array).

    Returns {benchmark: {interval label or 'org': dirty %}}.  Pass a
    precomputed :func:`interval_sweep` to avoid re-simulating.
    """
    sweep = sweep if sweep is not None else interval_sweep(suite, config, engine)
    return {
        bench: {label: 100.0 * res.dirty_fraction for label, res in row.items()}
        for bench, row in sweep.items()
    }


def figure5_6(
    suite: str,
    config: RunConfig = RunConfig(),
    sweep: Optional[Dict[str, Dict[str, "object"]]] = None,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Figs. 5/6: write-backs as % of all loads/stores, per interval + org."""
    sweep = sweep if sweep is not None else interval_sweep(suite, config, engine)
    return {
        bench: {
            label: 100.0 * res.writeback_fraction for label, res in row.items()
        }
        for bench, row in sweep.items()
    }


def _ours() -> ProtectionConfig:
    """The paper's final configuration: 1M cleaning + 1-entry ECC array."""
    return ProtectionConfig(
        cleaning_interval=CHOSEN_INTERVAL, ecc_entries_per_set=1
    )


def full_scheme(
    config: RunConfig = RunConfig(),
    engine: Optional[SweepEngine] = None,
) -> Dict[str, "object"]:
    """The full-scheme runs behind Figures 7 and 8: every benchmark under
    :func:`_ours`.  Returns {benchmark: RefRunOutput}."""
    return reference_grid(config, engine, suites=())[1]


def figure7(
    config: RunConfig = RunConfig(),
    engine: Optional[SweepEngine] = None,
    full: Optional[Dict[str, "object"]] = None,
) -> Dict[str, float]:
    """Fig. 7: dirty % under the full scheme (the paper sees <25% everywhere).

    Pass a precomputed :func:`full_scheme` to avoid re-simulating.
    """
    full = full if full is not None else full_scheme(config, engine)
    return {bench: 100.0 * out.dirty_fraction for bench, out in full.items()}


def figure8(
    config: RunConfig = RunConfig(),
    engine: Optional[SweepEngine] = None,
    full: Optional[Dict[str, "object"]] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 8: write-back % split into WB / Clean-WB / ECC-WB, plus total.

    Pass a precomputed :func:`full_scheme` to avoid re-simulating.
    """
    full = full if full is not None else full_scheme(config, engine)
    out: Dict[str, Dict[str, float]] = {}
    for bench, res in full.items():
        row = {k: 100.0 * v for k, v in res.writeback_split.items()}
        row["total"] = 100.0 * res.writeback_fraction
        out[bench] = row
    return out


def area_table(
    ecc_entries_per_set: int = 1,
) -> Tuple[AreaBreakdown, AreaBreakdown, float]:
    """Section 5.2 area accounting on the paper's 1MB/4-way/64B L2.

    Returns (conventional, proposed, fractional reduction ≈ 0.59).
    """
    l2 = default_l2_config()
    conv = conventional_overhead(l2)
    ours = proposed_overhead(l2, ecc_entries_per_set=ecc_entries_per_set)
    return conv, ours, reduction(conv, ours)


def ipc_loss(
    config: RunConfig = RunConfig(),
    suite: Optional[str] = None,
    n_insts: Optional[int] = None,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, float]]:
    """Section 5.2: IPC of org vs ours and the % loss, per benchmark.

    The paper reports 0.14% (FP) / 0.65% (INT) average loss.
    """
    specs = _suite(suite)
    cells: List[Cell] = []
    for spec in specs:
        cells.append(Cell(spec.name, None, config, mode="ipc", n_insts=n_insts))
        cells.append(
            Cell(spec.name, _ours(), config, mode="ipc", n_insts=n_insts)
        )
    outputs = _engine(engine).run_cells(cells)
    out: Dict[str, Dict[str, float]] = {}
    for spec, org, ours in zip(specs, outputs[0::2], outputs[1::2]):
        loss = (
            100.0 * (org.ipc - ours.ipc) / org.ipc if org.ipc > 0 else 0.0
        )
        out[spec.name] = {
            "IPC org": org.ipc,
            "IPC ours": ours.ipc,
            "loss %": loss,
        }
    return out
