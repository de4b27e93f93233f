"""Parallel sweep engine with a content-addressed on-disk result cache.

The paper's evaluation is a large grid of *independent* simulations —
benchmark × cleaning interval × protection configuration for Figures
1/3–8 plus the ablations.  Every cell of that grid is a pure function of
its inputs (the synthetic workloads are seeded; the simulator's one
piece of global state, the runner's last L1 tape, is an immutable
function of its key and serves fresh hierarchies only), so the grid can
be

* **fanned out** over a :mod:`multiprocessing` pool (``jobs > 1``), and
* **memoised** in one SQLite store (:class:`ResultCache`), keyed by a
  content hash of everything the cell depends on: geometry, protection
  knobs, workload, run configuration, simulation variant, and a hash of
  the simulator's own source code, so a code change invalidates every
  cached result automatically.

Determinism: a :class:`Cell` carries its seed inside its
:class:`~repro.experiments.runner.RunConfig` and each worker builds a
private hierarchy from scratch, so results are bit-for-bit identical
whatever the worker count or completion order — the pool reassembles
outputs by submission index, never by arrival.  Each process keeps
its own one-slot tape memo, and when a grid has at least as many
tapes as workers the reference-mode cells that share a tape go to one
worker as one unit, so each benchmark's L1 tape is recorded once.

Typical use::

    engine = SweepEngine(jobs=4, cache=True, progress=True)
    sweep = interval_sweep("fp", config, engine=engine)
    print(engine.summary())     # cells run / cached, wall time, refs/s
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.policy import get_variant
from repro.core.protected_cache import ProtectionConfig
from repro.experiments.runner import (
    Geometry,
    RunConfig,
    build_hierarchy,
    ipc_instructions,
    l1_tape_key,
    run_ipc,
    run_ipc_group,
    run_refs,
)
from repro.telemetry.profiling import PhaseProfiler

#: The machine knobs the ablation studies vary, with Table 1's values;
#: a cell's label names each one it sets away from these.
_STUDY_KNOBS = {
    f.name: f.default
    for f in fields(Geometry)
    if f.name in (
        "write_buffer_entries", "l2_replacement", "bus_width_bytes",
        "l2_scale",
    )
}


@dataclass(frozen=True)
class Cell:
    """One independent simulation of the evaluation grid.

    ``protection.cleaning_interval`` is paper-nominal, exactly as the
    figure drivers pass it to :func:`~repro.experiments.runner.run_refs`.
    ``variant`` selects the L2 under test — any name in the variant
    registry (:func:`repro.core.policy.available_variants`);
    ``n_insts`` applies to ``mode="ipc"`` only.
    """

    benchmark: str
    protection: Optional[ProtectionConfig]
    config: RunConfig
    mode: str = "refs"  # "refs" | "ipc"
    variant: str = "standard"
    n_insts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("refs", "ipc"):
            raise ValueError(f"unknown cell mode {self.mode!r}")
        get_variant(self.variant)  # enumerating ValueError when unknown

    @property
    def label(self) -> str:
        parts = [self.benchmark]
        if self.protection is None:
            parts.append("org")
        else:
            parts.append(
                f"i={self.protection.cleaning_interval}"
                f"/e={self.protection.ecc_entries_per_set}"
            )
        if self.variant != "standard":
            parts.append(self.variant)
        if self.mode != "refs":
            parts.append(self.mode)
        geometry = self.config.geometry
        for knob, default in _STUDY_KNOBS.items():
            value = getattr(geometry, knob)
            if value != default:
                parts.append(f"{knob}={value}")
        return ":".join(parts)

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able view of everything the result depends on."""
        geometry = self.config.geometry
        return {
            "benchmark": self.benchmark,
            "mode": self.mode,
            "variant": self.variant,
            "n_insts": self.n_insts,
            "protection": (
                None
                if self.protection is None
                else {
                    "cleaning_interval": self.protection.cleaning_interval,
                    "ecc_entries_per_set": self.protection.ecc_entries_per_set,
                }
            ),
            "run": {
                "n_refs": self.config.n_refs,
                "warmup_refs": self.config.warmup_refs,
                "seed": self.config.seed,
            },
            "geometry": {
                "name": geometry.name,
                "l1_bytes": geometry.l1_bytes,
                "l2_bytes": geometry.l2_bytes,
                "interval_scale": geometry.interval_scale,
                "paper_intervals": list(geometry.paper_intervals),
                "write_buffer_entries": geometry.write_buffer_entries,
                "l2_replacement": geometry.l2_replacement,
                "bus_width_bytes": geometry.bus_width_bytes,
                "l2_scale": geometry.l2_scale,
            },
        }


# -- code-version fingerprint -------------------------------------------------

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file (memoised per process).

    Folding this into every cache key means any edit to the simulator —
    cache model, workloads, CPU, experiment runner — invalidates all
    cached results, so the cache can never serve numbers produced by a
    different version of the code.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


def cell_key(cell: Cell, version: Optional[str] = None) -> str:
    """Content-addressed cache key of one cell."""
    payload = {
        "cell": cell.describe(),
        "code": version if version is not None else code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- the result store ---------------------------------------------------------

#: Store files one thread keeps a connection to; past this, the least
#: recently used connection closes (a test run touches hundreds).
_HELD_PER_THREAD = 8


class _Held(dict):
    """One thread's held connections: ``{path: (connection, file id)}``,
    least recently used first."""

    def __init__(self) -> None:
        super().__init__()
        self.pid = os.getpid()

    def __del__(self) -> None:
        # A fork's child frees its copies of the parent's connections;
        # it keeps them unclosed, so it never touches the parent's locks.
        if os.getpid() != self.pid:
            _INHERITED.append(dict(self))


_HELD = threading.local()
_INHERITED: List[Dict[str, Any]] = []


def _file_id(path: str) -> Optional[Tuple[int, int]]:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def connect_store(path: Path) -> sqlite3.Connection:
    """This thread's connection to a store file: WAL,
    ``synchronous=NORMAL``, 30 s busy timeout.

    Each (file, process, thread) holds one connection across operations,
    so an operation pays no open and no pragmas.  A fork's child opens
    its own, and a file deleted and re-created at the same path gets a
    new one.  Use it as ``with connect_store(path) as conn:`` (which
    commits or rolls back) and fetch every cursor inside the block, so
    no read snapshot outlives its operation."""
    held = getattr(_HELD, "conns", None)
    if held is None or held.pid != os.getpid():
        held = _HELD.conns = _Held()
    name = os.fspath(path)
    conn, file_id = held.pop(name, (None, None))
    if conn is not None and (file_id is None or file_id != _file_id(name)):
        conn.close()
        conn = None
    if conn is None:
        conn = sqlite3.connect(name, timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        file_id = _file_id(name)
    held[name] = (conn, file_id)
    if len(held) > _HELD_PER_THREAD:
        held.pop(next(iter(held)))[0].close()
    return conn


class StoreError(Exception):
    """A store directory that cannot be created or opened."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sweeps"


class ResultCache:
    """Content-addressed store of pickled results: one table of
    ``<directory>/fabric.db``, shared by sweep cells, autotune design
    points and a service's job documents.  A put commits one row whole.
    """

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.file = self.directory / "fabric.db"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # A table name no earlier layout used: an old data dir's
            # ``results`` rows (and ``cache/`` pickle files) just miss.
            with connect_store(self.file) as conn:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries "
                    "(key TEXT PRIMARY KEY, value BLOB NOT NULL)"
                )
        except (OSError, sqlite3.Error) as err:
            raise StoreError(
                f"cannot open the result store in {self.directory}: {err}"
            ) from None

    def get(self, key: str) -> Optional[Any]:
        """The stored value for ``key``, or None; a row that no longer
        unpickles is a miss too, so the result is simply recomputed."""
        with connect_store(self.file) as conn:
            row = conn.execute(
                "SELECT value FROM entries WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        try:
            return pickle.loads(row[0])
        except Exception:
            return None

    def put(self, key: str, value: Any) -> None:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with connect_store(self.file) as conn:
            conn.execute(
                "INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, blob)
            )


# -- cell execution (top level so worker processes can pickle it) -------------

def execute_cell(cell: Cell) -> Any:
    """Run one cell to completion; pure function of the cell."""
    if cell.mode == "ipc":
        return run_ipc(
            cell.benchmark, cell.protection, cell.config,
            n_insts=cell.n_insts, variant=cell.variant,
        )
    return run_refs(
        cell.benchmark, cell.protection, cell.config, variant=cell.variant
    )


def front_end_key(cell: Cell) -> Optional[tuple]:
    """What an ipc cell's recorded front end depends on — the
    benchmark, the geometry, the seed and the instruction count — or
    None for a reference-mode cell."""
    if cell.mode != "ipc":
        return None
    config = cell.config
    return (
        cell.benchmark, config.geometry, config.seed,
        ipc_instructions(config, cell.n_insts),
    )


def tape_key(cell: Cell) -> Optional[tuple]:
    """A reference-mode cell's :func:`~repro.experiments.runner.l1_tape_key`,
    or None for an ipc cell.  Cells with one key (they may differ below
    the L1: protection, variant, L2 replacement or capacity, bus) share
    the runner's memoised tape when they run back to back."""
    if cell.mode == "ipc":
        return None
    machine = cell.config.geometry.hierarchy_config()
    return l1_tape_key(
        cell.benchmark, cell.config, machine.l1d,
        machine.write_buffer_entries, machine.l2.line_bytes,
    )


def execute_unit(unit: Tuple[Cell, ...]) -> Tuple[List[Any], PhaseProfiler]:
    """Run one work unit: reference-mode cells with one :func:`tape_key`
    one after another (through :func:`execute_cell`, looked up when
    called), or ipc cells with one :func:`front_end_key` through one
    recorded front end (:func:`~repro.experiments.runner.run_ipc_group`).
    Returns the outputs in unit order and the unit's core phases."""
    profiler = PhaseProfiler()
    first = unit[0]
    if first.mode != "ipc":
        return [execute_cell(cell) for cell in unit], profiler
    outputs = run_ipc_group(
        first.benchmark, [(cell.protection, cell.variant) for cell in unit],
        first.config, n_insts=first.n_insts, profiler=profiler,
    )
    return outputs, profiler


def build_cell_hierarchy(cell: Cell):
    """The :class:`~repro.cache.hierarchy.MemoryHierarchy` a cell runs
    against (:func:`~repro.experiments.runner.build_hierarchy`)."""
    return build_hierarchy(cell.config, cell.protection, cell.variant)


def _map_indexed(payload):
    """One dispatched item: (func, index, item) -> (index, result,
    worker wall-time).  Module-level so pool workers can unpickle it."""
    func, index, item = payload
    t0 = time.perf_counter()
    output = func(item)
    return index, output, time.perf_counter() - t0


def _simulated_work(output: Any) -> int:
    """Simulated work of one result, for throughput reporting."""
    refs = getattr(output, "refs", None)
    if refs is not None:
        return int(refs)
    result = getattr(output, "result", None)
    if result is not None:
        return int(getattr(result, "instructions", 0))
    return 0


# -- statistics ---------------------------------------------------------------

@dataclass
class CellRecord:
    """Per-cell accounting surfaced in reports."""

    label: str
    key: str
    wall_s: float
    #: Simulated work: references, or instructions for an ipc cell.
    refs: int
    cached: bool
    #: What :attr:`refs` counts, as the summary line names it.
    unit: str = "refs"

    @property
    def refs_per_s(self) -> float:
        return self.refs / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class SweepStats:
    """Aggregate accounting of every cell an engine has run."""

    records: List[CellRecord] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def cells(self) -> int:
        return len(self.records)

    @property
    def cached(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def executed(self) -> int:
        return self.cells - self.cached

    @property
    def refs(self) -> int:
        return sum(r.refs for r in self.records if not r.cached)

    @property
    def refs_per_s(self) -> float:
        busy = sum(r.wall_s for r in self.records if not r.cached)
        return self.refs / busy if busy > 0 else 0.0

    def summary(self) -> str:
        line = (
            f"sweep: {self.cells} cells "
            f"({self.executed} executed, {self.cached} cached), "
            f"{self.wall_s:.1f}s wall"
        )
        work: Dict[str, List[float]] = {}
        for r in self.records:
            if not r.cached:
                total = work.setdefault(r.unit, [0, 0.0])
                total[0] += r.refs
                total[1] += r.wall_s
        for unit, (count, busy) in work.items():
            rate = count / busy if busy > 0 else 0.0
            line += f", {count} {unit} at {rate:,.0f} {unit}/s"
        if work:
            line += " per worker"
        return line


# -- the engine ---------------------------------------------------------------

class SweepEngine:
    """Runs grids of :class:`Cell` in parallel with result caching.

    ``jobs``
        Worker processes; ``1`` (the default) runs inline in this
        process, which is also the reference for determinism tests.
    ``cache``
        ``None``/``False`` — no caching (the default, so library calls
        behave exactly like direct ``run_refs``); ``True`` — cache under
        :func:`default_cache_dir`; a path or :class:`ResultCache` — use
        that store.
    ``progress``
        Emit a one-line progress ticker to stderr as cells complete.
    ``on_cell``
        Optional callback invoked with each completed
        :class:`CellRecord` (cached hits included) as it lands — the
        hook the job service uses to stream per-cell progress events.
        Called from the submitting thread, never from pool workers.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[ResultCache, str, Path, bool, None] = None,
        progress: bool = False,
        on_cell: Optional[Callable[["CellRecord"], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        if cache is None or cache is False:
            self.cache: Optional[ResultCache] = None
        elif cache is True:
            self.cache = ResultCache()
        elif isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self.progress = progress
        self.on_cell = on_cell
        self.stats = SweepStats()
        #: Wall-time accounting by engine phase (cache-lookup / execute).
        self.profiler = PhaseProfiler()

    # -- public API --------------------------------------------------------

    def run_cells(self, cells: Sequence[Cell]) -> List[Any]:
        """Run every cell; outputs are returned in submission order.

        Pending cells are dispatched as work units
        (:func:`execute_unit`): ipc cells with one
        :func:`front_end_key` together, and reference-mode cells with
        one :func:`tape_key` together when there are at least ``jobs``
        tape keys, so each benchmark's L1 tape is recorded once.  With
        fewer keys than workers each reference cell goes alone, so a
        one-benchmark grid still runs on every worker.
        Caching, records, ticks and ``on_cell`` stay per cell; a unit's
        wall time is shared evenly among its cells, and its core phases
        join :attr:`profiler`.
        """
        cells = list(cells)
        if not cells:
            return []
        t0 = time.perf_counter()
        version = code_version()
        keys = [cell_key(cell, version) for cell in cells]
        outputs: List[Any] = [None] * len(cells)
        units: Dict[Any, List[int]] = {}

        done = 0
        pending: List[int] = []
        with self.profiler.phase("cache-lookup", events=len(cells)):
            for i, key in enumerate(keys):
                hit = self.cache.get(key) if self.cache is not None else None
                if hit is not None:
                    outputs[i] = hit
                    done += 1
                    self._record(cells[i], key, 0.0, hit, cached=True)
                    self._tick(done, len(cells), cells[i], True)
                else:
                    pending.append(i)
        # Fewer tapes than workers: one unit per tape would leave workers
        # idle, so each reference cell goes alone.
        tapes = {tape_key(cells[i]) for i in pending} - {None}
        by_tape = len(tapes) >= self.jobs
        for i in pending:
            group = front_end_key(cells[i])
            if group is None:
                group = tape_key(cells[i]) if by_tape else i
            units.setdefault(group, []).append(i)

        members = list(units.values())
        for j, (unit_outputs, phases), wall in self._dispatch(
            execute_unit,
            [tuple(cells[i] for i in unit) for unit in members],
        ):
            self.profiler.merge(phases)
            share = wall / len(members[j])
            for i, output in zip(members[j], unit_outputs):
                outputs[i] = output
                self._store(keys[i], output)
                self._record(cells[i], keys[i], share, output, cached=False)
                done += 1
                self._tick(done, len(cells), cells[i], False, share)
        self.stats.wall_s += time.perf_counter() - t0
        self._tick_done()
        return outputs

    def run(self, cell: Cell) -> Any:
        """Run a single cell (through the cache, inline)."""
        return self.run_cells([cell])[0]

    def run_refs(
        self,
        benchmark: str,
        protection: Optional[ProtectionConfig],
        config: RunConfig,
        variant: str = "standard",
    ) -> Any:
        """Drop-in for :func:`repro.experiments.runner.run_refs`."""
        return self.run(Cell(benchmark, protection, config, variant=variant))

    def map_tasks(
        self,
        func: Callable[[Any], Any],
        items: Sequence[Any],
        phase: str = "map",
    ) -> List[Any]:
        """Run ``func`` over ``items`` with the engine's worker pool.

        The generic sibling of :meth:`run_cells` for workloads that are
        not simulation cells (e.g. fault-injection shards): same jobs
        semantics (``jobs == 1`` runs inline, the determinism
        reference), results returned in submission order regardless of
        completion order, per-item worker wall time folded into the
        profiler under ``phase``.  No result caching — callers with
        durable state (campaign checkpoints) manage their own.

        ``func`` must be a module-level callable and ``items``
        picklable, so worker processes can receive them.
        """
        items = list(items)
        if not items:
            return []
        t0 = time.perf_counter()
        outputs: List[Any] = [None] * len(items)
        for i, output, wall in self._dispatch(func, items):
            outputs[i] = output
            self.profiler.add(phase, wall, 1)
        self.stats.wall_s += time.perf_counter() - t0
        return outputs

    def summary(self) -> str:
        """Human-readable accounting of everything run so far."""
        text = self.stats.summary()
        if len(self.profiler):
            text += "\n" + self.profiler.summary()
        return text

    # -- internals ---------------------------------------------------------

    def _dispatch(self, func: Callable[[Any], Any], items: List[Any]):
        """Yield ``(index, output, worker wall-time)`` as each item
        finishes: inline when ``jobs == 1`` or there is one item (the
        determinism reference), otherwise in completion order from a
        worker pool.  Callers place outputs by index."""
        if self.jobs == 1 or len(items) < 2:
            for i, item in enumerate(items):
                yield _map_indexed((func, i, item))
            return
        import multiprocessing

        with multiprocessing.Pool(processes=min(self.jobs, len(items))) as pool:
            yield from pool.imap_unordered(
                _map_indexed, [(func, i, item) for i, item in enumerate(items)]
            )

    def _store(self, key: str, output: Any) -> None:
        if self.cache is not None:
            self.cache.put(key, output)

    def _record(self, cell, key, wall, output, cached) -> None:
        refs = _simulated_work(output)
        if not cached:
            # Worker wall-time: under a pool this sums across processes,
            # so the events/s line reads as per-worker throughput.
            self.profiler.add("execute", wall, refs)
        record = CellRecord(
            label=cell.label,
            key=key,
            wall_s=wall,
            refs=refs,
            cached=cached,
            unit="insts" if cell.mode == "ipc" else "refs",
        )
        self.stats.records.append(record)
        if self.on_cell is not None:
            self.on_cell(record)

    def _tick(self, done, total, cell, cached, wall: float = 0.0) -> None:
        if not self.progress:
            return
        status = "cache" if cached else f"{wall:.2f}s"
        sys.stderr.write(f"\r[{done}/{total}] {cell.label} ({status})\033[K")
        sys.stderr.flush()

    def _tick_done(self) -> None:
        if self.progress:
            sys.stderr.write("\n")
            sys.stderr.flush()


__all__ = [
    "Cell",
    "CellRecord",
    "ResultCache",
    "SweepEngine",
    "StoreError",
    "SweepStats",
    "build_cell_hierarchy",
    "cell_key",
    "code_version",
    "connect_store",
    "default_cache_dir",
    "execute_cell",
    "execute_unit",
    "front_end_key",
    "tape_key",
]
