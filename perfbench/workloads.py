"""The benchmark's four workloads, driven through ``repro.api`` and
``repro.service`` only.

Each workload builds its requests from the seed and runs them as one
*pass* (the timed body).  A pass times every api call or service round
trip it makes as one operation, under a key.  A run repeats passes; every
pass of a run must produce the same output digest.  ``checks`` runs the
heavier output checks once per run, untimed.

The simulation cells run at the sizes the program serves by default: the
``FiguresRequest`` and ``IpcRequest`` defaults.  Run time is fitted by
running fewer benchmarks per pass, not by shrinking cells.

The host shares its cores with other tenants, whose load slows every
operation by up to ~75%, in bursts and for minutes at a time.  Two
measures keep the gated times steady:

* the simulation workloads are single-threaded and CPU-bound, so they are
  timed in process CPU time, which leaves out the time the host gives to
  other tenants; ``service`` waits on its server threads and sockets, so
  it is timed in wall time (:attr:`Workload.clock`);
* the gated times are host-relative: while passes run, every
  :data:`CAL_EVERY_S` of run time an interval timer interrupts the run and
  :class:`HostSpeed` times a fixed pure-Python loop on the same clock,
  leaving these samples out of every operation's time.  A gated time is
  the mean pass time over the mean loop time: both are averaged over the
  same stretch of run time, so a slow spell slows both alike and the
  ratio stays put.  Its unit is the loop's time in the same run
  (``loops``).

The measured seconds are reported beside it; ``perfbench/spread.py``
prints the seed-to-seed spread of both, from the same runs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

# -- sizes ---------------------------------------------------------------------

#: Benchmarks of the figures workload: one FP (streaming) and one INT
#: (pointer-chasing).  Each runs the whole Figure 1/3-8 grid: the plain-L2
#: baseline, cleaning alone at the four paper intervals, and the full
#: scheme (1M cleaning + 1-entry shared ECC array).
FIGURE_BENCHMARKS = ("swim", "mcf")

#: (benchmark, variant) org-vs-ours pairs of the ipc workload, each at the
#: ``IpcRequest`` defaults.
IPC_PAIRS = (("swim", "standard"), ("mcf", "standard"), ("swim", "silent-write"))
#: Section 5.2 of the paper: mean IPC loss, for reference only.
PAPER_IPC_LOSS_PCT = {"fp": 0.14, "int": 0.65}

#: (scenario, codec, Wilson half-width target) of the auto campaigns.
CAMPAIGN_CELLS = (
    ("nominal", "secded", 0.0009),
    ("burst-heavy", "dected", 0.0023),
    ("rowcol", "rs-symbol", 0.0023),
)

#: Autotune grids: B shares two of its three design points with A.
SERVICE_GRID = {
    "benchmarks": ["mesa"],
    "schemes": ["non-uniform", "uniform-ecc"],
    "codecs": ["secded"],
    "objectives": ["area", "fit"],
    "trials": 1000,
    "trials_per_shard": 500,
    "refs": 3000,
    "warmup": 1000,
}
SERVICE_INTERVALS_A = [262144, 1048576]
SERVICE_INTERVALS_B = [1048576, 4194304]
SERVICE_ROUND_TRIPS = 600

#: Op-key prefix of the operations a workload's throughput covers.
RATE = "rate/"

#: Period of the host-speed samples, seconds of run time.
CAL_EVERY_S = 0.25


def _spin() -> int:
    """The fixed pure-Python loop host speed is measured with."""
    total, table = 0, {}
    for i in range(60_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


class HostSpeed:
    """Samples of :func:`_spin` on ``clock``, one every :data:`CAL_EVERY_S`
    of wall time while active (a context manager), wherever the run is at
    that moment."""

    def __init__(self, clock: Callable[[], float] = perf) -> None:
        self._now = clock
        self.samples: List[float] = []
        self._spent = 0.0
        self._count = 0

    def clock(self) -> float:
        """Seconds, not counting the time spent sampling."""
        while True:
            count = self._count
            now = self._now() - self._spent
            if count == self._count:  # no sample landed in between
                return now

    def _sample(self, signum, frame) -> None:
        t0 = self._now()
        _spin()
        dt = self._now() - t0
        self.samples.append(dt)
        self._spent += dt
        self._count += 1

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_s(self) -> float:
        """Mean loop time over the samples."""
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        return statistics.fmean(self.samples)


def digest(doc: Any) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Pass:
    """What one pass measured."""

    #: Work units of the workload's throughput (refs, insts, trials...).
    units: float = 0
    #: Wall time of the whole pass, host-speed samples included.
    wall_s: float = 0.0
    digest: str = ""
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: (operation key, seconds measured on the sampler's clock) in order.
    ops: List[Tuple[str, float]] = field(default_factory=list)
    #: Named host-time samples as measured (round-trip latencies).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Named values measured by this pass (simulated statistics, counts).
    values: Dict[str, float] = field(default_factory=dict)
    #: The run's host-speed sampler, whose clock times the operations.
    host: HostSpeed = field(default_factory=HostSpeed)

    def time_s(self, prefix: str = "") -> float:
        """Measured time of the pass's operations (those under ``prefix``)."""
        return sum(s for key, s in self.ops if key.startswith(prefix))

    def run(self, key: str, func: Callable[[], Any]) -> Any:
        """Time one operation under ``key``, counting it and any failure."""
        self.attempted += 1
        t0 = self.host.clock()
        try:
            return func()
        except Exception as err:  # a failed operation is reported, not raised
            self.failures.append(f"{key}: {type(err).__name__}: {err}")
            return None
        finally:
            self.ops.append((key, self.host.clock() - t0))

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {name}")


def mean_s(passes: List[Pass], prefix: str = "") -> float:
    """Mean over the passes of their measured time under ``prefix``."""
    return statistics.fmean(p.time_s(prefix) for p in passes)


def median_s(passes: List[Pass], prefix: str) -> float:
    """Median over the passes of their measured time under ``prefix``."""
    return statistics.median(p.time_s(prefix) for p in passes)


def tail(samples: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it; (nan, nan) with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return float("nan"), float("nan")
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _recording_engine():
    """A sequential, cache-off :class:`SweepEngine` that keeps every
    simulation output, so the per-layer counts can be read from each
    run's ``hierarchy.snapshot()``."""
    from repro.experiments.pool import SweepEngine

    class RecordingEngine(SweepEngine):
        def __init__(self) -> None:
            super().__init__(jobs=1)
            self.outputs: List[Any] = []

        def run_cells(self, cells):
            outputs = super().run_cells(cells)
            self.outputs.extend(outputs)
            return outputs

    return RecordingEngine()


def _snapshot_counts(outputs: List[Any]) -> Dict[str, float]:
    """Per-layer counters summed over the simulation outputs."""
    totals: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0) + value

    def accesses(stats: Dict[str, float]) -> Tuple[float, float]:
        hits = stats.get("read_hits", 0) + stats.get("write_hits", 0)
        misses = stats.get("read_misses", 0) + stats.get("write_misses", 0)
        return hits, misses

    for out in outputs:
        snap = out.snapshot or {}
        add("cache.hierarchy.refs", snap.get("hierarchy", {}).get("refs", 0))
        for l1 in ("l1i", "l1d"):
            hits, misses = accesses(snap.get(l1, {}))
            add("cache.l1.accesses", hits + misses)
            add("cache.l1.hits", hits)
        l2 = snap.get("l2", {})
        hits, misses = accesses(l2)
        if out.protection is None:
            add("cache.l2.accesses", hits + misses)
            add("cache.l2.misses", misses)
        else:
            add("core.protected_cache.accesses", hits + misses)
        for mshr in ("l1d_mshr", "l1i_mshr"):
            add("cache.mshr.allocations", snap.get(mshr, {}).get("allocations", 0))
            add("cache.mshr.merges", snap.get(mshr, {}).get("merges", 0))
        wb = snap.get("write_buffer", {})
        add("cache.write_buffer.inserts", wb.get("inserts", 0))
        add("cache.write_buffer.coalesced", wb.get("coalesced", 0))
        mem = snap.get("memory", {})
        add("cache.mainmem.reads", mem.get("reads", 0))
        add("cache.mainmem.writes", mem.get("writes", 0))
        add("cache.mainmem.busy_cycles", mem.get("busy_cycles", 0))
        add("core.cleaning.checks", snap.get("l2.cleaning", {}).get("checks", 0))
        add("core.cleaning.writebacks", l2.get("writebacks_cleaning", 0))
        ecc = snap.get("l2.ecc_array", {})
        add("core.ecc_array.allocations", ecc.get("allocations", 0))
        add("core.ecc_array.evictions", ecc.get("evictions", 0))
        add("core.traffic.silent_writes", l2.get("silent_writes", 0))
        add("core.traffic.elided_ecc_updates", l2.get("elided_ecc_updates", 0))
    hits = totals.pop("cache.l1.hits", 0)
    misses = totals.pop("cache.l2.misses", 0)
    l1, l2 = totals.get("cache.l1.accesses"), totals.get("cache.l2.accesses")
    totals["cache.l1.hit_rate"] = hits / l1 if l1 else 0.0
    totals["cache.l2.miss_rate"] = misses / l2 if l2 else 0.0
    return totals


class Workload:
    """One named workload: requests from a seed, passes, checks."""

    name = ""
    #: What one throughput unit is.
    unit_name = ""
    #: The name of this workload's throughput metric.
    throughput_name = ""
    #: The clock operations are timed on (see the module docstring).
    clock = staticmethod(time.process_time)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.host = HostSpeed(self.clock)
        self._dirs = 0

    def setup(self) -> None:
        """Imports and lazy one-time state, outside the timed body."""
        from repro.experiments.pool import code_version

        code_version()  # hashes the source tree once per process

    def teardown(self) -> None:
        """Release what :meth:`setup` left running (untimed)."""

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.scratch / f"{self.name}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def checks(self, passes: List[Pass]) -> List[Tuple[str, bool]]:
        """Untimed output checks, once per run."""
        digests = {p.digest for p in passes}
        return [("every pass has the same output digest", len(digests) == 1)]

    def e2e(self, passes: List[Pass]) -> Dict[str, Tuple[float, str, int]]:
        """The workload's own end-to-end metrics: name -> (value, unit, n);
        host times are measured seconds."""
        return {}


# -- figures -------------------------------------------------------------------


def _grid_label(request) -> str:
    """The figure column a reference-mode request fills."""
    from repro.experiments.runner import interval_label

    if request.interval is None:
        return "org"
    if request.ecc_entries is not None:
        return "full"
    return interval_label(request.interval)


class Figures(Workload):
    name = "figures"
    unit_name = "refs"
    throughput_name = "refs_per_s"

    def setup(self) -> None:
        super().setup()
        from repro import api  # noqa: F401  (import cost belongs to set-up)
        from repro.core.protected_cache import ProtectionConfig
        from repro.experiments.pool import Cell, build_cell_hierarchy
        from repro.experiments.runner import RunConfig

        build_cell_hierarchy(
            Cell("mesa", ProtectionConfig(), RunConfig(seed=self.seed))
        )

    def requests(self):
        """The Figure 1/3-8 grid of each benchmark, at the sizes
        ``repro figures`` runs by default."""
        from repro import api
        from repro.experiments.figures import CHOSEN_INTERVAL
        from repro.experiments.runner import RunConfig

        size = api.FiguresRequest()
        grid = (
            [(None, None)]
            + [(i, None) for i in RunConfig().geometry.paper_intervals]
            + [(CHOSEN_INTERVAL, 1)]
        )
        return [
            api.RunRequest(
                benchmark=benchmark, interval=interval, ecc_entries=entries,
                refs=size.refs, warmup=size.warmup, seed=self.seed,
            )
            for benchmark in FIGURE_BENCHMARKS
            for interval, entries in grid
        ]

    def run_pass(self) -> Pass:
        from repro import api

        engine = _recording_engine()
        requests = self.requests()
        result = Pass(host=self.host)
        responses = [
            result.run(
                f"{RATE}{request.benchmark}/{_grid_label(request)}",
                lambda: api.run(request, engine=engine),
            )
            for request in requests
        ]

        # A reference-mode run raises out of api.run unless it passed
        # check_invariants, so a response for every request means every
        # run passed.
        result.check(
            "every ref-mode run passed check_invariants",
            len(engine.outputs) == len(requests) and None not in responses,
        )
        if None in responses:
            return result
        result.units = sum(out.refs for out in engine.outputs)
        result.digest = digest([r.as_dict() for r in responses])
        # Figure 8's "total": write-backs per load/store, full scheme.
        result.values["sim_writeback_pct"] = statistics.fmean(
            100.0 * r.writeback_fraction
            for request, r in zip(requests, responses)
            if _grid_label(request) == "full"
        )
        result.values.update(_snapshot_counts(engine.outputs))
        result.values.update(self._cleaning_by_column(requests, engine.outputs))
        return result

    @staticmethod
    def _cleaning_by_column(requests, outputs) -> Dict[str, float]:
        """Per figure column, summed over benchmarks: cleaning checks and
        write-backs, ECC-array evictions, and full L2 sweeps per cell
        (set checks / L2 sets), which shows how far each interval's
        cleaning FSM got in the measured window."""
        from repro.experiments.runner import RunConfig

        n_sets = RunConfig().geometry.hierarchy_config().l2.n_sets
        out: Dict[str, float] = {}
        for request, run in zip(requests, outputs):
            column = _grid_label(request)
            if column == "org":
                continue
            snap = run.snapshot or {}
            for name, value in (
                ("checks", snap.get("l2.cleaning", {}).get("checks", 0)),
                ("writebacks", snap.get("l2", {}).get("writebacks_cleaning", 0)),
                ("ecc_evictions",
                 snap.get("l2.ecc_array", {}).get("evictions", 0)),
            ):
                key = f"column.{column}.{name}"
                out[key] = out.get(key, 0) + value
            key = f"column.{column}.sweeps_per_cell"
            out[key] = out.get(key, 0) + (
                snap.get("l2.cleaning", {}).get("checks", 0)
                / n_sets / len(FIGURE_BENCHMARKS)
            )
        return out

    def e2e(self, passes):
        return {
            "sim_writeback_pct": (
                passes[0].values.get("sim_writeback_pct", 0.0), "%", 1,
            ),
        }


# -- ipc -----------------------------------------------------------------------


class Ipc(Workload):
    name = "ipc"
    unit_name = "insts"
    throughput_name = "insts_per_s"

    def setup(self) -> None:
        super().setup()
        from repro import api  # noqa: F401  (import cost belongs to set-up)
        from repro.cpu.ooo import OoOCore
        from repro.experiments.pool import Cell, build_cell_hierarchy
        from repro.experiments.runner import RunConfig

        OoOCore(build_cell_hierarchy(Cell("swim", None, RunConfig())))

    def requests(self):
        """The pairs at the ``IpcRequest`` defaults (``repro ipc``)."""
        from repro import api

        return [
            api.IpcRequest(benchmark=benchmark, seed=self.seed, variant=variant)
            for benchmark, variant in IPC_PAIRS
        ]

    def run_pass(self) -> Pass:
        from repro import api

        engine = _recording_engine()
        result = Pass(host=self.host)
        responses = []
        for request in self.requests():
            response = result.run(
                f"{RATE}{request.benchmark}/{request.variant}",
                lambda: api.ipc(request, engine=engine),
            )
            if response is not None:
                responses.append(response)
        result.units = sum(out.result.instructions for out in engine.outputs)
        result.digest = digest([r.as_dict() for r in responses])
        result.values.update(_snapshot_counts(engine.outputs))
        result.values["refs"] = sum(
            (out.snapshot or {}).get("hierarchy", {}).get("loads_stores", 0)
            for out in engine.outputs
        )
        result.values["cpu.ooo.insts"] = result.units
        result.values["cpu.ooo.sim_cycles"] = sum(
            out.result.cycles for out in engine.outputs
        )
        losses = {
            r.benchmark: r.ipc_loss_pct
            for r in responses if r.request.variant == "standard"
        }
        for benchmark, loss in losses.items():
            result.values[f"sim_ipc_loss_pct.{benchmark}"] = loss
        if losses:
            result.values["sim_ipc_loss_pct"] = statistics.fmean(
                losses.values()
            )
        return result

    def e2e(self, passes):
        values = passes[0].values
        return {
            "refs_per_s": (
                values["refs"] / mean_s(passes, RATE), "refs/s", len(passes),
            ),
            "sim_ipc_loss_pct": (values.get("sim_ipc_loss_pct", 0.0), "%", 1),
            "sim_ipc_loss_pct.swim (FP)": (
                values.get("sim_ipc_loss_pct.swim", 0.0), "%", 1,
            ),
            "sim_ipc_loss_pct.mcf (INT)": (
                values.get("sim_ipc_loss_pct.mcf", 0.0), "%", 1,
            ),
        }


# -- campaign ------------------------------------------------------------------


def _campaign_numbers(response) -> Dict[str, Any]:
    """A campaign document minus the resume/execute bookkeeping, which
    legitimately differs between a cold and a resumed run."""
    doc = response.as_dict()["campaign"]
    return {k: v for k, v in doc.items() if not k.endswith("_shards")}


class Campaign(Workload):
    name = "campaign"
    unit_name = "trials"
    throughput_name = "trials_per_s"

    def setup(self) -> None:
        super().setup()
        from repro import api  # noqa: F401  (import cost belongs to set-up)
        from repro.ecc import get_codec
        from repro.reliability.kernel import LinePool
        from repro.reliability.scenarios import get_scenario

        LinePool.shared(64)
        for scenario, codec, _ in CAMPAIGN_CELLS:
            get_scenario(scenario)
            get_codec(codec)

    def requests(self, directory: Path):
        from repro import api

        return [
            api.ReliabilityRequest(
                trials=None, target=target, scenario=scenario, codec=codec,
                seed=self.seed,
                checkpoint=str(directory / f"{scenario}-{codec}.jsonl"),
            )
            for scenario, codec, target in CAMPAIGN_CELLS
        ]

    def run_pass(self) -> Pass:
        from repro import api
        from repro.experiments.pool import SweepEngine

        requests = self.requests(self._fresh_dir())
        result = Pass(host=self.host)
        rounds = 0

        def progress(event):
            nonlocal rounds
            rounds += event.get("type") == "round"

        cold = [
            result.run(f"{RATE}{request.scenario}", lambda: api.reliability(
                request, engine=SweepEngine(jobs=1), progress=progress,
            ))
            for request in requests
        ]
        resumed = [
            result.run(f"resume/{request.scenario}", lambda: api.reliability(
                request, engine=SweepEngine(jobs=1),
            ))
            for request in requests
        ]
        result.units = sum(r.result.total_trials for r in cold if r)
        result.values["reliability.campaign.rounds"] = rounds
        for before, after in zip(cold, resumed):
            if before is None or after is None:
                continue
            scenario = before.request.scenario
            result.check(f"{scenario}: resume executes zero shards",
                         after.executed_shards == 0)
            result.check(f"{scenario}: resumed estimate is bit-identical",
                         _campaign_numbers(after) == _campaign_numbers(before))
        result.digest = digest([_campaign_numbers(r) for r in cold if r])
        self._cold = cold
        return result

    def checks(self, passes):
        """An *interrupted* campaign resumes to the uninterrupted result."""
        from repro import api
        from repro.experiments.pool import SweepEngine
        from repro.reliability.campaign import CampaignAborted

        out = super().checks(passes)
        request = self.requests(self._fresh_dir())[0]
        rounds = [0]

        def progress(event):
            rounds[0] += event.get("type") == "round"

        try:
            api.reliability(
                request, engine=SweepEngine(jobs=1), progress=progress,
                should_abort=lambda: rounds[0] >= 1,
            )
            aborted = False
        except CampaignAborted:
            aborted = True
        resumed = api.reliability(request, engine=SweepEngine(jobs=1))
        out.append(("campaign interrupted after one round", aborted))
        out.append((
            "interrupted + resumed campaign equals the uninterrupted one",
            _campaign_numbers(resumed) == _campaign_numbers(self._cold[0]),
        ))
        return out

    def e2e(self, passes):
        return {
            "resume_s": (median_s(passes, "resume/"), "s", len(passes)),
        }


# -- service -------------------------------------------------------------------


def _autotune_numbers(doc: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """An autotune document minus its executed/cached counters, which
    differ between a cold grid and one served from caches."""
    return {
        k: v for k, v in (doc or {}).items() if k not in ("executed", "cached")
    }


class Service(Workload):
    name = "service"
    unit_name = "round trips"
    throughput_name = "round_trips_per_s"
    clock = staticmethod(perf)

    def grid(self, intervals: List[int]) -> Dict[str, Any]:
        return dict(SERVICE_GRID, intervals=intervals, seed=self.seed)

    def setup(self) -> None:
        super().setup()
        from repro.service.server import ReproService

        self._service = ReproService(
            port=0, data_dir=str(self._fresh_dir()), workers=1
        ).start()

    def teardown(self) -> None:
        self._service.shutdown()

    def run_pass(self) -> Pass:
        from repro.service.client import ServiceClient
        from repro.service.server import ReproService

        data_dir = str(self._fresh_dir())
        grid_a = self.grid(SERVICE_INTERVALS_A)
        grid_b = self.grid(SERVICE_INTERVALS_B)
        result = Pass(host=self.host)
        shared = submissions = 0
        docs: Dict[str, Any] = {}

        def round_trip(client, grid):
            nonlocal shared, submissions
            sub = client.submit("autotune", grid)
            job = sub["job"]
            submissions += 1
            if not sub["created"] or job["state"] == "done":
                shared += 1  # an existing job or a stored result
            return job["id"], client.result(job["id"], timeout=120)

        def start():
            return ReproService(port=0, data_dir=data_dir, workers=1).start()

        # Stopping a server waits out its poll interval (idle time), so
        # the shutdowns are outside the timed operations.
        cold = result.run("cold/start", start)
        try:
            client = ServiceClient(cold.url)
            got = result.run("cold/job", lambda: round_trip(client, grid_a))
            if got is not None:
                docs["a"] = got[1]
                self._job_info(result, client, got[0])
        finally:
            cold.shutdown()

        warm = result.run("warm/start", start)
        try:
            client = ServiceClient(warm.url)
            got = result.run("warm/fabric", lambda: round_trip(client, grid_a))
            result.check("a fresh replica serves the finished key",
                         got is not None and got[1] == docs.get("a"))
            got = result.run("warm/job", lambda: round_trip(client, grid_b))
            if got is not None:
                docs["b"] = got[1]
                self._job_info(result, client, got[0])
                result.check(
                    "the overlapping grid reuses its two shared points",
                    got[1]["cached"] == 2 and got[1]["executed"] == 1,
                )
            rtts = []
            for i in range(SERVICE_ROUND_TRIPS):
                grid, expected = ((grid_a, "a"), (grid_b, "b"))[i % 2]
                got = result.run(
                    f"{RATE}{i}", lambda: round_trip(client, grid)
                )
                rtts.append(result.ops[-1][1])
                if got is not None and got[1] != docs.get(expected):
                    result.failures.append(f"round trip {i}: another doc")
        finally:
            warm.shutdown()
        result.units = len(rtts)
        result.samples["rtt_s"] = rtts
        result.digest = digest([
            _autotune_numbers(docs.get("a")), _autotune_numbers(docs.get("b")),
        ])
        result.values["service.jobs.shared_ratio"] = shared / submissions
        result.values["autotune.points"] = sum(
            doc["executed"] + doc["cached"] for doc in docs.values()
        )
        self._doc_a = docs.get("a")
        return result

    @staticmethod
    def _job_info(result: Pass, client, job_id: str) -> None:
        info = client.job(job_id)
        result.values["service.jobs.queue_wait_s"] = (
            result.values.get("service.jobs.queue_wait_s", 0.0)
            + info["started_at"] - info["created_at"]
        )

    def checks(self, passes):
        """The served document equals a direct ``repro.api`` call."""
        from repro import api

        out = super().checks(passes)
        request = api.request_from_dict(
            api.AutotuneRequest, self.grid(SERVICE_INTERVALS_A)
        )
        direct = api.autotune(request).as_dict()
        out.append((
            "service result document equals a direct repro.api call",
            self._doc_a is not None
            and _autotune_numbers(direct) == _autotune_numbers(self._doc_a),
        ))
        return out

    def e2e(self, passes):
        # Latencies: the distribution over every pass.
        rtts = [s for p in passes for s in p.samples["rtt_s"]]
        pct, value = tail(rtts)
        return {
            "cold_job_s": (median_s(passes, "cold/job"), "s", len(passes)),
            "warm_job_s": (median_s(passes, "warm/job"), "s", len(passes)),
            "rtt_ms_p50": (1000 * statistics.median(rtts), "ms", len(rtts)),
            f"rtt_ms_tail (p{pct:.1f})": (1000 * value, "ms", len(rtts)),
        }


WORKLOADS = {w.name: w for w in (Figures, Ipc, Campaign, Service)}
