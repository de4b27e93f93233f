"""Spans recorded around the public calls into each layer of ``repro``.

Nothing under ``src/`` is modified: :class:`Installation` swaps the layer
entry points (class methods and module attributes) for thin wrappers for
the duration of the traced passes, and :meth:`Installation.uninstall`
puts the originals back.

Every wrapper records a span: its name, its duration and the part of that
duration its child spans cover.  A layer's *self time* is the duration
minus the children.  Spans are aggregated per name in memory (the hot
per-reference spans run millions of times a pass); spans of the coarse
layers (shards, campaigns, jobs, HTTP requests) are also kept as
individual records with their parent, and both are written out when the
run ends.  Each thread has its own span stack, so the job service's
worker and HTTP threads are traced too.
"""

from __future__ import annotations

import cProfile
import collections
import functools
import pstats
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Table key accumulating the time of spans that have no parent.
TOP = "<top>"
#: Spans few enough to keep one record each.
COARSE_PREFIXES = (
    "cpu.ooo", "reliability.shard", "reliability.campaign",
    "reliability.checkpoint", "experiments.pool.run", "autotune.",
    "api.", "service.",
)
#: Upper bound on individually kept span records.
MAX_RECORDS = 100_000

Key = Callable[[tuple, list], Optional[str]]


class SpanRecorder:
    """Thread-aware span aggregation: name -> [count, total_s, self_s]."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Tuple[str, Dict[str, List[float]]]] = []
        self.records: List[Tuple[str, Optional[str], float, float, str]] = []
        self.counters: Dict[str, int] = collections.Counter()
        self.origin = time.perf_counter()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: Dict[str, List[float]] = {}
            state = self._local.state = ([], table)
            with self._lock:
                self._tables.append((threading.current_thread().name, table))
        return state

    def wrap(
        self,
        func: Callable,
        name: Optional[str] = None,
        key: Optional[Key] = None,
    ) -> Callable:
        """``func`` inside a span named ``name`` (or ``key(args, stack)``;
        a ``None`` key passes the call through untraced).  A call nested
        directly in a span of the same name on the same object (a
        ``super()`` chain) is not counted twice.  The time of spans with
        no parent accumulates under :data:`TOP`."""
        recorder = self
        perf = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack, table = recorder._state()
            span = name if key is None else key(args, stack)
            if span is None:
                return func(*args, **kwargs)
            owner = args[0] if args else None
            if stack and stack[-1][0] == span and stack[-1][2] is owner:
                return func(*args, **kwargs)
            frame = [span, 0.0, owner]
            stack.append(frame)
            t0 = perf()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                row = table.get(span)
                if row is None:
                    row = table[span] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    top = table.get(TOP)
                    if top is None:
                        top = table[TOP] = [0, 0.0, 0.0]
                    top[0] += 1
                    top[1] += dt
                if span.startswith(COARSE_PREFIXES) and (
                    len(recorder.records) < MAX_RECORDS
                ):
                    recorder.records.append((
                        span,
                        stack[-1][0] if stack else None,
                        t0 - recorder.origin,
                        t1 - recorder.origin,
                        threading.current_thread().name,
                    ))

        return wrapper

    def iterate(self, iterable, name: str):
        """Each ``next()`` on ``iterable`` as one span (for generators)."""
        step = self.wrap(iter(iterable).__next__, name)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def totals(self) -> Dict[str, List[float]]:
        """Span name -> [count, total_s, self_s] summed over threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for _, table in tables:
            for span, (n, total, own) in list(table.items()):
                if span == TOP:
                    continue
                row = merged.setdefault(span, [0, 0.0, 0.0])
                row[0] += n
                row[1] += total
                row[2] += own
        return merged

    def main_thread_top_s(self) -> float:
        """Time the main thread spent inside any span."""
        main = threading.main_thread().name
        with self._lock:
            tables = list(self._tables)
        return sum(
            table.get(TOP, [0, 0.0])[1]
            for thread, table in tables
            if thread == main
        )


# -- what gets wrapped ---------------------------------------------------------


def _cache_span(args: tuple, stack: list) -> str:
    from repro.core.protected_cache import ProtectedL2

    cache = args[0]
    if cache.config.name.startswith("l1"):
        return "cache.l1"
    if isinstance(cache, ProtectedL2):
        return "core.protected_cache"
    return "cache.l2"


def _pool_span(args: tuple, stack: list) -> Optional[str]:
    # Only engines with a result cache count as the pool layer; a
    # cache-off engine is a plain loop around the simulation.
    return "experiments.pool.run" if args[0].cache is not None else None


def _execute_span(args: tuple, stack: list) -> Optional[str]:
    # A cell or design point executed by a cache-backed engine.
    if stack and stack[-1][0] == "experiments.pool.run":
        return "experiments.pool.execute"
    return None


def _targets() -> List[Tuple[Any, str, Any]]:
    """(owner, attribute, span name or key) for every traced entry point."""
    import importlib

    import repro.api as api
    import repro.autotune as autotune
    import repro.experiments.pool as pool
    # The package re-exports a function named like this module.
    explore = importlib.import_module("repro.autotune.explore")
    import repro.reliability.campaign as campaign
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.cache.mainmem import MainMemory
    from repro.cache.mshr import MshrFile
    from repro.cache.write_buffer import WriteBuffer
    from repro.core.decay import DecayCleaningL2
    from repro.core.eager import EagerL2
    from repro.core.protected_cache import ProtectedL2
    from repro.cpu.ooo import OoOCore
    from repro.reliability.checkpoint import CampaignCheckpoint
    from repro.service.client import ServiceClient
    from repro.service.fabric import FabricStore
    from repro.service.jobs import JobStore
    from repro.service.server import _Handler

    below = "cache.below_l1"
    checkpoint = "reliability.checkpoint"
    return [
        (SetAssociativeCache, "access", _cache_span),
        (EagerL2, "access", _cache_span),
        (ProtectedL2, "advance", "core.cleaning"),
        (DecayCleaningL2, "advance", "core.cleaning"),
        (MemoryHierarchy, "load", "cache.hierarchy"),
        (MemoryHierarchy, "store", "cache.hierarchy"),
        (MemoryHierarchy, "ifetch", "cache.hierarchy"),
        (WriteBuffer, "push", below),
        (WriteBuffer, "contains", below),
        (WriteBuffer, "drain_all", below),
        (MshrFile, "pending_ready", below),
        (MshrFile, "allocate", below),
        (MainMemory, "read", below),
        (MainMemory, "write", below),
        (OoOCore, "run", "cpu.ooo"),
        (campaign.CampaignEngine, "run", "reliability.campaign"),
        (CampaignCheckpoint, "load", f"{checkpoint}.load"),
        (CampaignCheckpoint, "append_shard", f"{checkpoint}.append"),
        (CampaignCheckpoint, "write_header", f"{checkpoint}.other"),
        (CampaignCheckpoint, "close", f"{checkpoint}.other"),
        (pool.SweepEngine, "run_cells", _pool_span),
        (pool.SweepEngine, "map_tasks", _pool_span),
        (pool, "execute_cell", _execute_span),
        (explore, "evaluate_point", _execute_span),
        (pool.ResultCache, "put", "experiments.pool.put"),
        (autotune, "explore", "autotune.explore"),
        (autotune, "pareto_front", "autotune.pareto"),
        (api, "request_key", "api.request_key"),
        (api, "execute", "api.execute"),
        (JobStore, "submit", "service.submit"),
        (FabricStore, "cached_result", "service.fabric.cached_result"),
        (FabricStore, "record_job", "service.fabric.record_job"),
        (FabricStore, "store_result", "service.fabric.store_result"),
        (_Handler, "do_GET", "service.http"),
        (_Handler, "do_POST", "service.http"),
        (_Handler, "_error", "service.error"),
        (ServiceClient, "submit", "service.client"),
        (ServiceClient, "result", "service.client"),
        (ServiceClient, "job", "service.client"),
    ]


class Installation:
    """The wrappers in place for traced passes; :meth:`uninstall` undoes."""

    def __init__(self, recorder: SpanRecorder) -> None:
        import repro.experiments.runner as runner
        import repro.reliability.campaign as campaign
        from repro.experiments.pool import ResultCache
        from repro.workloads.mix import InstructionMixer

        self._saved: List[Tuple[Any, str, Any]] = []
        for owner, attr, span in _targets():
            original = owner.__dict__[attr]
            if isinstance(span, str):
                self._set(owner, attr, recorder.wrap(original, span))
            else:
                self._set(owner, attr, recorder.wrap(original, key=span))

        # Reference and instruction streams are generators: time each
        # next() rather than the (instant) call that creates them.
        make_stream = runner.make_ref_stream

        def make_ref_stream(*args, **kwargs):
            return recorder.iterate(
                make_stream(*args, **kwargs), "workloads.generators"
            )

        self._set(runner, "make_ref_stream", make_ref_stream)
        expand = InstructionMixer.expand

        def mixer_expand(mixer, refs):
            return recorder.iterate(expand(mixer, refs), "workloads.mix")

        self._set(InstructionMixer, "expand", mixer_expand)

        # Result-cache lookups also count hits.
        lookup = recorder.wrap(ResultCache.get, "experiments.pool.lookup")

        def cache_get(cache, key):
            hit = lookup(cache, key)
            recorder.counters["experiments.pool.lookups"] += 1
            if hit is not None:
                recorder.counters["experiments.pool.hits"] += 1
            return hit

        self._set(ResultCache, "get", cache_get)

        # Shards are spanned per fault scenario and count their trials.
        run_shard = campaign.run_shard
        by_scenario: Dict[str, Callable] = {}

        def shard(spec):
            scenario = spec.model.scenario
            timed = by_scenario.get(scenario)
            if timed is None:
                timed = by_scenario[scenario] = recorder.wrap(
                    run_shard, f"reliability.shard.{scenario}"
                )
            recorder.counters[f"reliability.shard.trials.{scenario}"] += (
                spec.trials
            )
            return timed(spec)

        self._set(campaign, "run_shard", shard)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- cProfile cross-check ------------------------------------------------------


def span_subpackage(span: str) -> Optional[str]:
    """The ``repro.<subpackage>`` whose code a span times (None for the
    client side of the service, which only waits on the server)."""
    if span == "service.client":
        return None
    return "repro." + span.split(".", 1)[0]


def profile_subpackage(filename: str) -> str:
    """``repro.<subpackage>`` for a profiled code path, else ``other``."""
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    idx = path.rfind(marker)
    if idx < 0:
        return "other"
    rest = path[idx + len(marker):]
    if "/" not in rest:
        return "repro"
    return "repro." + rest.split("/", 1)[0]


class ThreadProfiles:
    """cProfile in the calling thread and in every thread started while
    active (the service's HTTP and job-worker threads).

    Before Python 3.12 a profiler sees only the thread that enabled it, so
    each new thread enables its own.  From 3.12 cProfile uses the single
    process-wide ``sys.monitoring`` slot (a second ``enable()`` raises) and
    one profiler sees every thread.
    """

    PER_THREAD = sys.version_info < (3, 12)

    def __init__(self) -> None:
        self.profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _start_in_thread(self, frame, event, arg) -> None:
        profile = cProfile.Profile()
        with self._lock:
            self.profiles.append(profile)
        profile.enable()

    def __enter__(self) -> "ThreadProfiles":
        main = cProfile.Profile()
        self.profiles.append(main)
        if self.PER_THREAD:
            threading.setprofile(self._start_in_thread)
        main.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiles[0].disable()
        if self.PER_THREAD:
            threading.setprofile(None)

    def self_time_by_subpackage(self) -> Dict[str, float]:
        out: Dict[str, float] = collections.defaultdict(float)
        with self._lock:
            profiles = list(self.profiles)
        for profile in profiles:
            for (filename, _, _), row in pstats.Stats(profile).stats.items():
                out[profile_subpackage(filename)] += row[2]  # tottime
        return dict(out)
