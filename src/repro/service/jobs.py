"""Job model and deduplicating job store for the repro service.

A **job** is one facade request (:mod:`repro.api`) executing
asynchronously.  Jobs are identified by :func:`repro.api.request_key` —
the same content-addressed digest family the sweep result cache uses —
so two identical submissions *are* the same job: the second submitter
attaches to the first's progress stream and result instead of paying
for a second execution.

Durability lives below the store, not in it, in the
:class:`~repro.service.fabric.FabricStore` at ``<data_dir>/fabric.db``:
its :class:`~repro.experiments.pool.ResultCache` table holds every
finished simulation cell, design point and job result document (so a
rerun executes only what is missing, and any replica serves any
finished job), and a reliability campaign's shards live only in its
``shards`` table, where replicas lease them from each other and a fresh
store resumes an interrupted campaign bit-identically.

The store's own job *records* are in-memory: a restart forgets them but
no completed *work*.
"""

from __future__ import annotations

import os
import queue
import sqlite3
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro import api
from repro.experiments.pool import SweepEngine
from repro.reliability.campaign import CampaignAborted
from repro.service.fabric import (
    FabricStore,
    ShardCoordinator,
    default_replica_id,
)

#: Job lifecycle; ``done``, ``error`` and ``canceled`` are terminal.
JOB_STATES = ("queued", "running", "done", "error", "canceled")

_TERMINAL = ("done", "error", "canceled")


def default_data_dir() -> Path:
    """``$REPRO_SERVICE_DIR`` or ``~/.cache/repro-service``."""
    env = os.environ.get("REPRO_SERVICE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-service"


class _StoredResult:
    """A result document recalled from the fabric's cluster-wide cache.

    Quacks like a response object (``as_dict``) so a cache-served job
    is indistinguishable from a locally computed one downstream.
    """

    def __init__(self, doc: Dict[str, Any]) -> None:
        self._doc = doc

    def as_dict(self) -> Dict[str, Any]:
        return self._doc


class Job:
    """One deduplicated unit of facade work plus its progress log.

    All mutable state is guarded by ``self.cond``; progress events are
    append-only dicts with a monotonically increasing ``seq``, so any
    number of streamers can follow one job from any offset.
    """

    def __init__(self, key: str, kind: str, request: Any) -> None:
        self.key = key
        self.kind = kind
        self.request = request
        self.state = "queued"
        self.result: Any = None
        self.error: Optional[str] = None
        self.events: List[Dict[str, Any]] = []
        self.submissions = 1
        self.cancel_requested = False
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cond = threading.Condition()

    # -- state -------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in _TERMINAL

    def emit(self, event: Mapping[str, Any]) -> None:
        """Append one progress event (thread-safe, wakes streamers)."""
        with self.cond:
            record = dict(event)
            record["seq"] = len(self.events)
            self.events.append(record)
            self.cond.notify_all()

    def _start(self) -> bool:
        """Transition to ``running``; False if the job was canceled
        while still queued (the worker must skip it)."""
        with self.cond:
            if self.finished:
                return False
            self.state = "running"
            self.started_at = time.time()
            self.events.append(
                {"seq": len(self.events), "type": "state", "state": "running"}
            )
            self.cond.notify_all()
            return True

    def _finish(self, state: str, result: Any = None,
                error: Optional[str] = None) -> bool:
        """Terminal transition; the final ``state`` event is appended
        under the same lock so streamers always see it last.  A second
        finish (e.g. cancel racing completion) is a no-op."""
        with self.cond:
            if self.finished:
                return False
            self.state = state
            self.result = result
            self.error = error
            self.finished_at = time.time()
            event: Dict[str, Any] = {
                "seq": len(self.events), "type": "state", "state": state,
            }
            if error is not None:
                event["error"] = error
            self.events.append(event)
            self.cond.notify_all()
            return True

    def cancel(self) -> bool:
        """Request cancellation; False if the job already finished.

        A still-queued job finishes ``canceled`` immediately; a running
        campaign observes the flag at its next round-boundary abort
        poll.  Non-campaign kinds cannot abort mid-execution — the flag
        is recorded but the job may still complete.
        """
        with self.cond:
            if self.finished:
                return False
            self.cancel_requested = True
            queued = self.state == "queued"
        if queued:
            self._finish("canceled")
        return True

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until the job is terminal (or ``timeout``); returns state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while not self.finished:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self.cond.wait(remaining if remaining is not None else 0.5)
            return self.state

    def iter_events(self, start: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield events from ``start`` until the terminal state event.

        Safe to call from any number of threads, before, during or
        after execution — a finished job replays its full log.  The
        job's condition is held only to snapshot a batch, never across
        a ``yield``: a consumer draining events arbitrarily slowly
        blocks nobody.
        """
        index = start
        while True:
            with self.cond:
                while index >= len(self.events) and not self.finished:
                    self.cond.wait(0.5)
                batch = self.events[index:]
            for event in batch:
                yield event
                index += 1
                if (
                    event.get("type") == "state"
                    and event.get("state") in _TERMINAL
                ):
                    return
            with self.cond:
                if self.finished and index >= len(self.events):
                    return

    # -- documents ---------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The job's JSON document (result served separately)."""
        with self.cond:
            return {
                "id": self.key,
                "kind": self.kind,
                "state": self.state,
                "request": self.request.as_dict(),
                "submissions": self.submissions,
                "events": len(self.events),
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": self.error,
            }

    def result_doc(self) -> Optional[Dict[str, Any]]:
        with self.cond:
            return None if self.result is None else self.result.as_dict()


class JobStore:
    """Deduplicating queue + worker pool executing facade requests.

    ``workers``
        Executor threads; ``0`` starts none — callers drain the queue
        themselves with :meth:`run_pending` (the deterministic test
        mode).
    ``jobs``
        Worker *processes* each job's :class:`SweepEngine` may fan out
        to (the CLI's ``--jobs``).
    ``engine_factory``
        Override engine construction, e.g. to inject a failing engine
        in tests.  Called with the :class:`Job`; must return a
        :class:`SweepEngine`-compatible object.
    ``replica_id``
        This store's identity in the fabric (worker registry, shard
        lease ownership).  Defaults to a unique per-instance id.
    ``lease_duration`` / ``worker_timeout`` / ``lease_batch``
        Fabric work-stealing knobs: how long a shard lease lasts
        without a heartbeat, when a silent replica counts as dead, and
        how many shards one lease call takes (None = a whole round —
        the single-replica fast path).
    """

    def __init__(
        self,
        data_dir: Optional[os.PathLike] = None,
        workers: int = 2,
        jobs: int = 1,
        engine_factory: Optional[Callable[[Job], Any]] = None,
        replica_id: Optional[str] = None,
        lease_duration: float = 30.0,
        worker_timeout: float = 60.0,
        lease_batch: Optional[int] = None,
    ) -> None:
        if workers < 0 or jobs < 1:
            raise ValueError("workers must be >= 0 and jobs >= 1")
        self.data_dir = Path(data_dir) if data_dir else default_data_dir()
        self.jobs_per_engine = jobs
        self.engine_factory = engine_factory
        self.replica_id = replica_id or default_replica_id()
        self.lease_batch = lease_batch
        self.fabric = FabricStore(
            self.data_dir,
            lease_duration=lease_duration,
            worker_timeout=worker_timeout,
        )
        self.fabric.register_worker(self.replica_id)
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._closed = threading.Event()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"repro-heartbeat-{self.replica_id}",
            daemon=True,
        )
        self._heartbeat_thread.start()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-job-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def _heartbeat_loop(self) -> None:
        interval = max(
            0.05,
            min(1.0, self.fabric.lease_duration / 4,
                self.fabric.worker_timeout / 4),
        )
        while not self._closed.wait(interval):
            try:
                self.fabric.heartbeat(self.replica_id)
            except Exception:
                # A transiently locked fabric.db must not kill the
                # heartbeat thread; the next beat retries.
                pass

    # -- submission --------------------------------------------------------

    def submit(
        self, kind: str, payload: Mapping[str, Any]
    ) -> Tuple[Job, bool]:
        """Submit one request; returns ``(job, created)``.

        ``created`` is False when an identical request (same
        :func:`repro.api.request_key`) is already queued, running or
        done — the caller shares that job.  A previously *failed* or
        *canceled* key is retried with a fresh job.  A key any replica
        already finished is served straight from the fabric's result
        cache without executing.

        ``self._lock`` guards only the job-dict lookup/insert;
        request parsing, fabric I/O and per-job counters happen
        outside it, so a slow consumer of one job's event stream can
        never stall an unrelated submission.
        """
        try:
            cls, _ = api.KINDS[kind]
        except KeyError:
            raise api.ReproError(
                f"unknown request kind {kind!r}; known: {sorted(api.KINDS)}"
            ) from None
        request = api.request_from_dict(cls, payload)
        key = api.request_key(kind, request)
        cached = self.fabric.cached_result(key)
        with self._lock:
            existing = self._jobs.get(key)
            if existing is not None and existing.state not in (
                "error", "canceled",
            ):
                share = True
            else:
                job = Job(key, kind, request)
                self._jobs[key] = job
                share = False
        if share:
            with existing.cond:
                existing.submissions += 1
            self.fabric.record_job(key, kind, request.as_dict())
            return existing, False
        self.fabric.record_job(key, kind, request.as_dict())
        if cached is not None:
            job.emit({"type": "cached", "source": "fabric"})
            job._finish("done", result=_StoredResult(cached))
            return job, True
        self._queue.put(job)
        return job, True

    def get(self, key: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(key)

    def list(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.created_at)

    def cancel(self, key: str) -> Tuple[Optional[Job], bool]:
        """Cancel a job locally and cluster-wide.

        Returns ``(job, known)``: ``job`` is this replica's record (None
        when another replica owns it), ``known`` is False only when
        neither this replica nor the fabric has ever seen the key.
        """
        job = self.get(key)
        fabric_known = self.fabric.cancel_job(key) or (
            self.fabric.job_state(key) is not None
        )
        if job is not None:
            job.cancel()
        return job, job is not None or fabric_known

    # -- execution ---------------------------------------------------------

    def run_pending(self) -> int:
        """Drain the queue in the calling thread (``workers=0`` mode)."""
        n = 0
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return n
            if job is None:
                continue
            self._execute(job)
            n += 1

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._execute(job)

    def _engine(self, job: Job) -> Any:
        if self.engine_factory is not None:
            return self.engine_factory(job)
        return SweepEngine(
            jobs=self.jobs_per_engine,
            cache=self.fabric.results,
            on_cell=lambda record: job.emit({
                "type": "cell",
                "label": record.label,
                "cached": record.cached,
                "wall_s": record.wall_s,
                "refs": record.refs,
                "unit": record.unit,
            }),
        )

    def _should_abort(self, job: Job) -> Callable[[], bool]:
        def check() -> bool:
            if job.cancel_requested:
                return True
            return self.fabric.job_state(job.key) == "canceled"
        return check

    def _execute(self, job: Job) -> None:
        if not job._start():
            return  # canceled while queued
        try:
            self.fabric.set_job_state(job.key, "running")
            state, result, error = self._run(job)
            if state == "done":
                self.fabric.store_result(job.key, result.as_dict())
            self.fabric.set_job_state(job.key, state, error=error)
        except sqlite3.Error as err:
            # A locked or broken fabric.db fails this job, never the
            # worker thread: the queue behind it keeps draining.
            state, result, error = "error", None, f"fabric error: {err}"
            try:
                self.fabric.set_job_state(job.key, state, error=error)
            except sqlite3.Error:
                pass  # best effort: the local record still says why
        job._finish(state, result=result, error=error)

    def _run(self, job: Job) -> Tuple[str, Any, Optional[str]]:
        """Execute the job's request: ``(terminal state, result, error)``.
        Fabric errors propagate to :meth:`_execute`."""
        try:
            kwargs: Dict[str, Any] = {}
            if job.kind in api.ENGINE_KINDS:
                kwargs["engine"] = self._engine(job)
            if job.kind in api.CAMPAIGN_KINDS:
                kwargs["progress"] = job.emit
                kwargs["should_abort"] = self._should_abort(job)
            if job.kind == "reliability":
                kwargs["checkpoint"] = ShardCoordinator(
                    self.fabric, job.key, self.replica_id, self.lease_batch
                )
            return "done", api.execute(job.kind, job.request, **kwargs), None
        except CampaignAborted:
            return "canceled", None, None
        except api.ReproError as err:
            return "error", None, str(err)
        except sqlite3.Error:
            raise
        except Exception:
            return "error", None, traceback.format_exc(limit=8)

    def close(self) -> None:
        """Stop the worker threads (queued jobs are abandoned), leave
        the fabric: deregister, return any held shard leases."""
        self._closed.set()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5)
        self._heartbeat_thread.join(timeout=5)
        try:
            self.fabric.remove_worker(self.replica_id)
        except Exception:
            pass  # a wedged fabric.db must not block shutdown


__all__ = ["JOB_STATES", "Job", "JobStore", "default_data_dir"]
