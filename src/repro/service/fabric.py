"""Shared SQLite fabric: cluster jobs, shard leases, worker registry.

N ``repro serve`` replicas pointed at one ``--data-dir`` cooperate
through this store (``<data_dir>/fabric.db``, WAL mode, stdlib
:mod:`sqlite3`).  Beside the :class:`~repro.experiments.pool.ResultCache`
table of finished results, so *any* replica serves a job *any* replica
computed, it holds four tables:

* ``jobs`` — every request ever submitted anywhere in the cluster,
  keyed by :func:`repro.api.request_key`, with its lifecycle state (a
  ``submissions`` column that older stores carry is left unused);
* ``shards`` — one row per campaign shard, the work-stealing unit:
  ``pending`` → ``leased`` (owner + expiry) → ``done`` (with the
  shard's outcome record), the only copy of a service campaign's shards;
* ``campaigns`` — the configuration digest each job's shards were
  recorded under, so resuming under another one is refused;
* ``workers`` — replica registrations with heartbeats, so leases held
  by a dead replica are recognizable and reclaimable.

Correctness leans on the campaign engine's determinism, not on the
store: shard seeds depend only on (seed, scheme, index), so a shard
executes identically on any replica, and a lease that expires while
its owner is merely slow costs a duplicate execution — never a wrong
answer (``complete_shard`` is idempotent; duplicate records are
bit-identical).  Every read-modify-write runs under ``BEGIN
IMMEDIATE`` on the calling thread's own held connection
(:func:`~repro.experiments.pool.connect_store`), so the store is safe
across threads and processes; a completed shard commits with
``synchronous=FULL``, so it is durable once ``complete_shard`` returns.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.pool import ResultCache, connect_store
from repro.reliability.checkpoint import CheckpointError

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    request TEXT NOT NULL,
    state TEXT NOT NULL,
    error TEXT,
    created_at REAL NOT NULL,
    finished_at REAL
);
CREATE TABLE IF NOT EXISTS shards (
    job_key TEXT NOT NULL,
    scheme TEXT NOT NULL,
    idx INTEGER NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    owner TEXT,
    lease_expires REAL,
    record TEXT,
    PRIMARY KEY (job_key, scheme, idx)
);
CREATE TABLE IF NOT EXISTS campaigns (
    job_key TEXT PRIMARY KEY,
    digest TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS workers (
    replica_id TEXT PRIMARY KEY,
    started_at REAL NOT NULL,
    last_heartbeat REAL NOT NULL,
    pid INTEGER,
    host TEXT
);
"""

#: Job states a new submission sends back to ``queued``.
_RETRIED = ("error", "canceled")

#: Keeps job documents apart from sweep cells: a plain run's request key
#: *is* its cell's key.
_DOCUMENT = "job-document:"


def default_replica_id() -> str:
    """``<hostname>-<pid>-<4 hex>`` — unique even for two stores in
    one process (tests run exactly that)."""
    return "{}-{}-{}".format(
        socket.gethostname(), os.getpid(), uuid.uuid4().hex[:4]
    )


class FabricStore:
    """The shared persistent store behind one cluster data dir."""

    def __init__(
        self,
        data_dir: os.PathLike,
        lease_duration: float = 30.0,
        worker_timeout: float = 60.0,
    ) -> None:
        if lease_duration <= 0 or worker_timeout <= 0:
            raise ValueError("lease_duration and worker_timeout must be > 0")
        self.results = ResultCache(data_dir)
        self.path = self.results.file
        self.lease_duration = lease_duration
        self.worker_timeout = worker_timeout
        with connect_store(self.path) as conn:
            conn.executescript(_SCHEMA)

    # -- workers -------------------------------------------------------------

    def register_worker(self, replica_id: str) -> None:
        now = time.time()
        with connect_store(self.path) as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "INSERT INTO workers "
                "(replica_id, started_at, last_heartbeat, pid, host) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(replica_id) DO UPDATE SET "
                "started_at = excluded.started_at, "
                "last_heartbeat = excluded.last_heartbeat, "
                "pid = excluded.pid, host = excluded.host",
                (replica_id, now, now, os.getpid(), socket.gethostname()),
            )

    def heartbeat(self, replica_id: str) -> None:
        """Refresh liveness and extend this replica's active leases —
        a slow shard on a live replica should not look abandoned."""
        now = time.time()
        with connect_store(self.path) as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "UPDATE workers SET last_heartbeat = ? WHERE replica_id = ?",
                (now, replica_id),
            )
            conn.execute(
                "UPDATE shards SET lease_expires = ? "
                "WHERE owner = ? AND state = 'leased'",
                (now + self.lease_duration, replica_id),
            )

    def remove_worker(self, replica_id: str) -> None:
        with connect_store(self.path) as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "DELETE FROM workers WHERE replica_id = ?", (replica_id,)
            )
            conn.execute(
                "UPDATE shards SET state = 'pending', owner = NULL, "
                "lease_expires = NULL "
                "WHERE owner = ? AND state = 'leased'",
                (replica_id,),
            )

    def workers(self) -> List[Dict[str, Any]]:
        now = time.time()
        with connect_store(self.path) as conn:
            rows = conn.execute(
                "SELECT replica_id, started_at, last_heartbeat, pid, host "
                "FROM workers ORDER BY started_at"
            ).fetchall()
        return [
            {
                "replica_id": r[0],
                "started_at": r[1],
                "last_heartbeat": r[2],
                "pid": r[3],
                "host": r[4],
                "alive": now - r[2] <= self.worker_timeout,
            }
            for r in rows
        ]

    # -- jobs ----------------------------------------------------------------

    def record_job(
        self, key: str, kind: str, request: Dict[str, Any]
    ) -> None:
        """Record a submission: insert the job if it is new.  A
        previously failed/canceled job re-enters ``queued`` (the retry
        semantics the local store already has).  A repeat submission of
        a queued, running or done job writes nothing and takes no write
        lock."""
        with connect_store(self.path) as conn:
            row = conn.execute(
                "SELECT state FROM jobs WHERE key = ?", (key,)
            ).fetchone()
            if row is not None and row[0] not in _RETRIED:
                return
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "INSERT OR IGNORE INTO jobs "
                "(key, kind, request, state, created_at) "
                "VALUES (?, ?, ?, 'queued', ?)",
                (key, kind, json.dumps(request, sort_keys=True),
                 time.time()),
            )
            conn.execute(
                "UPDATE jobs SET state = 'queued', error = NULL "
                "WHERE key = ? AND state IN ('error', 'canceled')",
                (key,),
            )

    def set_job_state(
        self, key: str, state: str, error: Optional[str] = None
    ) -> None:
        terminal = state in ("done", "error", "canceled")
        with connect_store(self.path) as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "UPDATE jobs SET state = ?, error = ?, finished_at = ? "
                "WHERE key = ?",
                (state, error, time.time() if terminal else None, key),
            )

    def job_state(self, key: str) -> Optional[str]:
        with connect_store(self.path) as conn:
            row = conn.execute(
                "SELECT state FROM jobs WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else row[0]

    def cancel_job(self, key: str) -> bool:
        """Mark a non-terminal job canceled; every replica running it
        observes the state at its next abort poll.  Returns False for
        unknown or already-terminal jobs."""
        with connect_store(self.path) as conn:
            conn.execute("BEGIN IMMEDIATE")
            cur = conn.execute(
                "UPDATE jobs SET state = 'canceled', finished_at = ? "
                "WHERE key = ? AND state IN ('queued', 'running')",
                (time.time(), key),
            )
            return cur.rowcount > 0

    # -- results (cluster-wide cache) ----------------------------------------

    def store_result(self, key: str, doc: Dict[str, Any]) -> None:
        self.results.put(_DOCUMENT + key, doc)

    def cached_result(self, key: str) -> Optional[Dict[str, Any]]:
        return self.results.get(_DOCUMENT + key)

    # -- shards --------------------------------------------------------------

    def lease_shards(
        self,
        job_key: str,
        keys: Sequence[Tuple[str, int]],
        replica_id: str,
        limit: Optional[int] = None,
    ) -> Tuple[List[Tuple[str, int]], List[Tuple[str, int]]]:
        """Lease up to ``limit`` of the offered shards (None = all),
        first announcing those not yet in the store (whichever replica
        announces a shard first wins; the rest INSERT OR IGNORE).

        Two passes inside one transaction: ``pending`` shards first
        (normal work distribution), then **stealing** — ``leased``
        shards whose lease expired or whose owner's heartbeat is stale
        or gone.  Returns ``(leased, stolen)`` with stolen ⊆ leased.
        """
        if not keys or (limit is not None and limit <= 0):
            return [], []
        now = time.time()
        placeholders = ",".join(["(?,?)"] * len(keys))
        flat: List[Any] = [v for pair in keys for v in pair]
        budget = len(keys) if limit is None else limit
        leased: List[Tuple[str, int]] = []
        stolen: List[Tuple[str, int]] = []
        with connect_store(self.path) as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.executemany(
                "INSERT OR IGNORE INTO shards (job_key, scheme, idx) "
                "VALUES (?, ?, ?)",
                [(job_key, scheme, idx) for scheme, idx in keys],
            )
            rows = conn.execute(
                "SELECT scheme, idx FROM shards "
                "WHERE job_key = ? AND state = 'pending' "
                f"AND (scheme, idx) IN (VALUES {placeholders}) "
                "ORDER BY scheme, idx LIMIT ?",
                [job_key] + flat + [budget],
            ).fetchall()
            leased.extend((r[0], r[1]) for r in rows)
            if len(leased) < budget:
                stale = conn.execute(
                    "SELECT s.scheme, s.idx FROM shards s "
                    "LEFT JOIN workers w ON w.replica_id = s.owner "
                    "WHERE s.job_key = ? AND s.state = 'leased' "
                    "AND s.owner != ? "
                    f"AND (s.scheme, s.idx) IN (VALUES {placeholders}) "
                    "AND (s.lease_expires < ? OR w.replica_id IS NULL "
                    "     OR w.last_heartbeat < ?) "
                    "ORDER BY s.scheme, s.idx LIMIT ?",
                    [job_key, replica_id] + flat
                    + [now, now - self.worker_timeout,
                       budget - len(leased)],
                ).fetchall()
                stolen.extend((r[0], r[1]) for r in stale)
            for scheme, idx in leased + stolen:
                conn.execute(
                    "UPDATE shards SET state = 'leased', owner = ?, "
                    "lease_expires = ? "
                    "WHERE job_key = ? AND scheme = ? AND idx = ?",
                    (replica_id, now + self.lease_duration,
                     job_key, scheme, idx),
                )
        return leased + stolen, stolen

    def open_campaign(self, job_key: str, digest: str) -> List[Dict[str, Any]]:
        """Record ``digest`` as the configuration of ``job_key``'s shards
        (the first caller's wins) and return the job's ``done`` records;
        :class:`CheckpointError` if they were recorded under another."""
        with connect_store(self.path) as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "INSERT OR IGNORE INTO campaigns VALUES (?, ?)", (job_key, digest)
            )
            (recorded,) = conn.execute(
                "SELECT digest FROM campaigns WHERE job_key = ?", (job_key,)
            ).fetchone()
            if recorded != digest:
                raise CheckpointError(
                    f"{self.path}: campaign configuration of job "
                    f"{job_key[:16]} changed since its shards were "
                    "recorded; resubmit it under the original configuration"
                )
            rows = conn.execute(
                "SELECT record FROM shards "
                "WHERE job_key = ? AND state = 'done' ORDER BY scheme, idx",
                (job_key,),
            ).fetchall()
        return [json.loads(r[0]) for r in rows]

    def complete_shard(
        self, job_key: str, record: Dict[str, Any]
    ) -> None:
        """Publish one shard's outcome record, durably (idempotent —
        duplicate executions of a deterministic shard write identical
        records)."""
        conn = connect_store(self.path)
        conn.execute("PRAGMA synchronous=FULL")
        try:
            with conn:
                conn.execute("BEGIN IMMEDIATE")
                conn.execute(
                    "UPDATE shards SET state = 'done', owner = NULL, "
                    "lease_expires = NULL, record = ? "
                    "WHERE job_key = ? AND scheme = ? AND idx = ?",
                    (json.dumps(record, sort_keys=True), job_key,
                     record["scheme"], record["index"]),
                )
        finally:
            # The connection is held: later operations keep NORMAL.
            conn.execute("PRAGMA synchronous=NORMAL")

    def done_shards(
        self, job_key: str, keys: Sequence[Tuple[str, int]]
    ) -> List[Dict[str, Any]]:
        """Outcome records of the offered shards that are ``done``."""
        if not keys:
            return []
        placeholders = ",".join(["(?,?)"] * len(keys))
        flat: List[Any] = [v for pair in keys for v in pair]
        with connect_store(self.path) as conn:
            rows = conn.execute(
                "SELECT record FROM shards "
                "WHERE job_key = ? AND state = 'done' "
                f"AND (scheme, idx) IN (VALUES {placeholders}) "
                "ORDER BY scheme, idx",
                [job_key] + flat,
            ).fetchall()
        return [json.loads(r[0]) for r in rows]

    def release_leases(self, job_key: str, replica_id: str) -> int:
        """Return a replica's unfinished leases of one job to ``pending``
        (graceful failure path — don't make peers wait out the clock)."""
        with connect_store(self.path) as conn:
            conn.execute("BEGIN IMMEDIATE")
            cur = conn.execute(
                "UPDATE shards SET state = 'pending', owner = NULL, "
                "lease_expires = NULL "
                "WHERE job_key = ? AND owner = ? AND state = 'leased'",
                (job_key, replica_id),
            )
            return cur.rowcount


class ShardCoordinator:
    """One campaign's shard store in the fabric, as the engine consumes it.

    Passed as ``checkpoint=`` to
    :class:`~repro.reliability.campaign.CampaignEngine`, it implements
    the store methods of
    :class:`~repro.reliability.checkpoint.CampaignCheckpoint`:
    ``resume`` reads the job's ``done`` rows, and ``close`` returns the
    leases a failed or aborted campaign still holds.
    ``lease_batch=None`` leases every offered shard at once — a single
    replica then behaves exactly like a local run (one ``map_tasks``
    call per round); smaller batches interleave replicas within a round.
    """

    poll_interval = 0.05

    def __init__(
        self,
        store: FabricStore,
        job_key: str,
        replica_id: str,
        lease_batch: Optional[int] = None,
    ) -> None:
        self.store = store
        self.job_key = job_key
        self.replica_id = replica_id
        self.lease_batch = lease_batch

    def resume(self, digest: str, describe: Dict[str, Any]) -> List[Dict[str, Any]]:
        return self.store.open_campaign(self.job_key, digest)

    def lease(
        self, specs: Sequence[Any]
    ) -> Tuple[List[Any], List[Any]]:
        """Lease from the offered specs; returns ``(mine, stolen)``
        as spec objects (stolen ⊆ mine)."""
        by_key = {(s.scheme, s.index): s for s in specs}
        leased, stolen = self.store.lease_shards(
            self.job_key,
            sorted(by_key),
            self.replica_id,
            limit=self.lease_batch,
        )
        return (
            [by_key[k] for k in leased],
            [by_key[k] for k in stolen],
        )

    def complete(self, result: Any) -> None:
        self.store.complete_shard(self.job_key, result.as_record())

    def completed(
        self, keys: Sequence[Tuple[str, int]]
    ) -> List[Dict[str, Any]]:
        return self.store.done_shards(self.job_key, keys)

    def close(self) -> None:
        self.store.release_leases(self.job_key, self.replica_id)


__all__ = [
    "FabricStore",
    "ShardCoordinator",
    "default_replica_id",
]
