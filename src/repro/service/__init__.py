"""Long-running job service over the :mod:`repro.api` facade.

``repro serve`` turns the facade into a stdlib-only HTTP job server:
clients POST request documents (run / ipc / sweep / figure / ablation /
reliability-campaign), the service dedupes them against
content-addressed request keys (identical concurrent submissions share
one execution), streams progress as NDJSON or SSE events sourced from
the engines' telemetry hooks, and survives restarts — simulation cells
persist in the shared on-disk result cache and campaigns resume from
their completed shards in the fabric store.

Several replicas pointed at one ``--data-dir`` form a **fabric**: a
shared SQLite store (:mod:`repro.service.fabric`) registers workers,
caches finished result documents cluster-wide, and lets concurrently
running reliability campaigns lease shards from each other (with
lease-expiry work stealing when a replica dies) — the merged estimate
stays bit-identical to a single-node run.

* :mod:`repro.service.jobs` — the :class:`Job` model and deduplicating
  :class:`JobStore` worker pool;
* :mod:`repro.service.fabric` — the shared :class:`FabricStore` and
  per-campaign :class:`ShardCoordinator`;
* :mod:`repro.service.server` — the HTTP endpoints
  (:class:`ReproService`);
* :mod:`repro.service.client` — a stdlib client
  (:class:`ServiceClient`).

See ``docs/service.md`` for the protocol and examples.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.fabric import (
    FabricStore,
    ShardCoordinator,
    default_replica_id,
)
from repro.service.jobs import JOB_STATES, Job, JobStore, default_data_dir
from repro.service.server import ReproService

__all__ = [
    "FabricStore",
    "JOB_STATES",
    "Job",
    "JobStore",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "ShardCoordinator",
    "default_data_dir",
    "default_replica_id",
]
