#!/usr/bin/env python
"""CI smoke test for the distributed campaign fabric.

Starts **two** service replicas on ephemeral ports sharing one data
dir, submits the same reliability campaign to both over the wire, and
asserts the fabric contract end to end:

* the submissions dedupe cluster-wide (one logical job, one row of
  the fabric's ``jobs`` table);
* both replicas report the campaign done and serve **bit-identical**
  result documents, equal to a direct :mod:`repro.api` call;
* every shard executed exactly once across the cluster (work was
  split, not duplicated), and the shards live only in ``fabric.db``:
  nothing is written under ``<data>/checkpoints/``;
* ``GET /v1/workers`` shows both replicas alive;
* a shard leased by a dead "ghost" replica is stolen and finished by a
  survivor, still bit-identical;
* a third, fresh replica serves the finished key straight from the
  fabric result cache without executing anything;
* a campaign canceled on one replica after its first round resumes
  from its ``fabric.db`` rows when resubmitted to the other, still
  bit-identical.

Usage: ``PYTHONPATH=src python scripts/fabric_smoke.py``
"""

import json
import sqlite3
import sys
import tempfile
import time
from pathlib import Path

from repro import api
from repro.experiments.pool import SweepEngine
from repro.service import JobStore, ReproService, ServiceClient

CAMPAIGN = {
    "schemes": ["uniform-ecc", "non-uniform"],
    "trials": 500,
    "trials_per_shard": 125,
    "shards_per_round": 4,
    "seed": 9,
}
TOTAL_SHARDS = 8  # 500/125 = 4 shards per scheme, two schemes
#: Slow enough (reference kernel, 20 rounds) that a cancel sent after
#: the first round lands mid-campaign.
SLOW_CAMPAIGN = {
    "schemes": ["uniform-ecc"],
    "trials": 20000,
    "trials_per_shard": 500,
    "shards_per_round": 2,
    "kernel": "reference",
    "seed": 4,
}


def expected_doc(campaign=CAMPAIGN):
    direct = api.reliability(
        api.request_from_dict(api.ReliabilityRequest, campaign),
        engine=SweepEngine(),
    )
    return json.loads(json.dumps(direct.as_dict()))


def start_replicas(data: str, prefix: str, lease_batch=None):
    return [
        ReproService(
            port=0,
            workers=1,
            replica_id=f"{prefix}-{i}",
            store=JobStore(
                data_dir=data, workers=1, replica_id=f"{prefix}-{i}",
                lease_batch=lease_batch,
            ),
        ).start()
        for i in (1, 2)
    ]


def no_checkpoint_files(data: str) -> None:
    written = list(Path(data, "checkpoints").glob("**/*"))
    assert not written, f"reliability jobs wrote checkpoint files: {written}"


def campaign_core(doc):
    """The measured campaign numbers, minus the shard-accounting
    counters (those are per-replica by design)."""
    return {
        key: value
        for key, value in doc["campaign"].items()
        if key not in ("executed_shards", "remote_shards", "resumed_shards")
    }


def two_replica_campaign(data: str, expected) -> str:
    replicas = start_replicas(data, "smoke", lease_batch=1)  # interleave
    try:
        clients = [ServiceClient(r.url) for r in replicas]
        submitted = [c.submit("reliability", CAMPAIGN) for c in clients]
        job_id = submitted[0]["job"]["id"]
        assert submitted[1]["job"]["id"] == job_id, (
            "the same request must map to one cluster-wide job key"
        )
        with sqlite3.connect(Path(data, "fabric.db")) as conn:
            rows = conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE key = ?", (job_id,)
            ).fetchone()[0]
        assert rows == 1, f"{rows} fabric jobs rows for one request"
        print(f"submitted campaign {job_id[:16]}… to both replicas")

        docs = [c.result(job_id, timeout=300) for c in clients]
        assert campaign_core(docs[0]) == campaign_core(docs[1]), (
            "replicas served different campaign numbers for one job"
        )
        assert docs[0]["request"] == docs[1]["request"]
        assert campaign_core(docs[0]) == campaign_core(expected), (
            "merged campaign diverged from the single-node run"
        )
        executed = docs[0]["executed_shards"] + docs[1]["executed_shards"]
        assert executed == TOTAL_SHARDS, (
            f"cluster executed {executed} shards, want {TOTAL_SHARDS} "
            "(shards were duplicated or lost)"
        )
        for doc in docs:
            # Per-replica accounting closes: every shard was executed
            # here, absorbed from a peer, or resumed from fabric.db.
            accounted = (
                doc["executed_shards"]
                + doc["remote_shards"]
                + doc["resumed_shards"]
            )
            assert accounted == TOTAL_SHARDS, doc
        print(
            f"bit-identical merge: {docs[0]['executed_shards']}+"
            f"{docs[1]['executed_shards']} shards split across replicas"
        )

        no_checkpoint_files(data)
        print("no checkpoint files: the shards live only in fabric.db")

        workers = clients[0].workers()["workers"]
        alive = {w["replica_id"] for w in workers if w["alive"]}
        assert {"smoke-1", "smoke-2"} <= alive, workers
        print(f"worker registry sees {sorted(alive)}")
        return job_id
    finally:
        for replica in replicas:
            replica.shutdown()


def ghost_reclaim(data: str, expected) -> None:
    store = JobStore(
        data_dir=data, workers=0, replica_id="survivor",
        lease_duration=0.2, worker_timeout=0.2,
    )
    try:
        job, _ = store.submit("reliability", CAMPAIGN)
        store.fabric.register_worker("ghost")
        ghost_keys = [("uniform-ecc", i) for i in range(2)]
        leased, _ = store.fabric.lease_shards(job.key, ghost_keys, "ghost")
        assert leased == ghost_keys
        time.sleep(0.3)  # the ghost's lease and heartbeat lapse
        store.run_pending()
        assert job.state == "done", job.state
        stolen = {
            tuple(shard)
            for event in job.events
            if event.get("type") == "steal"
            for shard in event["shards"]
        }
        assert stolen == set(ghost_keys), stolen
        doc = json.loads(json.dumps(job.result_doc()))
        assert doc["campaign"] == expected["campaign"], (
            "reclaimed campaign diverged from the single-node run"
        )
        print(f"survivor stole {len(stolen)} shards from the dead ghost")
    finally:
        store.close()


def cancel_and_resume_elsewhere(data: str) -> None:
    expected = expected_doc(SLOW_CAMPAIGN)
    replicas = start_replicas(data, "cancel")
    try:
        clients = [ServiceClient(r.url) for r in replicas]
        job_id = clients[0].submit("reliability", SLOW_CAMPAIGN)["job"]["id"]
        for event in clients[0].stream_events(job_id):
            if event["type"] == "round":
                clients[0].cancel(job_id)
                break
        deadline = time.monotonic() + 60
        while clients[0].job(job_id)["state"] != "canceled":
            assert time.monotonic() < deadline, clients[0].job(job_id)
            time.sleep(0.05)

        submitted = clients[1].submit("reliability", SLOW_CAMPAIGN)
        assert submitted["job"]["id"] == job_id
        doc = clients[1].result(job_id, timeout=300)
        assert doc["resumed_shards"] > 0, doc["resumed_shards"]
        assert campaign_core(doc) == campaign_core(expected), (
            "resumed campaign diverged from the single-node run"
        )
        no_checkpoint_files(data)
        print(
            f"canceled after round 1; the other replica resumed "
            f"{doc['resumed_shards']} shards from fabric.db"
        )
    finally:
        for replica in replicas:
            replica.shutdown()


def cache_serves_cluster_wide(data: str, job_id: str, expected) -> None:
    fresh = ReproService(
        port=0, workers=0, replica_id="smoke-cache",
        store=JobStore(data_dir=data, workers=0, replica_id="smoke-cache"),
    ).start()
    try:
        client = ServiceClient(fresh.url)
        submitted = client.submit("reliability", CAMPAIGN)
        assert submitted["job"]["id"] == job_id
        doc = client.result(job_id, timeout=30)
        assert campaign_core(doc) == campaign_core(expected), (
            "fabric-cached document diverged"
        )
        print("fresh replica served the campaign from the fabric cache")
    finally:
        fresh.shutdown()


def main() -> int:
    expected = expected_doc()
    with tempfile.TemporaryDirectory(prefix="repro-fabric-smoke-") as data:
        job_id = two_replica_campaign(data, expected)
        cache_serves_cluster_wide(data, job_id, expected)
    with tempfile.TemporaryDirectory(prefix="repro-fabric-ghost-") as data:
        ghost_reclaim(data, expected)
    with tempfile.TemporaryDirectory(prefix="repro-fabric-cancel-") as data:
        cancel_and_resume_elsewhere(data)
    print("fabric smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
