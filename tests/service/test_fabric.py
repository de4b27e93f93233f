"""The distributed campaign fabric: work-stealing, reclamation, cache.

The correctness bar everywhere here is the repo's north star: however
many replicas cooperate on a campaign — and however unluckily one of
them dies — the merged estimate is **bit-identical** to a single-node
run of the same request.
"""

import json
import pickle
import sqlite3
import threading
import time

import pytest

from repro import api
from repro.experiments.pool import Cell, ResultCache, SweepEngine, cell_key
from repro.experiments.runner import RefRunOutput
from repro.reliability import CheckpointError
from repro.service import FabricStore, JobStore, ShardCoordinator
from repro.service import fabric as fabric_mod

#: Fixed-trial campaign: both replicas derive the identical shard
#: schedule, so cooperation is pure work-splitting.
CAMPAIGN = {
    "schemes": ["uniform-ecc", "non-uniform"],
    "trials": 400,
    "trials_per_shard": 50,
    "seed": 7,
}
#: 400/50 = 8 shards per scheme, two schemes.
TOTAL_SHARDS = 16


def _plain_engine(job):
    return SweepEngine(jobs=1, cache=False, progress=False)


def _direct_doc():
    response = api.reliability(
        api.request_from_dict(api.ReliabilityRequest, CAMPAIGN),
        engine=SweepEngine(jobs=1, cache=False, progress=False),
    )
    return api.campaign_doc(response.result)


class TestFabricStore:
    def test_lease_prefers_pending_then_steals_stale(self, tmp_path):
        store = FabricStore(
            tmp_path, lease_duration=0.1, worker_timeout=0.1
        )
        store.register_worker("a")
        store.register_worker("b")
        keys = [("s", i) for i in range(4)]
        leased, stolen = store.lease_shards("job", keys, "a", limit=2)
        assert leased == [("s", 0), ("s", 1)] and not stolen
        # b picks up the remaining pending shards, steals nothing: a's
        # leases are fresh.
        leased, stolen = store.lease_shards("job", keys, "b")
        assert leased == [("s", 2), ("s", 3)] and not stolen
        # a goes silent; once its lease and heartbeat lapse, b steals.
        time.sleep(0.15)
        store.heartbeat("b")
        leased, stolen = store.lease_shards("job", keys, "b")
        assert leased == stolen == [("s", 0), ("s", 1)]

    def test_heartbeat_extends_leases(self, tmp_path):
        store = FabricStore(
            tmp_path, lease_duration=0.2, worker_timeout=10.0
        )
        store.register_worker("a")
        store.register_worker("b")
        store.lease_shards("job", [("s", 0)], "a")
        for _ in range(3):  # a is slow but alive
            time.sleep(0.1)
            store.heartbeat("a")
        leased, _ = store.lease_shards("job", [("s", 0)], "b")
        assert leased == []  # never stealable while a heartbeats

    def test_complete_and_done_shards(self, tmp_path):
        store = FabricStore(tmp_path)
        store.lease_shards("job", [("s", 0), ("s", 1)], "a")
        record = {"scheme": "s", "index": 0, "trials": 50, "seed": 1,
                  "outcomes": {}}
        store.complete_shard("job", record)
        store.complete_shard("job", record)  # idempotent
        assert store.done_shards("job", [("s", 0), ("s", 1)]) == [record]

    def test_close_releases_leases_and_deregisters(self, tmp_path):
        store = JobStore(data_dir=tmp_path, workers=0)
        replica = store.replica_id
        assert any(
            w["replica_id"] == replica for w in store.fabric.workers()
        )
        store.fabric.lease_shards("job", [("s", 0)], replica)
        store.close()
        assert all(
            w["replica_id"] != replica for w in store.fabric.workers()
        )
        leased, _ = store.fabric.lease_shards("job", [("s", 0)], "other")
        assert leased == [("s", 0)]  # back to pending, not stuck leased

    def test_campaign_digest_is_recorded_once_per_job(self, tmp_path):
        store = FabricStore(tmp_path)
        record = {"scheme": "s", "index": 0, "trials": 50, "seed": 1,
                  "outcomes": {}}
        assert store.open_campaign("job", "digest-a") == []
        store.lease_shards("job", [("s", 0)], "me")
        store.complete_shard("job", record)
        assert store.open_campaign("job", "digest-a") == [record]
        with pytest.raises(CheckpointError, match="configuration") as err:
            ShardCoordinator(store, "job", "me").resume("digest-b", {})
        assert "\n" not in str(err.value)
        assert store.open_campaign("other-job", "digest-b") == []

    def test_a_fabric_db_without_the_campaigns_table_still_opens(
        self, tmp_path
    ):
        store = FabricStore(tmp_path)
        store.lease_shards("job", [("s", 0)], "me")
        record = {"scheme": "s", "index": 0, "trials": 5, "seed": 1,
                  "outcomes": {}}
        store.complete_shard("job", record)
        with sqlite3.connect(store.path) as conn:
            conn.execute("DROP TABLE campaigns")
        reopened = FabricStore(tmp_path)
        assert reopened.open_campaign("job", "digest") == [record]


class TestTwoReplicaCampaign:
    def test_disjoint_shards_merge_bit_identical(self, tmp_path):
        """Two stores on one data dir split one campaign's shards;
        both merged estimates equal the single-node run bit-for-bit."""
        stores = [
            JobStore(
                data_dir=tmp_path, workers=0,
                engine_factory=_plain_engine,
                replica_id=f"replica-{i}",
                lease_batch=2,  # force interleaving within rounds
            )
            for i in (1, 2)
        ]
        jobs = [store.submit("reliability", CAMPAIGN)[0] for store in stores]
        threads = [
            threading.Thread(target=store.run_pending) for store in stores
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        try:
            assert [job.state for job in jobs] == ["done", "done"]
            docs = [api.campaign_doc(job.result.result) for job in jobs]
            direct = _direct_doc()
            assert docs[0]["schemes"] == direct["schemes"]
            assert docs[1]["schemes"] == direct["schemes"]
            assert docs[0]["total_trials"] == direct["total_trials"]
            # Every shard executed exactly once cluster-wide: no
            # duplicated work while both replicas stay alive.
            executed = [job.result.executed_shards for job in jobs]
            assert sum(executed) == TOTAL_SHARDS
            # The fabric cached the finished document for the cluster
            # (last finisher wins; either replica's doc is correct).
            cached = stores[0].fabric.cached_result(jobs[0].key)
            assert cached in [job.result_doc() for job in jobs]
        finally:
            for store in stores:
                store.close()

    def test_scenario_campaign_merges_bit_identical(self, tmp_path):
        """A correlated-fault campaign (burst-heavy, DECTED in the ECC
        slot) splits across two replicas and still merges to the
        single-node document bit for bit — the scenario engine's
        determinism contract holds through fabric leases."""
        campaign = dict(
            CAMPAIGN,
            schemes=["uniform-ecc"],
            scenario="burst-heavy",
            codec="dected",
        )
        stores = [
            JobStore(
                data_dir=tmp_path, workers=0,
                engine_factory=_plain_engine,
                replica_id=f"replica-{i}",
                lease_batch=2,
            )
            for i in (1, 2)
        ]
        jobs = [store.submit("reliability", campaign)[0] for store in stores]
        threads = [
            threading.Thread(target=store.run_pending) for store in stores
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        try:
            assert [job.state for job in jobs] == ["done", "done"]
            direct = api.campaign_doc(
                api.reliability(
                    api.request_from_dict(api.ReliabilityRequest, campaign),
                    engine=SweepEngine(jobs=1, cache=False, progress=False),
                ).result
            )
            for job in jobs:
                doc = api.campaign_doc(job.result.result)
                assert doc["schemes"] == direct["schemes"]
                assert doc["total_trials"] == direct["total_trials"]
            # Work split, not duplicated: 400/50 = 8 shards once.
            assert sum(job.result.executed_shards for job in jobs) == 8
        finally:
            for store in stores:
                store.close()

    def test_dead_replica_shards_are_reclaimed(self, tmp_path):
        """A ghost replica leases shards and dies; the survivor steals
        them after lease expiry and still matches the single-node run."""
        store = JobStore(
            data_dir=tmp_path, workers=0,
            engine_factory=_plain_engine,
            replica_id="survivor",
            lease_duration=0.2, worker_timeout=0.2,
        )
        job, _ = store.submit("reliability", CAMPAIGN)
        # The ghost grabs half of one scheme's shards, then vanishes
        # (no heartbeat, no completion, no lease release).
        store.fabric.register_worker("ghost")
        ghost_keys = [("uniform-ecc", i) for i in range(4)]
        leased, _ = store.fabric.lease_shards(
            job.key, ghost_keys, "ghost"
        )
        assert leased == ghost_keys
        time.sleep(0.3)  # ghost's lease and heartbeat both lapse
        try:
            store.run_pending()
            assert job.state == "done"
            assert job.result.executed_shards == TOTAL_SHARDS
            steals = [
                e for e in job.events if e.get("type") == "steal"
            ]
            stolen = {
                tuple(shard) for e in steals for shard in e["shards"]
            }
            assert stolen == set(ghost_keys)
            doc = api.campaign_doc(job.result.result)
            assert doc["schemes"] == _direct_doc()["schemes"]
        finally:
            store.close()

    def test_any_replica_serves_cached_results(self, tmp_path):
        """A key one replica finished is served by a fresh replica
        straight from the fabric cache, without executing anything."""
        first = JobStore(
            data_dir=tmp_path, workers=0, engine_factory=_plain_engine
        )
        job, _ = first.submit("reliability", CAMPAIGN)
        first.run_pending()
        assert job.state == "done"
        first.close()

        def exploding_engine(job):
            raise AssertionError("cache-served job must not execute")

        second = JobStore(
            data_dir=tmp_path, workers=0, engine_factory=exploding_engine
        )
        try:
            served, created = second.submit("reliability", CAMPAIGN)
            assert created and served.state == "done"
            assert second.run_pending() == 0  # nothing was queued
            assert served.result_doc() == job.result_doc()
            assert any(
                e.get("type") == "cached" for e in served.events
            )
        finally:
            second.close()


class TestOneResultStore:
    """Cells, design points and job documents share one table."""

    RUN = {"benchmark": "mesa", "refs": 3000, "warmup": 1000}

    def test_run_document_and_its_cell_share_a_key_not_a_row(
        self, tmp_path
    ):
        # A plain run's request key is its cell's key: the job document
        # must not replace the cell its engine stored, nor stand in
        # for it.
        store = JobStore(data_dir=tmp_path, workers=0)
        try:
            job, _ = store.submit("run", self.RUN)
            store.run_pending()
            assert job.state == "done"
        finally:
            store.close()
        request = api.request_from_dict(api.RunRequest, self.RUN)
        cell = Cell(request.benchmark, request.protection_config(),
                    request.run_config(), variant=request.variant)
        assert job.key == cell_key(cell)

        engine = SweepEngine(cache=ResultCache(tmp_path))
        output = engine.run(cell)
        assert engine.stats.cached == 1
        assert isinstance(output, RefRunOutput)
        fabric = FabricStore(tmp_path)
        assert fabric.cached_result(job.key) == job.result_doc()
        assert all(p.name.startswith("fabric.db") for p in tmp_path.iterdir())

    def test_parent_format_data_dir_reads_as_misses(self, tmp_path):
        """A data dir written before the one store — a ``cache/`` tree
        of pickle files and a ``results`` table of JSON documents —
        opens as is; its old entries miss and a job there runs."""
        request = api.request_from_dict(api.ReliabilityRequest, CAMPAIGN)
        key = api.request_key("reliability", request)
        old = tmp_path / "cache" / "ab" / ("ab" * 32 + ".pkl")
        old.parent.mkdir(parents=True)
        old.write_bytes(pickle.dumps({"stale": True}))
        conn = sqlite3.connect(str(tmp_path / "fabric.db"))
        with conn:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(
                fabric_mod._SCHEMA
                + "CREATE TABLE results (key TEXT PRIMARY KEY, "
                "doc TEXT NOT NULL, created_at REAL NOT NULL);"
            )
            conn.execute(
                "INSERT INTO results VALUES (?, ?, ?)",
                (key, json.dumps({"stale": True}), time.time()),
            )
        conn.close()

        assert ResultCache(tmp_path).get("ab" * 32) is None
        store = JobStore(
            data_dir=tmp_path, workers=0, engine_factory=_plain_engine
        )
        try:
            assert store.fabric.cached_result(key) is None
            job, created = store.submit("reliability", CAMPAIGN)
            assert created and job.state == "queued"
            assert store.run_pending() == 1
            assert job.state == "done"
            doc = api.campaign_doc(job.result.result)
            assert doc["schemes"] == _direct_doc()["schemes"]
            assert store.fabric.cached_result(key) == job.result_doc()
        finally:
            store.close()


class TestCoordinator:
    def test_cancel_visible_through_coordinator(self, tmp_path):
        store = FabricStore(tmp_path)
        store.record_job("job", "reliability", {})
        assert store.job_state("job") != "canceled"
        assert store.cancel_job("job")
        assert store.job_state("job") == "canceled"
        assert not store.cancel_job("job")  # already terminal
        assert not store.cancel_job("nope")  # unknown
