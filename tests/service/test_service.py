"""The job service: dedupe, streaming, restart-resume, HTTP protocol."""

import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro import api
from repro.experiments.pool import SweepEngine
from repro.service import (
    JobStore,
    ReproService,
    ServiceClient,
    ServiceError,
)
from repro.service.fabric import FabricStore
from repro.service.server import MAX_BODY_BYTES

RUN_REQUEST = {"benchmark": "swim", "refs": 3000, "warmup": 1000}
CAMPAIGN_REQUEST = {"trials": 200, "trials_per_shard": 50, "seed": 5}


def _plain_engine(job):
    return SweepEngine(jobs=1, cache=False, progress=False)


class _FailingEngine(SweepEngine):
    """Aborts the campaign before its Nth map_tasks call — the test
    stand-in for a service crash mid-campaign."""

    def __init__(self, fail_before_call: int):
        super().__init__(jobs=1, cache=False, progress=False)
        self.fail_before_call = fail_before_call
        self.calls = 0

    def map_tasks(self, func, items, phase="map"):
        self.calls += 1
        if self.calls >= self.fail_before_call:
            raise RuntimeError("simulated mid-campaign crash")
        return super().map_tasks(func, items, phase=phase)


class TestJobStore:
    def test_identical_submissions_share_one_job(self, tmp_path):
        store = JobStore(data_dir=tmp_path, workers=0)
        first, created_first = store.submit("run", RUN_REQUEST)
        second, created_second = store.submit("run", RUN_REQUEST)
        assert created_first and not created_second
        assert first is second
        assert first.submissions == 2
        assert store.run_pending() == 1

    def test_deduped_job_executes_exactly_once(self, tmp_path, monkeypatch):
        import repro.experiments.pool as pool

        calls = []
        real = pool.execute_cell
        monkeypatch.setattr(
            pool, "execute_cell",
            lambda cell: calls.append(cell.label) or real(cell),
        )
        store = JobStore(
            data_dir=tmp_path, workers=0, engine_factory=_plain_engine
        )
        jobs = [store.submit("run", RUN_REQUEST)[0] for _ in range(3)]
        store.run_pending()
        assert len(calls) == 1
        assert all(job.state == "done" for job in jobs)

    def test_concurrent_submissions_dedupe(self, tmp_path):
        # The acceptance shape: identical requests racing in from many
        # threads while workers are live still produce one execution.
        store = JobStore(data_dir=tmp_path, workers=2)
        results = []

        def submit():
            results.append(store.submit("reliability", CAMPAIGN_REQUEST))

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        jobs = {id(job) for job, _ in results}
        assert len(jobs) == 1
        assert sum(created for _, created in results) == 1
        job = results[0][0]
        assert job.wait(timeout=120) == "done"
        assert job.result.executed_shards == 8
        store.close()

    def test_result_is_bit_identical_to_direct_facade_call(self, tmp_path):
        store = JobStore(
            data_dir=tmp_path, workers=0, engine_factory=_plain_engine
        )
        job, _ = store.submit("reliability", CAMPAIGN_REQUEST)
        store.run_pending()
        direct = api.reliability(
            api.request_from_dict(api.ReliabilityRequest, CAMPAIGN_REQUEST),
            engine=SweepEngine(),
        )
        assert (
            api.campaign_doc(job.result.result)
            == api.campaign_doc(direct.result)
        )

    def test_failed_job_keeps_other_jobs_leases(self, tmp_path):
        store = JobStore(
            data_dir=tmp_path, workers=0,
            engine_factory=lambda job: _FailingEngine(1),
        )
        try:
            keys = [("s", 0), ("s", 1)]
            with sqlite3.connect(store.fabric.path) as conn:  # X's shards
                conn.executemany(
                    "INSERT INTO shards (job_key, scheme, idx) "
                    "VALUES ('job-x', ?, ?)",
                    keys,
                )
            leased, _ = store.fabric.lease_shards(
                "job-x", keys, store.replica_id
            )
            assert leased == keys
            failing, _ = store.submit("reliability", CAMPAIGN_REQUEST)
            store.run_pending()
            assert failing.state == "error"
            # Job X still holds its leases; only the failed job's own
            # leases went back to pending.
            assert store.fabric.lease_shards("job-x", keys, "other") == (
                [], []
            )
            released, _ = store.fabric.lease_shards(
                failing.key, [("uniform-ecc", 0)], "other"
            )
            assert released == [("uniform-ecc", 0)]
        finally:
            store.close()

    def test_locked_fabric_fails_one_job_not_the_worker(self, tmp_path):
        store = JobStore(data_dir=tmp_path, workers=1)
        real = store.fabric.set_job_state
        locked = []

        def locked_once(key, state, error=None):
            if not locked:
                locked.append(key)
                raise sqlite3.OperationalError("database is locked")
            return real(key, state, error=error)

        store.fabric.set_job_state = locked_once
        try:
            first, _ = store.submit("area", {"ecc_entries": 1})
            second, _ = store.submit("area", {"ecc_entries": 2})
            assert first.wait(timeout=10) == "error"
            assert first.error == "fabric error: database is locked"
            assert store.fabric.job_state(first.key) == "error"
            assert second.wait(timeout=10) == "done"
            assert store.fabric.job_state(second.key) == "done"
            assert store._threads[0].is_alive()
        finally:
            store.close()

    def test_failed_key_is_retried(self, tmp_path):
        store = JobStore(data_dir=tmp_path, workers=0)
        job, _ = store.submit("run", {"benchmark": "swim", "refs": 1})
        job._finish("error", error="boom")
        retry, created = store.submit("run", {"benchmark": "swim", "refs": 1})
        assert created and retry is not job

    def test_unknown_kind_and_bad_fields_raise(self, tmp_path):
        store = JobStore(data_dir=tmp_path, workers=0)
        with pytest.raises(api.ReproError, match="unknown request kind"):
            store.submit("sweep-the-world", {})
        with pytest.raises(api.ReproError, match="unknown RunRequest"):
            store.submit("run", {"benchmrk": "swim"})

    def test_unknown_kernel_rejected_at_submit(self, tmp_path):
        # The request dataclass validates the kernel, so the job is
        # refused synchronously rather than failing in a worker.
        store = JobStore(data_dir=tmp_path, workers=0)
        with pytest.raises(api.ReproError, match="available backends"):
            store.submit(
                "reliability", dict(CAMPAIGN_REQUEST, kernel="turbo")
            )
        assert store.run_pending() == 0

    def test_events_end_with_terminal_state(self, tmp_path):
        # Default engine factory: its on_cell hook feeds the event log.
        store = JobStore(data_dir=tmp_path, workers=0)
        job, _ = store.submit("run", RUN_REQUEST)
        store.run_pending()
        events = list(job.iter_events())
        assert events[0] == {"seq": 0, "type": "state", "state": "running"}
        assert events[-1]["type"] == "state"
        assert events[-1]["state"] == "done"
        assert any(event["type"] == "cell" for event in events)

    def test_cell_events_name_their_unit(self, tmp_path):
        # An ipc cell's work is instructions, a run cell's references.
        store = JobStore(data_dir=tmp_path, workers=0)
        jobs = [
            store.submit("ipc", {"benchmark": "swim", "insts": 2000})[0],
            store.submit("run", RUN_REQUEST)[0],
        ]
        store.run_pending()
        (ipc, run) = (
            [e for e in job.iter_events() if e["type"] == "cell"]
            for job in jobs
        )
        assert len(ipc) == 2 and len(run) == 1
        assert all(e["unit"] == "insts" and e["refs"] == 2000 for e in ipc)
        assert run[0]["unit"] == "refs"


class TestRestartResume:
    """A killed campaign resumes from its ``fabric.db`` shard rows on a
    fresh store — the uninterrupted aggregate, bit-identical."""

    #: Needs several rounds (high-variance metric, tight target) so the
    #: simulated crash lands mid-campaign, after 2 completed rounds.
    AUTO = {
        "schemes": ["uniform-ecc"],
        "trials": None,
        "target": 0.02,
        "metric": "corrected",
        "trials_per_shard": 100,
        "shards_per_round": 4,
        "seed": 11,
    }

    def test_resume_after_simulated_restart(self, tmp_path):
        # Run 1: the service dies mid-campaign (engine crash stands in
        # for a process kill; completed rounds are already committed).
        crashing = JobStore(
            data_dir=tmp_path, workers=0,
            engine_factory=lambda job: _FailingEngine(3),
        )
        job, _ = crashing.submit("reliability", self.AUTO)
        crashing.run_pending()
        assert job.state == "error"
        with sqlite3.connect(tmp_path / "fabric.db") as conn:
            states = dict(conn.execute(
                "SELECT state, COUNT(*) FROM shards WHERE job_key = ? "
                "GROUP BY state",
                (job.key,),
            ).fetchall())
        # 2 rounds of 4 shards done; the failed round's leases returned.
        assert states == {"done": 8, "pending": 4}
        assert not any((tmp_path / "checkpoints").glob("**/*"))

        # Run 2: a fresh store over the same data dir — "the restart".
        restarted = JobStore(
            data_dir=tmp_path, workers=0, engine_factory=_plain_engine
        )
        resumed_job, created = restarted.submit("reliability", self.AUTO)
        assert created  # the old store's in-memory record is gone
        assert resumed_job.key == job.key  # same digest -> same checkpoint
        restarted.run_pending()
        assert resumed_job.state == "done"
        response = resumed_job.result
        assert response.resumed_shards == 8
        assert response.executed_shards > 0

        # The uninterrupted baseline, straight through the facade.
        baseline = api.reliability(
            api.request_from_dict(api.ReliabilityRequest, self.AUTO),
            engine=SweepEngine(),
        )
        assert (
            api.campaign_doc(response.result)["schemes"]
            == api.campaign_doc(baseline.result)["schemes"]
        )

        resume_events = [
            e for e in resumed_job.events if e["type"] == "resume"
        ]
        assert resume_events and resume_events[0]["resumed_shards"] == 8

    #: Run in a child process: one service store executing a campaign
    #: whose rounds are slowed down, so a SIGKILL lands mid-campaign.
    CHILD = """
import json, sys, time
from repro.experiments.pool import SweepEngine
from repro.service import JobStore

class Slow(SweepEngine):
    def map_tasks(self, func, items, phase="map"):
        time.sleep(0.2)
        return super().map_tasks(func, items, phase=phase)

store = JobStore(
    data_dir=sys.argv[1], workers=0,
    engine_factory=lambda job: Slow(jobs=1, cache=False, progress=False),
)
store.submit("reliability", json.loads(sys.argv[2]))
store.run_pending()
"""

    def test_resume_after_kill_9(self, tmp_path):
        request = dict(self.AUTO, trials=4000, seed=12)  # 40 shards
        env = dict(os.environ)
        src = str(Path(api.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, str(tmp_path),
             json.dumps(request)],
            env=env,
        )
        db = tmp_path / "fabric.db"

        def done_rows():
            if not db.exists():
                return 0
            try:
                with sqlite3.connect(db) as conn:
                    return conn.execute(
                        "SELECT COUNT(*) FROM shards WHERE state = 'done'"
                    ).fetchone()[0]
            except sqlite3.OperationalError:
                return 0  # the child has created the file, not the schema


        try:
            deadline = time.monotonic() + 60
            while done_rows() < 4 and child.poll() is None:
                assert time.monotonic() < deadline, "no round completed"
                time.sleep(0.02)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        rows = done_rows()
        assert 4 <= rows < 40  # at least one round, killed mid-campaign
        assert not any((tmp_path / "checkpoints").glob("**/*"))

        # The killed replica's leases are stolen once its heartbeat
        # goes stale.
        fresh = JobStore(
            data_dir=tmp_path, workers=0, engine_factory=_plain_engine,
            worker_timeout=0.5,
        )
        try:
            job, _ = fresh.submit("reliability", request)
            fresh.run_pending()
        finally:
            fresh.close()
        assert job.state == "done", job.error
        assert job.result.resumed_shards == rows
        resume = [e for e in job.events if e["type"] == "resume"]
        assert resume and resume[0]["resumed_shards"] == rows
        direct = api.reliability(
            api.request_from_dict(api.ReliabilityRequest, request),
            engine=SweepEngine(),
        )
        assert (
            api.campaign_doc(job.result.result)["schemes"]
            == api.campaign_doc(direct.result)["schemes"]
        )


@pytest.fixture()
def service(tmp_path):
    svc = ReproService(port=0, data_dir=tmp_path, workers=2).start()
    yield svc
    svc.shutdown()


class TestHttpService:
    def test_health_and_kinds(self, service):
        client = ServiceClient(service.url)
        assert client.health()["ok"] is True
        kinds = client.kinds()
        assert set(api.KINDS) <= set(kinds)
        assert kinds["run"]["benchmark"] == "mesa"

    def test_submit_dedupe_and_result_parity(self, service):
        client = ServiceClient(service.url)
        first = client.submit("run", RUN_REQUEST)
        second = client.submit("run", RUN_REQUEST)
        assert first["job"]["id"] == second["job"]["id"]
        assert [first["created"], second["created"]].count(True) == 1

        doc = client.result(first["job"]["id"], timeout=120)
        direct = api.run(
            api.request_from_dict(api.RunRequest, RUN_REQUEST),
            engine=SweepEngine(),
        )
        assert doc == json.loads(json.dumps(direct.as_dict()))

    def test_store_served_document_is_byte_identical(self, service, tmp_path):
        client = ServiceClient(service.url)
        job_id = client.submit("run", RUN_REQUEST)["job"]["id"]

        def body(url):
            with urllib.request.urlopen(
                f"{url}/v1/jobs/{job_id}/result?wait=120"
            ) as response:
                return response.read()

        fresh = body(service.url)
        replica = ReproService(port=0, data_dir=tmp_path, workers=1).start()
        try:
            served = ServiceClient(replica.url).submit("run", RUN_REQUEST)
            assert served["job"]["state"] == "done"  # from the store
            assert body(replica.url) == fresh
        finally:
            replica.shutdown()

    def test_campaign_over_http_matches_direct_call(self, service):
        client = ServiceClient(service.url)
        job_id = client.submit("reliability", CAMPAIGN_REQUEST)["job"]["id"]
        events = list(client.stream_events(job_id))
        assert events[-1]["state"] == "done"
        assert any(event["type"] == "shard" for event in events)
        assert any(event["type"] == "round" for event in events)

        doc = client.result(job_id, timeout=120)
        direct = api.reliability(
            api.request_from_dict(api.ReliabilityRequest, CAMPAIGN_REQUEST),
            engine=SweepEngine(),
        )
        assert doc["campaign"] == json.loads(
            json.dumps(api.campaign_doc(direct.result))
        )

    def test_sse_stream_format(self, service):
        client = ServiceClient(service.url)
        job_id = client.submit("area", {})["job"]["id"]
        client.result(job_id, timeout=60)
        with urllib.request.urlopen(
            f"{service.url}/v1/jobs/{job_id}/events?sse=1"
        ) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            lines = [
                line for line in response.read().decode().splitlines() if line
            ]
        assert all(line.startswith("data: ") for line in lines)
        last = json.loads(lines[-1][len("data: "):])
        assert last == {
            "seq": last["seq"],
            "type": "state",
            "state": "done",
            "schema": "repro/v1",
        }

    def test_unknown_kernel_is_rejected_at_post(self, service):
        # Kernel validation happens at request construction, so a bad
        # --kernel is a 400 at POST /v1/jobs with the backend listing —
        # never an accepted job that dies worker-side as a 500.
        # The retired numpy kernel's name is rejected the same way.
        client = ServiceClient(service.url)
        for kernel in ("turbo", "vector"):
            with pytest.raises(ServiceError) as err:
                client.submit(
                    "reliability", dict(CAMPAIGN_REQUEST, kernel=kernel)
                )
            assert err.value.status == 400
            assert err.value.message == (
                f"unknown kernel {kernel!r}; available backends: batch, "
                "reference"
            )

    def test_unknown_scenario_and_codec_are_400_with_listing(self, service):
        # Same pattern as the kernel: validated at request
        # construction, enumerated in the 400 body.
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.submit(
                "reliability", dict(CAMPAIGN_REQUEST, scenario="bogus")
            )
        assert err.value.status == 400
        assert (
            "available scenarios: nominal, burst-heavy, low-voltage, rowcol"
            in str(err.value)
        )
        with pytest.raises(ServiceError) as err:
            client.submit(
                "reliability", dict(CAMPAIGN_REQUEST, codec="turbo")
            )
        assert err.value.status == 400
        assert "available codecs:" in str(err.value)

    def test_bad_requests_are_400(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.submit("run", {"bogus": 1})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.submit("sweep-the-world", {})
        assert err.value.status == 400

    def test_unknown_job_is_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.job("deadbeef")
        assert err.value.status == 404

    def test_failed_job_result_is_500(self, service):
        client = ServiceClient(service.url)
        job_id = client.submit(
            "run", {"trace": "/no/such/trace.bin"}
        )["job"]["id"]
        with pytest.raises(ServiceError) as err:
            client.result(job_id, timeout=60)
        assert err.value.status == 500
        assert "trace file not found" in err.value.message


class TestWireSchema:
    """Every v1 document carries the version envelope; the client
    enforces it and strips it."""

    def test_raw_wire_carries_schema_tag(self, service):
        for path in ("/v1/health", "/v1/healthz", "/v1/kinds",
                     "/v1/jobs", "/v1/workers"):
            with urllib.request.urlopen(service.url + path) as response:
                assert json.loads(response.read())["schema"] == "repro/v1"

    def test_client_strips_schema_tag(self, service):
        client = ServiceClient(service.url)
        doc = client.health()
        assert "schema" not in doc
        assert doc["ok"] is True
        job_id = client.submit("area", {})["job"]["id"]
        events = list(client.stream_events(job_id))
        assert all("schema" not in event for event in events)
        assert "schema" not in client.result(job_id, timeout=60)

    def test_client_rejects_unknown_schema(self):
        from repro.service.client import _check_schema

        assert _check_schema({"schema": "repro/v1", "ok": True}) == {
            "ok": True
        }
        with pytest.raises(api.ReproError, match="repro/v1"):
            _check_schema({"ok": True})  # missing tag
        with pytest.raises(api.ReproError, match="repro/v2"):
            _check_schema({"schema": "repro/v2", "ok": True})

    def test_healthz_and_workers_endpoints(self, service):
        client = ServiceClient(service.url)
        healthz = client.healthz()
        assert healthz["ok"] is True
        assert healthz["replica_id"] == service.store.replica_id
        workers = client.workers()
        ids = [w["replica_id"] for w in workers["workers"]]
        assert service.store.replica_id in ids
        assert all(w["alive"] for w in workers["workers"])


class _CancelingEngine(SweepEngine):
    """Cancels its own job after the Nth map_tasks call — the campaign
    must stop at the next round-boundary abort poll."""

    def __init__(self, store, cancel_after_call):
        super().__init__(jobs=1, cache=False, progress=False)
        self.store = store
        self.cancel_after_call = cancel_after_call
        self.calls = 0

    def map_tasks(self, func, items, phase="map"):
        results = super().map_tasks(func, items, phase=phase)
        self.calls += 1
        if self.calls == self.cancel_after_call:
            job = self.store.list()[0]
            self.store.cancel(job.key)
        return results


class TestCancel:
    def test_cancel_queued_job_never_executes(self, tmp_path):
        store = JobStore(data_dir=tmp_path, workers=0)
        job, _ = store.submit("reliability", CAMPAIGN_REQUEST)
        cancelled, known = store.cancel(job.key)
        assert known and cancelled is job
        assert job.state == "canceled"
        assert store.run_pending() == 1  # dequeued, but skipped
        assert job.state == "canceled"
        events = list(job.iter_events())
        assert events[-1]["state"] == "canceled"

    def test_cancel_running_campaign_stops_at_round_boundary(
        self, tmp_path
    ):
        auto = {
            "schemes": ["uniform-ecc"],
            "trials": None,
            "target": 0.001,  # unreachably tight: runs until canceled
            "metric": "corrected",
            "trials_per_shard": 50,
            "shards_per_round": 2,
            "max_trials": 100_000,
            "seed": 3,
        }
        holder = {}
        store = JobStore(
            data_dir=tmp_path, workers=0,
            engine_factory=lambda job: holder["engine"],
        )
        holder["engine"] = _CancelingEngine(store, cancel_after_call=2)
        job, _ = store.submit("reliability", auto)
        store.run_pending()
        assert job.state == "canceled"
        assert holder["engine"].calls < 5  # stopped well short of max
        assert store.fabric.job_state(job.key) == "canceled"

    def test_cancel_over_http(self, service):
        client = ServiceClient(service.url)
        job_id = client.submit("run", RUN_REQUEST)["job"]["id"]
        doc = client.cancel(job_id)
        assert doc["job"]["id"] == job_id
        with pytest.raises(ServiceError) as err:
            client.cancel("deadbeef")
        assert err.value.status == 404

    def test_canceled_result_is_409(self, tmp_path):
        store = JobStore(data_dir=tmp_path, workers=0)
        service = ReproService(port=0, store=store).start()
        try:
            client = ServiceClient(service.url)
            job_id = client.submit("reliability", CAMPAIGN_REQUEST)["job"][
                "id"
            ]
            client.cancel(job_id)
            with pytest.raises(ServiceError) as err:
                client.result(job_id, timeout=10)
            assert err.value.status == 409
        finally:
            service.shutdown()

    def test_canceled_key_is_retried(self, tmp_path):
        store = JobStore(data_dir=tmp_path, workers=0)
        job, _ = store.submit("run", RUN_REQUEST)
        store.cancel(job.key)
        retry, created = store.submit("run", RUN_REQUEST)
        assert created and retry is not job
        store.run_pending()
        assert retry.state == "done"


class TestEventLocking:
    """A slow event consumer must never stall unrelated submissions."""

    def test_slow_reader_does_not_block_submit(self, tmp_path):
        import time as _time

        store = JobStore(data_dir=tmp_path, workers=0)
        job, _ = store.submit("reliability", CAMPAIGN_REQUEST)
        for i in range(50):
            job.emit({"type": "tick", "i": i})

        started = threading.Event()

        def slow_reader():
            for event in job.iter_events():
                started.set()
                _time.sleep(0.05)  # a glacial SSE consumer

        reader = threading.Thread(target=slow_reader, daemon=True)
        reader.start()
        assert started.wait(timeout=5)

        begin = _time.monotonic()
        other, created = store.submit("run", RUN_REQUEST)
        elapsed = _time.monotonic() - begin
        assert created
        # 50 events x 50ms of reader sleep; an unrelated submit must
        # not be serialized behind any of it.
        assert elapsed < 1.0
        job._finish("canceled")  # release the reader


def _count_lookups(monkeypatch):
    """Record every ``FabricStore.cached_result`` key from now on."""
    calls = []
    real = FabricStore.cached_result

    def counted(self, key):
        calls.append(key)
        return real(self, key)

    monkeypatch.setattr(FabricStore, "cached_result", counted)
    return calls


class TestLocalFirstSubmit:
    """A submission asks the fabric for a stored document only when no
    live local job has the key."""

    def test_live_local_job_makes_no_fabric_lookup(
        self, tmp_path, monkeypatch
    ):
        store = JobStore(
            data_dir=tmp_path, workers=0, engine_factory=_plain_engine
        )
        try:
            job, _ = store.submit("run", RUN_REQUEST)
            calls = _count_lookups(monkeypatch)
            assert store.submit("run", RUN_REQUEST) == (job, False)  # queued
            store.run_pending()
            assert store.submit("run", RUN_REQUEST) == (job, False)  # done
            assert calls == []
            assert job.submissions == 3
            assert store.fabric.job_state(job.key) == "done"
        finally:
            store.close()

    @pytest.mark.parametrize("ending", ["error", "canceled"])
    def test_ended_local_job_is_served_from_the_fabric(
        self, tmp_path, monkeypatch, ending
    ):
        store = JobStore(data_dir=tmp_path, workers=0)
        try:
            if ending == "error":
                request = {"trace": "/no/such/trace.bin"}
                job, _ = store.submit("run", request)
                store.run_pending()
            else:
                request = RUN_REQUEST
                job, _ = store.submit("run", request)
                store.cancel(job.key)
            assert job.state == ending
            # Another replica finished the key meanwhile.
            store.fabric.store_result(job.key, {"served": "from the fabric"})
            calls = _count_lookups(monkeypatch)
            retry, created = store.submit("run", request)
            assert calls == [job.key]
            assert created and retry is not job
            assert retry.state == "done"
            assert retry.result_doc() == {"served": "from the fabric"}
            assert {"type": "cached", "source": "fabric"} in [
                {k: e[k] for k in ("type", "source") if k in e}
                for e in retry.events
            ]
            store.run_pending()
            assert [e["state"] for e in retry.events if "state" in e] == [
                "done"  # never queued, never run
            ]
        finally:
            store.close()

    def test_fabric_error_fails_the_new_job_and_is_retried(
        self, tmp_path, monkeypatch
    ):
        store = JobStore(data_dir=tmp_path, workers=0)

        def locked(self, key):
            raise sqlite3.OperationalError("database is locked")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(FabricStore, "cached_result", locked)
                with pytest.raises(sqlite3.OperationalError):
                    store.submit("run", RUN_REQUEST)
            [failed] = store.list()
            assert failed.state == "error"  # not queued forever
            assert failed.error == "fabric error: database is locked"
            retry, created = store.submit("run", RUN_REQUEST)
            assert created and retry is not failed
            assert store.run_pending() == 1
            assert retry.state == "done"
        finally:
            store.close()

    def test_racing_submitters_of_a_new_key_share_one_job(
        self, tmp_path, monkeypatch
    ):
        store = JobStore(data_dir=tmp_path, workers=0)
        real = FabricStore.cached_result

        def slow(self, key):
            time.sleep(0.05)  # widen the window between lookup and queue
            return real(self, key)

        monkeypatch.setattr(FabricStore, "cached_result", slow)
        barrier = threading.Barrier(2)
        results = []

        def submit():
            barrier.wait()
            results.append(store.submit("run", RUN_REQUEST))

        try:
            threads = [threading.Thread(target=submit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            (first, created_a), (second, created_b) = results
            assert first is second
            assert sorted([created_a, created_b]) == [False, True]
            assert store.run_pending() == 1
            assert first.state == "done"
        finally:
            store.close()


def _count_accepts(service, monkeypatch):
    """Record every connection the service's listener accepts."""
    accepted = []
    real = service.server.get_request

    def get_request():
        accepted.append(1)
        return real()

    monkeypatch.setattr(service.server, "get_request", get_request)
    return accepted


def _raw_exchange(service, request: bytes) -> bytes:
    """Send raw bytes on a new connection; everything the server sends
    until it closes (a connection left open times the test out)."""
    with socket.create_connection(
        (service.host, service.port), timeout=10
    ) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _split_response(raw: bytes):
    """(status line, {header: value}, body) of one raw response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status, *lines = head.decode().split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return status, headers, body


class TestKeepAlive:
    """HTTP/1.1 keep-alive: one connection carries many requests, and
    every response is framed so the next request starts clean."""

    def test_cached_round_trips_use_one_connection(
        self, service, monkeypatch
    ):
        accepted = _count_accepts(service, monkeypatch)
        client = ServiceClient(service.url)
        job_id = client.submit("area", {})["job"]["id"]
        first = client.result(job_id, timeout=60)
        for _ in range(50):
            submitted = client.submit("area", {})
            assert not submitted["created"]
            assert client.result(submitted["job"]["id"], timeout=60) == first
        assert len(accepted) == 1

    def test_cancel_then_404_on_one_connection(self, service, monkeypatch):
        # The cancel's body must be read, or it prefixes the next
        # request line and that request is answered 501.
        accepted = _count_accepts(service, monkeypatch)
        client = ServiceClient(service.url)
        job_id = client.submit("run", RUN_REQUEST)["job"]["id"]
        assert client.cancel(job_id)["job"]["id"] == job_id
        with pytest.raises(ServiceError) as err:
            client.job("deadbeef")
        assert (err.value.status, err.value.message) == (
            404, "unknown job 'deadbeef'"
        )
        assert len(accepted) == 1

    def test_oversized_body_is_400_and_closes(self, service):
        client = ServiceClient(service.url)
        assert client.health()["ok"] is True
        raw = _raw_exchange(
            service,
            b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
        )
        status, headers, body = _split_response(raw)
        assert status.split()[1] == "400"
        assert headers["Connection"] == "close"
        assert json.loads(body) == {
            "error": "request body too large", "schema": api.SCHEMA,
        }
        assert client.health()["ok"] is True

    def test_next_request_after_an_event_stream(self, service):
        import http.client

        client = ServiceClient(service.url)
        job_id = client.submit("area", {})["job"]["id"]
        assert list(client.stream_events(job_id))[-1]["state"] == "done"
        assert client.job(job_id)["state"] == "done"
        # A client that streams on its kept-alive connection: the
        # stream ends the connection, and the next request opens one.
        conn = http.client.HTTPConnection(service.host, service.port)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            assert response.getheader("Connection") == "close"
            lines = response.read().splitlines()
            assert json.loads(lines[-1])["state"] == "done"
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["ok"] is True
        finally:
            conn.close()

    def test_http10_request_gets_one_response_and_close(self, service):
        raw = _raw_exchange(service, b"GET /v1/health HTTP/1.0\r\n\r\n")
        status, headers, body = _split_response(raw)
        assert status.split()[1] == "200"
        assert headers["Connection"] == "close"
        assert len(body) == int(headers["Content-Length"])  # nothing more
        assert json.loads(body)["ok"] is True

    def test_idle_connection_closed_by_the_server_is_retried(
        self, service, monkeypatch
    ):
        accepted = _count_accepts(service, monkeypatch)
        client = ServiceClient(service.url)
        assert client.health()["ok"] is True
        for request in list(service.server._open):
            request.shutdown(socket.SHUT_RDWR)  # the server drops it
        assert client.health()["ok"] is True  # once more, on a new one
        assert len(accepted) == 2

    def test_timeout_is_not_retried(self, service, monkeypatch):
        accepted = _count_accepts(service, monkeypatch)
        client = ServiceClient(service.url, timeout=0.5)
        assert client.health()["ok"] is True
        real = service.store.list
        monkeypatch.setattr(
            service.store, "list", lambda: time.sleep(1.5) or real()
        )
        with pytest.raises(TimeoutError):
            client.health()
        assert len(accepted) == 1

    def test_shutdown_ends_idle_kept_alive_connections(self, tmp_path):
        service = ReproService(port=0, data_dir=tmp_path, workers=1)
        handlers = []
        real = service.server.process_request_thread

        def record(request, client_address):
            handlers.append(threading.current_thread())
            real(request, client_address)

        service.server.process_request_thread = record
        service.start()
        client = ServiceClient(service.url)
        assert client.health()["ok"] is True
        assert len(handlers) == 1 and handlers[0].is_alive()  # idle
        stopper = threading.Thread(target=service.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert not any(thread.is_alive() for thread in handlers)
