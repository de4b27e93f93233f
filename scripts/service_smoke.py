#!/usr/bin/env python
"""CI smoke test for the repro job service.

Starts the HTTP service on an ephemeral port, submits a small
reliability campaign over the wire twice (the second submission must
dedupe onto the first job), follows the NDJSON progress stream to
completion, fetches the result document, and asserts it matches a
direct :mod:`repro.api` call bit for bit.  Then it runs a small
autotune grid: the served document must equal a direct
:func:`repro.api.autotune` call, the data dir must hold only
``fabric.db*`` (the one store: no result-cache tree, no per-point
checkpoints), and an overlapping grid on a fresh replica over the same
data dir must execute only its new points.  Last, 20 cached-key round
trips from one client must reuse one server connection (keep-alive).
Exits nonzero on any mismatch — this is the end-to-end gate that the
service, the facade and the campaign engine agree.

Usage: ``PYTHONPATH=src python scripts/service_smoke.py``
"""

import json
import sys
import tempfile
from pathlib import Path

from repro import api
from repro.experiments.pool import SweepEngine
from repro.service import ReproService, ServiceClient

CAMPAIGN = {
    "trials": 500,
    "trials_per_shard": 125,
    "shards_per_round": 4,
    "seed": 9,
}

#: Three design points: non-uniform at two cleaning intervals, plus
#: uniform-ecc.  OVERLAP adds the dected codec: three new points.
GRID = {
    "benchmarks": ["mesa"],
    "schemes": ["non-uniform", "uniform-ecc"],
    "codecs": ["secded"],
    "trials": 1000,
    "refs": 6000,
    "warmup": 2000,
}
OVERLAP = dict(GRID, codecs=["secded", "dected"])


def check_autotune(client: ServiceClient, data: str) -> None:
    """Served grid == direct call; only fabric.db* on disk; a fresh
    replica executes only an overlapping grid's new points."""
    job = client.submit("autotune", GRID)["job"]
    served = client.result(job["id"], timeout=300)
    direct = api.autotune(
        api.request_from_dict(api.AutotuneRequest, GRID),
        engine=SweepEngine(),
    )
    assert served == json.loads(json.dumps(direct.as_dict())), (
        "served autotune document diverged from the direct facade call"
    )
    print(f"autotune document matches direct api call "
          f"({served['executed']} points)")

    entries = sorted(path.name for path in Path(data).iterdir())
    stray = [name for name in entries if not name.startswith("fabric.db")]
    assert not stray, f"unexpected data-dir entries: {stray}"

    replica = ReproService(port=0, data_dir=data, workers=1).start()
    try:
        other = ServiceClient(replica.url)
        job = other.submit("autotune", OVERLAP)["job"]
        overlap = other.result(job["id"], timeout=300)
    finally:
        replica.shutdown()
    new = len(overlap["points"]) - len(served["points"])
    assert (overlap["executed"], overlap["cached"]) == (
        new, len(served["points"])
    ), (overlap["executed"], overlap["cached"])
    print(f"fresh replica executed only the overlapping grid's {new} new "
          f"points ({overlap['cached']} cached)")


def check_keep_alive(service: ReproService) -> None:
    """20 cached-key round trips from one client ride one connection."""
    accepted = []
    accept = service.server.get_request
    service.server.get_request = lambda: accepted.append(1) or accept()
    client = ServiceClient(service.url)
    for _ in range(20):
        job = client.submit("autotune", GRID)["job"]
        client.result(job["id"], timeout=60)
    assert len(accepted) == 1, (
        f"20 cached-key round trips took {len(accepted)} connections"
    )
    print("20 cached-key round trips reused one server connection")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as data:
        service = ReproService(port=0, data_dir=data, workers=2).start()
        try:
            client = ServiceClient(service.url)
            health = client.health()
            assert health["ok"] is True, health

            first = client.submit("reliability", CAMPAIGN)
            second = client.submit("reliability", CAMPAIGN)
            assert first["job"]["id"] == second["job"]["id"], (
                "identical submissions must map to one job"
            )
            assert [first["created"], second["created"]].count(True) == 1, (
                "exactly one submission may create the job"
            )
            job_id = first["job"]["id"]
            print(f"submitted campaign job {job_id[:16]}… (deduped)")

            events = list(client.stream_events(job_id))
            shards = sum(1 for e in events if e["type"] == "shard")
            rounds = sum(1 for e in events if e["type"] == "round")
            assert events[-1]["type"] == "state", events[-1]
            assert events[-1]["state"] == "done", events[-1]
            print(f"streamed {len(events)} events "
                  f"({shards} shards, {rounds} rounds)")

            served = client.result(job_id, timeout=300)
            direct = api.reliability(
                api.request_from_dict(api.ReliabilityRequest, CAMPAIGN),
                engine=SweepEngine(),
            )
            expected = json.loads(json.dumps(direct.as_dict()))
            # The served job ran against the service checkpoint; the
            # campaign numbers must still be bit-identical.
            assert served["campaign"] == expected["campaign"], (
                "served campaign document diverged from the direct "
                "facade call"
            )
            trials = served["campaign"]["total_trials"]
            print(f"campaign document matches direct api call "
                  f"({trials} trials)")
            check_autotune(client, data)
            check_keep_alive(service)
        finally:
            service.shutdown()
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
