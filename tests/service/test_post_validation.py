"""``POST /v1/jobs`` rejects bad input with a 400 and creates no job.

Each request below used to be accepted, queued, and then fail in a
worker; the request dataclasses now validate at construction, which
the service runs while parsing the POST body.
"""

import pytest

from repro.service import ReproService, ServiceClient, ServiceError


@pytest.fixture()
def client(tmp_path):
    service = ReproService(port=0, data_dir=tmp_path, workers=1).start()
    yield ServiceClient(service.url)
    service.shutdown()


@pytest.mark.parametrize(
    "kind,request_doc,message",
    [
        ("run", {"benchmark": "gcc"}, "unknown benchmark 'gcc'"),
        ("ipc", {"insts": 0}, "insts must be positive"),
        ("ipc", {"refs": 60000}, "unknown IpcRequest field(s): refs"),
        ("ipc", {"warmup": 20000}, "unknown IpcRequest field(s): warmup"),
        ("area", {"ecc_entries": 0}, "ecc_entries must be positive"),
        ("inject", {"flips": 0}, "trials and flips must be positive"),
        ("inject", {"flips": 100}, "flips must be at most 72"),
        ("figures", {"fig": "99"}, "unknown figure '99'"),
        ("figures", {"ecc_area_entries": 0},
         "ecc_area_entries must be positive"),
        ("ablate", {"study": "voltage"}, "unknown study 'voltage'"),
        ("ablate", {"benchmarks": ["gcc"]}, "unknown benchmark 'gcc'"),
        ("reliability", {"trials_per_shard": 0},
         "shard sizing must be positive"),
    ],
)
def test_bad_request_is_400_and_creates_no_job(
    client, kind, request_doc, message
):
    with pytest.raises(ServiceError) as err:
        client.submit(kind, request_doc)
    assert err.value.status == 400
    assert message in str(err.value)
    assert client.jobs() == []
