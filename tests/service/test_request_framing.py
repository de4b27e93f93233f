"""Request framing on a kept-alive connection, as a property.

Any sequence of requests sent one after another on one HTTP/1.1
connection gets exactly one well-formed, schema-tagged JSON response
each, with the status its request calls for: bodies are read whole
(also where they are ignored), so no request leaks into the next.
"""

import http.client
import json
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.service import ReproService


def _not_json(raw: bytes) -> bool:
    try:
        json.loads(raw)
    except ValueError:
        return True
    return False


def _submit(kind: str, request) -> bytes:
    return json.dumps({"kind": kind, "request": request}).encode()


_HEX = "0123456789abcdef"
_PATH = string.ascii_letters + string.digits + "-_/"

#: (method, path, body or None, expected status)
REQUESTS = st.one_of(
    st.sampled_from([1, 2, 4]).map(
        lambda n: ("POST", "/v1/jobs", _submit("area", {"ecc_entries": n}),
                   202)
    ),
    st.binary(max_size=48).filter(_not_json).map(
        lambda raw: ("POST", "/v1/jobs", raw, 400)
    ),
    st.text(max_size=12).filter(lambda kind: kind not in api.KINDS).map(
        lambda kind: ("POST", "/v1/jobs", _submit(kind, {}), 400)
    ),
    st.tuples(
        st.sampled_from(["GET", "POST"]),
        st.text(alphabet=_PATH, max_size=16),
        st.one_of(st.none(), st.binary(max_size=32)),
    ).map(lambda t: (t[0], "/v2/" + t[1], t[2], 404)),
    st.tuples(
        st.text(alphabet=_HEX, min_size=1, max_size=16),
        st.one_of(st.none(), st.just(b"{}"), st.binary(max_size=32)),
    ).map(lambda t: ("POST", f"/v1/jobs/{t[0]}/cancel", t[1], 404)),
    st.binary(min_size=1, max_size=32).map(
        lambda raw: ("GET", "/v1/health", raw, 200)
    ),
)


def test_every_request_gets_one_framed_response(tmp_path):
    service = ReproService(port=0, data_dir=tmp_path, workers=1).start()
    conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
    try:
        conn.connect()
        sock = conn.sock

        @settings(derandomize=True, max_examples=40, database=None)
        @given(st.lists(REQUESTS, min_size=1, max_size=8))
        def check(requests):
            for method, path, body, expected in requests:
                conn.request(method, path, body=body)
                response = conn.getresponse()
                raw = response.read()
                assert response.status == expected, (method, path, raw)
                assert response.status in (200, 202, 400, 404, 409)
                assert b"Traceback" not in raw
                doc = json.loads(raw)
                assert doc["schema"] == api.SCHEMA
                assert (response.status >= 400) == ("error" in doc)
                assert not response.will_close
                assert conn.sock is sock  # still the first connection

        check()
    finally:
        conn.close()
        service.shutdown()
