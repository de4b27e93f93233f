"""Request framing on a kept-alive connection, as a property.

Any sequence of requests sent one after another on one HTTP/1.1
connection gets exactly one well-formed, schema-tagged JSON response
each, with the status its request calls for: bodies are read whole
(also where they are ignored), so no request leaks into the next.  A
job view's query number that cannot be read gets a one-line 400 on the
same connection.
"""

import http.client
import json
import math
import string
from urllib.parse import quote

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


#: Query numbers the job views refuse: not a number, not finite, or
#: (for an event stream's ``start``) negative.
BAD_QUERIES = [
    ("result", "wait=soon"), ("result", "wait=inf"), ("result", "wait=-inf"),
    ("result", "wait=nan"), ("result", "wait=1e400"), ("result", "wait=0x10"),
    ("events", "start=soon"), ("events", "start=1.5"),
    ("events", "start=-1"), ("events", "start=inf"),
]


def _expected_wait_status(text: str) -> int:
    if not text:
        return 200  # parse_qs drops a blank value: no wait
    try:
        return 200 if math.isfinite(float(text)) else 400
    except ValueError:
        return 400


def test_bad_query_numbers_get_one_line_400(tmp_path):
    service = ReproService(port=0, data_dir=tmp_path, workers=1).start()
    conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body=_submit("area", {}))
        job_id = json.loads(conn.getresponse().read())["job"]["id"]
        conn.request("GET", f"/v1/jobs/{job_id}/result?wait=30")
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        sock = conn.sock

        def get(view, query):
            conn.request("GET", f"/v1/jobs/{job_id}/{view}?{query}")
            response = conn.getresponse()
            raw = response.read()
            assert b"Traceback" not in raw
            assert not response.will_close
            assert conn.sock is sock  # still the first connection
            doc = json.loads(raw)
            assert doc["schema"] == api.SCHEMA
            return response.status, doc

        for view, query in BAD_QUERIES:
            status, doc = get(view, query)
            assert status == 400, (view, query)
            assert "\n" not in doc["error"] and query.split("=")[0] in doc["error"]
        # A finite wait past what a lock's timeout holds is still a wait.
        assert get("result", "wait=1e10")[0] == 200

        @settings(derandomize=True, max_examples=40, database=None)
        @given(st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
        ))
        def check(text):
            status, doc = get("result", "wait=" + quote(text))
            assert status == _expected_wait_status(text), text
            assert (status == 400) == ("error" in doc)

        check()
    finally:
        conn.close()
        service.shutdown()
