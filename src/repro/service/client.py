"""Stdlib HTTP client for the repro job service.

Thin :mod:`http.client` wrapper speaking the :mod:`repro.service.server`
wire protocol: submit a request document, follow its NDJSON progress
stream, fetch the result document.  Each thread keeps one kept-alive
connection, so a round trip pays no connection set-up.  Used by the CI
smoke script and the tests; any HTTP client works equally well.

The wire protocol is versioned: every response body and streamed event
must carry ``"schema": "repro/v1"`` (:data:`repro.api.SCHEMA`).  A
document without it — or with a version this client does not speak — is
a :class:`repro.api.ReproError`, not a silent best-effort parse; the
tag is stripped before the document is returned, so callers compare
payloads against the facade's ``as_dict()`` output unchanged.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, Mapping, Optional
from urllib.parse import urlsplit

from repro.api import SCHEMA, ReproError


class ServiceError(Exception):
    """An HTTP-level failure, carrying the server's error text."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _check_schema(doc: Any) -> Any:
    """Validate and strip the ``repro/v1`` envelope tag."""
    if not isinstance(doc, dict):
        return doc
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise ReproError(
            f"service response schema {schema!r} is not {SCHEMA!r}; "
            "refusing to parse a document from an incompatible server"
        )
    return {key: value for key, value in doc.items() if key != "schema"}


def _message(raw: bytes) -> str:
    """The ``error`` text of an error response body."""
    try:
        return json.loads(raw).get("error", raw.decode())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return raw.decode(errors="replace")


class _Connection(http.client.HTTPConnection):
    """A kept-alive connection that closes its socket when collected:
    a client's idle connections end with the client or its thread."""

    def __del__(self) -> None:
        self.close()


class _TLSConnection(http.client.HTTPSConnection, _Connection):
    pass


class ServiceClient:
    """Client for one service base URL (e.g. ``http://127.0.0.1:8642``)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._url = urlsplit(self.base_url)
        self._held = threading.local()

    # -- plumbing ----------------------------------------------------------

    def _connect(self, timeout: Optional[float]) -> _Connection:
        cls = _TLSConnection if self._url.scheme == "https" else _Connection
        return cls(self._url.netloc, timeout=timeout)

    def _exchange(
        self, method: str, path: str, body: Optional[bytes], timeout: float
    ) -> tuple:
        """(status, raw body) over this thread's kept-alive connection.

        Retries once, on a new connection, only when a reused one fails
        before its status line (the server closed it while idle); a
        timeout is never retried."""
        conn = getattr(self._held, "conn", None)
        if conn is None:
            conn = self._held.conn = self._connect(timeout)
        reused = conn.sock is not None
        headers = {"Content-Type": "application/json"}
        while True:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            try:
                try:
                    conn.request(method, self._url.path + path, body, headers)
                    response = conn.getresponse()
                except (ConnectionError, http.client.BadStatusLine):
                    if not reused:
                        raise
                    conn.close()
                    reused = False
                    continue
                return response.status, response.read()
            except BaseException:
                conn.close()  # a broken or half-read exchange cannot be reused
                raise

    def _request_status(
        self,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> tuple:
        """(HTTP status, decoded JSON body); raises on 4xx/5xx."""
        status, raw = self._exchange(
            "GET" if body is None else "POST",
            path,
            None if body is None else json.dumps(body).encode(),
            timeout or self.timeout,
        )
        if status >= 400:
            raise ServiceError(status, _message(raw))
        return status, _check_schema(json.loads(raw))

    def _request(
        self,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self._request_status(path, body, timeout)[1]

    # -- endpoints ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("/v1/health")

    def healthz(self) -> Dict[str, Any]:
        return self._request("/v1/healthz")

    def workers(self) -> Dict[str, Any]:
        """Fabric worker registry: every replica on this data dir."""
        return self._request("/v1/workers")

    def kinds(self) -> Dict[str, Any]:
        return self._request("/v1/kinds")["kinds"]

    def submit(
        self, kind: str, request: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Submit one request; returns ``{"job": {...}, "created": bool}``."""
        return self._request(
            "/v1/jobs", body={"kind": kind, "request": dict(request or {})}
        )

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request(f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; returns the (possibly already
        terminal) job document."""
        return self._request(f"/v1/jobs/{job_id}/cancel", body={})

    def jobs(self) -> Any:
        return self._request("/v1/jobs")["jobs"]

    def stream_events(
        self, job_id: str, start: int = 0
    ) -> Iterator[Dict[str, Any]]:
        """Follow a job's NDJSON progress stream until it terminates.

        The stream has a connection of its own (the server closes it at
        the end), so this thread's other requests may interleave."""
        conn = self._connect(None)
        try:
            conn.request(
                "GET", f"{self._url.path}/v1/jobs/{job_id}/events?start={start}"
            )
            response = conn.getresponse()
            if response.status >= 400:
                raise ServiceError(response.status, _message(response.read()))
            for line in response:
                line = line.strip()
                if line:
                    yield _check_schema(json.loads(line))
        finally:
            conn.close()

    def result(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll until the job finishes; returns its result document.

        Raises :class:`ServiceError` (status 500) if the job failed, or
        :class:`TimeoutError` if it is still running after ``timeout``.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still pending after {timeout}s"
                )
            wait = min(remaining, 10.0)
            status, doc = self._request_status(
                f"/v1/jobs/{job_id}/result?wait={wait:.1f}",
                timeout=wait + self.timeout,
            )
            if status == 200:
                return doc
            time.sleep(min(poll, max(deadline - time.monotonic(), 0)))

    def run_to_completion(
        self,
        kind: str,
        request: Optional[Mapping[str, Any]] = None,
        timeout: float = 300.0,
    ) -> Dict[str, Any]:
        """Submit, wait, and return the result document."""
        job_id = self.submit(kind, request)["job"]["id"]
        return self.result(job_id, timeout=timeout)


__all__ = ["ServiceClient", "ServiceError"]
