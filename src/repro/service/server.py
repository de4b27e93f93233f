"""HTTP front end: stdlib ``ThreadingHTTPServer`` over a :class:`JobStore`.

Endpoints (all JSON unless noted):

========================  =====================================================
``POST /v1/jobs``         submit ``{"kind": ..., "request": {...}}`` →
                          202 ``{"job": {...}, "created": bool}``; ``created``
                          false means an identical job already existed (the
                          submission was deduplicated onto it)
``GET /v1/jobs``          list all job documents
``GET /v1/jobs/<id>``     one job document (plus ``result`` once done)
``GET /v1/jobs/<id>/result``  the result document; ``?wait=SECONDS`` blocks
                          until the job is terminal; 202 while pending,
                          500 + error text if the job failed
``GET /v1/jobs/<id>/events``  progress stream, NDJSON by default
                          (``application/x-ndjson``, one event per line) or
                          SSE (``text/event-stream``) when the client sends
                          ``Accept: text/event-stream`` or ``?sse=1``;
                          ``?start=N`` replays from event seq N; the stream
                          always ends with the terminal ``state`` event
``POST /v1/jobs/<id>/cancel``  request cancellation (local + cluster-wide
                          through the fabric); 404 when neither this
                          replica nor the fabric knows the id
``GET /v1/kinds``         known request kinds with their default documents
``GET /v1/health``        liveness + job counts (``/v1/healthz`` is an
                          alias, plus this replica's fabric identity)
``GET /v1/workers``       fabric worker registry: every replica sharing
                          this data dir, with heartbeat liveness
========================  =====================================================

Every JSON response body — and every streamed event line — carries the
wire version tag ``"schema": "repro/v1"`` (:data:`repro.api.SCHEMA`);
clients reject documents without it (see
:class:`repro.service.client.ServiceClient`).

Bad requests (unknown kind/field/benchmark — anything
:class:`repro.api.ReproError`) are HTTP 400 with ``{"error": ...}``;
unknown job ids are 404; a canceled job's result is 409.  The server is
plain stdlib: keep-alive HTTP/1.1 (an HTTP/1.0 request still gets one
response and a closed connection), one thread per connection, so
streaming a long-running campaign never blocks other clients.  Every
request's body is read whole before it is answered, so the next request
on the connection starts at its own first byte; a body over
:data:`MAX_BODY_BYTES` is refused (400) and its connection closed, as is
every event stream (it has no ``Content-Length``).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import api
from repro.service.jobs import Job, JobStore

#: Request-body size cap (a request document is small; anything larger
#: is a mistake or abuse).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request; ``store`` is injected by :class:`ReproService`."""

    store: JobStore  # class attribute, set per-service
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, the second
    # waits for the peer's delayed ACK (~40 ms per response).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        pass  # quiet by default; telemetry belongs to the job events

    def _send_json(self, status: int, doc: Any) -> None:
        if isinstance(doc, dict):
            doc = dict(doc, schema=api.SCHEMA)
        body = json.dumps(doc, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _take_body(self) -> Optional[bytes]:
        """The request body, read whole; None once a body that cannot
        be framed or is too large has been refused (400, connection
        closed, since its bytes are left unread)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if "Transfer-Encoding" in self.headers:
            message = "chunked request bodies are not supported"
        elif length < 0:
            message = "bad Content-Length"
        elif length > MAX_BODY_BYTES:
            message = "request body too large"
        else:
            return self.rfile.read(length) if length else b""
        self.close_connection = True
        self._error(400, message)
        return None

    @staticmethod
    def _json_object(raw: bytes) -> Dict[str, Any]:
        try:
            doc = json.loads(raw or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise api.ReproError(f"request body is not JSON: {err}") from None
        if not isinstance(doc, dict):
            raise api.ReproError("request body must be a JSON object")
        return doc

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/"), query

    def _job_or_404(self, job_id: str) -> Optional[Job]:
        job = self.store.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
        return job

    # -- verbs -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        raw = self._take_body()
        if raw is None:
            return
        path, _ = self._route()
        try:
            if path == "/v1/jobs":
                doc = self._json_object(raw)
                kind = doc.get("kind")
                if not isinstance(kind, str):
                    raise api.ReproError("missing request kind")
                request = doc.get("request") or {}
                job, created = self.store.submit(kind, request)
                self._send_json(
                    202, {"job": job.describe(), "created": created}
                )
            elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/v1/jobs/"): -len("/cancel")]
                job, known = self.store.cancel(job_id)
                if not known:
                    self._error(404, f"unknown job {job_id!r}")
                elif job is not None:
                    self._send_json(200, {"job": job.describe()})
                else:
                    # Another replica owns the local record; the fabric
                    # carries the cancel to it.
                    self._send_json(200, {
                        "job": {"id": job_id, "state": "canceled"},
                    })
            else:
                self._error(404, f"unknown path {path!r}")
        except api.ReproError as err:
            self._error(400, str(err))

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if self._take_body() is None:
            return
        path, query = self._route()
        if path in ("/v1/health", "/v1/healthz"):
            jobs = self.store.list()
            self._send_json(200, {
                "ok": True,
                "replica_id": self.store.replica_id,
                "jobs": len(jobs),
                "running": sum(1 for j in jobs if j.state == "running"),
            })
        elif path == "/v1/workers":
            self._send_json(200, {
                "replica_id": self.store.replica_id,
                "workers": self.store.fabric.workers(),
            })
        elif path == "/v1/kinds":
            self._send_json(200, {
                "kinds": {
                    kind: api.default_doc(kind)
                    for kind in sorted(api.KINDS)
                },
            })
        elif path == "/v1/jobs":
            self._send_json(
                200, {"jobs": [job.describe() for job in self.store.list()]}
            )
        elif path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                job = self._job_or_404(rest[: -len("/events")])
                if job is not None:
                    self._stream_events(job, query)
            elif rest.endswith("/result"):
                job = self._job_or_404(rest[: -len("/result")])
                if job is not None:
                    self._send_result(job, query)
            else:
                job = self._job_or_404(rest)
                if job is not None:
                    doc = job.describe()
                    result = job.result_doc()
                    if result is not None:
                        doc["result"] = result
                    self._send_json(200, doc)
        else:
            self._error(404, f"unknown path {path!r}")

    # -- job views ---------------------------------------------------------

    def _send_result(self, job: Job, query: Dict[str, str]) -> None:
        wait = float(query.get("wait", 0) or 0)
        if wait > 0:
            job.wait(timeout=wait)
        if job.state == "error":
            self._error(500, job.error or "job failed")
        elif job.state == "canceled":
            self._send_json(409, {"state": "canceled"})
        elif job.state != "done":
            self._send_json(202, {"state": job.state})
        else:
            self._send_json(200, job.result_doc())

    def _stream_events(self, job: Job, query: Dict[str, str]) -> None:
        """NDJSON (default) or SSE progress stream until terminal."""
        sse = (
            query.get("sse") == "1"
            or "text/event-stream" in (self.headers.get("Accept") or "")
        )
        start = int(query.get("start", 0) or 0)
        self.send_response(200)
        self.send_header(
            "Content-Type",
            "text/event-stream" if sse else "application/x-ndjson",
        )
        self.send_header("Cache-Control", "no-cache")
        # No Content-Length: the end of the stream is the closed
        # connection.
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for event in job.iter_events(start=start):
                line = json.dumps(
                    dict(event, schema=api.SCHEMA), sort_keys=True
                )
                if sse:
                    payload = f"data: {line}\n\n".encode()
                else:
                    payload = line.encode() + b"\n"
                self.wfile.write(payload)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the job keeps running


class _Server(ThreadingHTTPServer):
    """Thread-per-connection listener that ends its kept-alive
    connections on close: a handler waiting for an idle client's next
    request reads end-of-stream and exits before :meth:`server_close`
    returns."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._open: Dict[Any, threading.Thread] = {}
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            open_ = list(self._open.items())
        for request, _ in open_:
            try:
                # Reading side only: a response being written still
                # goes out whole.
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        # Idle handlers exit at once; one still answering (a long
        # result wait, an event stream) is left to finish as a daemon.
        deadline = time.monotonic() + 1.0
        for _, thread in open_:
            thread.join(max(0.0, deadline - time.monotonic()))


class ReproService:
    """The assembled service: one :class:`JobStore` behind one listener.

    ``port=0`` binds an ephemeral port (``.port`` reports the real
    one), which is what the tests and the CI smoke script use.  Use
    :meth:`start` for a background thread or :meth:`serve_forever` to
    block (the CLI's ``repro serve``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        data_dir: Optional[str] = None,
        workers: int = 2,
        jobs: int = 1,
        store: Optional[JobStore] = None,
        replica_id: Optional[str] = None,
    ) -> None:
        self.store = store or JobStore(
            data_dir=data_dir, workers=workers, jobs=jobs,
            replica_id=replica_id,
        )
        handler = type("BoundHandler", (_Handler,), {"store": self.store})
        self.server = _Server((host, port), handler)
        self.host, self.port = self.server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def data_dir(self):
        return self.store.data_dir

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproService":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.server.serve_forever()

    def shutdown(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.store.close()


__all__ = ["MAX_BODY_BYTES", "ReproService"]
