"""The ``repro serve`` HTTP/JSON front end — stdlib only.

A thin wire adapter over :mod:`repro.api` and :class:`.jobs.JobStore`:
handlers parse and validate JSON bodies, call the same facade functions
the CLI calls, and render every answer through
:func:`repro.core.io.render_response` — which is why a warm
``POST /v1/case`` body is byte-identical to ``repro case --json``
output for the same spec.

Endpoints (all bodies are schema-versioned envelopes
``{"schema": 1, "kind": ..., "data": ...}``):

=======  ======================  ==============================================
method   path                    answer
=======  ======================  ==============================================
GET      ``/v1/health``          liveness probe
GET      ``/v1/cases``           registered case catalog
GET      ``/v1/fleet``           ``sweep_status`` rollup as JSON
POST     ``/v1/case``            200 result (warm) / 202 job (enqueued)
POST     ``/v1/sweep``           200 result (all warm) / 202 job (enqueued)
GET      ``/v1/jobs/<id>``       job status (queued/running/done/lost)
GET      ``/v1/jobs/<id>/result``  200 canonical result / 409 while in flight
=======  ======================  ==============================================

Errors are structured, never tracebacks: ``kind="error"`` with a
stable ``{"status": <code>, "error": {"type": ..., "message": ...}}``
schema — including the paths the stdlib would answer with HTML pages
(bad request line, unsupported method).  The server owns no state —
kill it, restart it, run several: every answer re-derives from the
shared cache directory (see :mod:`.jobs`).

Concurrency and degradation: :class:`ThreadingHTTPServer` threads
handle requests; blocking work (a cache read, a queue append) is small
and lock-guarded in the store.  Simulations never run in the server
process — cold work goes to the sweep-worker fleet.  Every connection
carries a per-request socket timeout, at most ``max_inflight`` requests
run at once (excess get ``503`` + ``Retry-After`` instead of an
unbounded thread pile-up), and :meth:`ReproServer.drain` — wired to
SIGTERM by ``repro serve`` — stops admissions and waits for in-flight
requests so shutdowns never tear answers mid-body.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from .. import api
from ..core.io import render_response
from ..errors import ReproError
from ..scenarios.registry import available_cases, get_case
from ..telemetry.recorder import NULL_TELEMETRY, process_recorder
from .jobs import JobStore

__all__ = ["ReproServer", "create_server"]

#: Request bodies larger than this are rejected outright — specs are
#: tiny; anything bigger is a mistake or abuse.
MAX_BODY_BYTES = 1 << 20

#: Default per-request socket timeout (seconds) — a stalled client
#: cannot pin a handler thread forever.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Default concurrent-request admission cap; excess requests are told
#: to come back (503 + Retry-After) instead of queueing unboundedly.
DEFAULT_MAX_INFLIGHT = 32

_JOB_PATH = re.compile(r"/v1/jobs/([^/]+)")
_JOB_RESULT_PATH = re.compile(r"/v1/jobs/([^/]+)/result")

_CASE_FIELDS = frozenset({"case", "overrides", "steps", "kernel", "dtype"})
_SWEEP_FIELDS = frozenset({"case", "grid", "steps", "kernel", "dtype"})


class ReproServer(ThreadingHTTPServer):
    """One serving process over one shared sweep cache directory."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        store: JobStore,
        telemetry=None,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if max_inflight < 0:
            raise ReproError(f"max_inflight must be >= 0, got {max_inflight}")
        if request_timeout <= 0:
            raise ReproError(
                f"request_timeout must be positive, got {request_timeout}"
            )
        self.store = store
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.max_inflight = int(max_inflight)
        self.request_timeout = float(request_timeout)
        self.draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- admission / drain -------------------------------------------------

    def try_begin_request(self) -> str | None:
        """Admit one request; the refusal reason when over capacity."""
        with self._inflight_lock:
            if self.draining:
                return "server is draining (shutting down)"
            if self._inflight >= self.max_inflight:
                return (
                    f"server is at capacity "
                    f"({self.max_inflight} request(s) in flight)"
                )
            self._inflight += 1
            self._idle.clear()
            return None

    def end_request(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.set()

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting requests; ``True`` once in-flight ones finish.

        Graceful-shutdown half: new requests get 503 + Retry-After
        while answers already being computed go out whole.
        """
        self.draining = True
        return self._idle.wait(timeout)


def create_server(
    cache_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    telemetry: bool = False,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
) -> ReproServer:
    """Build a ready-to-run server (``port=0`` picks a free port).

    ``telemetry=True`` records request spans, serve cache-hit counters
    and queue-depth gauge events under ``<cache-dir>/telemetry`` —
    the same event stream ``repro events`` and ``/v1/fleet`` read.
    ``max_inflight`` / ``request_timeout`` bound concurrent requests
    and per-request socket stalls (see :class:`ReproServer`).
    """
    recorder = NULL_TELEMETRY
    if telemetry:
        recorder = process_recorder(
            api.telemetry_dir(cache_dir),
            process=f"serve-{socket.gethostname()}:{os.getpid()}",
        )
    store = JobStore(cache_dir, telemetry=recorder)
    return ReproServer(
        (host, port),
        store,
        recorder,
        max_inflight=max_inflight,
        request_timeout=request_timeout,
    )


def _require_str(body: dict[str, Any], field: str, required: bool = False):
    value = body.get(field)
    if value is None:
        if required:
            raise ValueError(f"{field!r} is required and must be a string")
        return None
    if not isinstance(value, str):
        raise ValueError(f"{field!r} must be a string")
    return value


def _require_steps(body: dict[str, Any]):
    steps = body.get("steps")
    if steps is None:
        return None
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ValueError("'steps' must be an integer")
    return steps


def _check_fields(body: dict[str, Any], allowed: frozenset) -> None:
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ValueError(
            f"unknown field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Headers and body go out in two sends; with Nagle's algorithm on,
    # the body waits for the client's delayed ACK of the headers (~40 ms
    # per response on a kept-alive connection).
    disable_nagle_algorithm = True
    server: ReproServer  # narrowed from BaseServer for attribute access

    def setup(self) -> None:
        # Per-request socket timeout: both the header read the stdlib
        # does and our own body reads/writes are bounded, so a stalled
        # client releases its handler thread.
        self.timeout = self.server.request_timeout
        super().setup()

    # Telemetry spans replace stderr request logging.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def send_error(self, code, message=None, explain=None) -> None:
        """Stdlib error hook (bad request line, unsupported method...):
        answer with the same JSON error schema as every other path,
        never the built-in HTML page."""
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self._send_error(int(code), str(message), error_type="http")

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    # -- plumbing ----------------------------------------------------------

    def _route(self, method: str) -> None:
        refusal = self.server.try_begin_request()
        if refusal is not None:
            self._send_error(
                503, refusal, error_type="overloaded", retry_after=1
            )
            return
        try:
            self._handle_admitted(method)
        finally:
            self.server.end_request()

    def _handle_admitted(self, method: str) -> None:
        telemetry = self.server.telemetry
        path = urlsplit(self.path).path
        with telemetry.span("serve.request", method=method, path=path) as span:
            try:
                status = self._dispatch(method, path)
            except (ReproError, ValueError, KeyError, TypeError) as exc:
                status = self._send_error(
                    400, str(exc), error_type=type(exc).__name__
                )
            except (BrokenPipeError, ConnectionResetError, TimeoutError):
                # Client hung up or stalled past the request timeout;
                # nothing left to send — just drop the connection.
                self.close_connection = True
                status = 0
            except Exception as exc:  # never a traceback on the wire
                status = self._send_error(
                    500,
                    f"internal error: {type(exc).__name__}: {exc}",
                    error_type="internal",
                )
            span.set(status=status)
        if telemetry.enabled:
            telemetry.count("serve.request")

    def _dispatch(self, method: str, path: str) -> int:
        store = self.server.store
        if method == "POST":
            body = self._read_json()
            if path == "/v1/case":
                return self._post_case(body)
            if path == "/v1/sweep":
                return self._post_sweep(body)
            return self._send_error(404, f"no route for POST {path}")
        if path == "/v1/health":
            return self._send(200, "health", {"ok": True, "root": str(store.root)})
        if path == "/v1/cases":
            return self._send(200, "cases", _catalog_payload())
        if path == "/v1/fleet":
            return self._send(
                200, "fleet", api.sweep_status(store.root).to_payload()
            )
        match = _JOB_RESULT_PATH.fullmatch(path)
        if match:
            return self._get_result(match.group(1))
        match = _JOB_PATH.fullmatch(path)
        if match:
            return self._get_job(match.group(1))
        return self._send_error(404, f"no route for GET {path}")

    def _read_json(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required (a JSON object)")
        if length > MAX_BODY_BYTES:
            raise ValueError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _send(
        self,
        status: int,
        kind: str,
        data: Any,
        headers: dict[str, str] | None = None,
    ) -> int:
        body = (render_response(kind, data) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        return status

    _ERROR_TYPES = {404: "not-found", 409: "conflict", 503: "overloaded"}

    def _send_error(
        self,
        status: int,
        message: str,
        *,
        error_type: str | None = None,
        retry_after: int | None = None,
    ) -> int:
        # The body may not have been fully read on a validation error;
        # don't let a broken request poison a kept-alive connection.
        self.close_connection = True
        if error_type is None:
            error_type = self._ERROR_TYPES.get(status, "error")
        headers = (
            {"Retry-After": str(retry_after)} if retry_after is not None else None
        )
        try:
            return self._send(
                status,
                "error",
                {
                    "status": status,
                    "error": {"type": error_type, "message": message},
                },
                headers=headers,
            )
        except OSError:
            # The socket died while we reported an error about it;
            # there is no one left to tell.
            return status

    # -- endpoints ---------------------------------------------------------

    def _post_case(self, body: dict[str, Any]) -> int:
        _check_fields(body, _CASE_FIELDS)
        case = _require_str(body, "case", required=True)
        overrides = body.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise ValueError("'overrides' must be an object of spec overrides")
        record, payload = self.server.store.submit_case(
            case=case,
            overrides=overrides,
            steps=_require_steps(body),
            kernel=_require_str(body, "kernel"),
            dtype=_require_str(body, "dtype"),
        )
        if payload is not None:
            return self._send(200, "case", payload)
        return self._send(202, "job", self.server.store.status_payload(record))

    def _post_sweep(self, body: dict[str, Any]) -> int:
        _check_fields(body, _SWEEP_FIELDS)
        case = _require_str(body, "case", required=True)
        grid = body.get("grid")
        if not isinstance(grid, dict) or not grid:
            raise ValueError(
                "'grid' is required and must be an object of parameter "
                "-> list-of-values axes"
            )
        for key, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ValueError(
                    f"grid axis {key!r} must be a non-empty list of values"
                )
        record, result = self.server.store.submit_sweep(
            case=case,
            grid=grid,
            steps=_require_steps(body),
            kernel=_require_str(body, "kernel"),
            dtype=_require_str(body, "dtype"),
        )
        if result is not None:
            return self._send(200, "sweep", api.sweep_payload(result))
        return self._send(202, "job", self.server.store.status_payload(record))

    def _get_job(self, job_id: str) -> int:
        record = self.server.store.get(job_id)
        if record is None:
            return self._send_error(404, f"unknown job {job_id!r}")
        return self._send(200, "job", self.server.store.status_payload(record))

    def _get_result(self, job_id: str) -> int:
        record = self.server.store.get(job_id)
        if record is None:
            return self._send_error(404, f"unknown job {job_id!r}")
        response = self.server.store.result_response(record)
        if response is None:
            return self._send_error(
                409,
                f"job {job_id!r} is not complete; poll /v1/jobs/{job_id} "
                "until status is 'done'",
            )
        kind, payload = response
        return self._send(200, kind, payload)


def _catalog_payload() -> dict[str, Any]:
    cases = []
    for name in available_cases():
        spec = get_case(name)
        cases.append(
            {
                "name": name,
                "title": spec.title,
                "lattice": spec.lattice,
                "shape": list(spec.shape),
                "steps": spec.steps,
            }
        )
    return {"cases": cases}
