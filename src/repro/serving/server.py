"""The ``quorum-repro serve`` runtime service (stdlib only).

A versioned JSON API over the serving managers, fully specified in
``docs/API.md``:

* ``/v1/models``               -- multi-model registry: list, load, unload,
  and ``POST /v1/models/{id}/score`` for synchronous micro-batched scoring.
* ``/v1/jobs``                 -- async jobs (``replay_dataset``, ``score``,
  ``fit``) on a bounded worker pool: submit, poll status, fetch result,
  cancel; finished jobs expire after a TTL.
* ``/v1/sessions``             -- sticky scoring sessions (``dedicated``
  sequential + deterministic, or ``batch`` micro-batched) with idle TTLs.
* ``/v1/healthz``              -- liveness incl. registry/job/session counts.
* ``/v1/metrics``              -- telemetry snapshot (JSON, or Prometheus
  text exposition via ``?format=prometheus``); stays scrape-able during
  drain so operators can watch a replica go down.

Every request gets (or propagates) an ``X-Request-Id`` echoed on the
response; sending an ``X-Timing: 1`` request header opts into a per-stage
span breakdown on the ``X-Timing`` response header.  All requests are
recorded into the runtime's :class:`~repro.serving.telemetry.MetricsRegistry`
(counts by route/method/status, error counts by code, latency histograms).

Every handler decodes its body into a typed request model
(:mod:`repro.serving.models`), calls a manager, and encodes a typed
response -- the router below owns all HTTP mechanics (body limits, 405 with
``Allow``, the uniform ``{"error": {code, message, detail}}`` envelope).
No dependency beyond the Python standard library is introduced on either
side; the CI smoke test drives the service with ``urllib``.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.quantum.compiler import CircuitCompiler
from repro.serving.artifact import ModelArtifact
from repro.serving.jobs import JobManager
from repro.serving.models import (
    ApiError,
    HealthResponse,
    JobListResponse,
    JobResultResponse,
    JobSubmitRequest,
    ModelListResponse,
    ModelLoadRequest,
    ScoreRequest,
    ScoreResponse,
    SessionCreateRequest,
    SessionListResponse,
)
from repro.serving.registry import ModelRegistry, RegisteredModel
from repro.serving.scorer import OnlineScorer, ScoreResult
from repro.serving.sessions import SessionManager
from repro.serving.telemetry import (
    MetricsRegistry,
    clean_request_id,
    default_registry,
    format_timing_header,
)

__all__ = ["ServerRuntime", "QuorumHTTPServer", "build_server", "run_server"]

#: Largest accepted request body; payloads are sample matrices, so a
#: megabyte-scale bound guards the JSON parser without limiting real use.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: How long one synchronous score request may wait on its future before the
#: server gives up (the scorer executes batches promptly; this only bounds
#: pathological stalls so a client never hangs forever).
SCORE_TIMEOUT_S = 300.0

#: API version segment every current route lives under.
API_VERSION = "v1"

#: Seconds a graceful shutdown waits for in-flight requests before giving up
#: (they would otherwise be severed when the process exits).  Generous: a
#: request can legitimately sit in the scorer queue behind a large batch.
DRAIN_TIMEOUT_S = 30.0

#: What drain responses tell clients via ``Retry-After``: by then either the
#: supervisor has removed this replica from rotation or a restart is up.
RETRY_AFTER_S = 1

#: Upper bound on the debug delay hook, so a typo cannot wedge a fleet.
MAX_DEBUG_DELAY_S = 60.0


class ServerRuntime:
    """The server's non-HTTP state: registry + job/session managers.

    Owns lifecycle (``drain`` -> reject new work with ``shutting_down``;
    ``close`` -> tear every manager down) so the HTTP layer stays a router.
    """

    def __init__(self, registry: ModelRegistry,
                 job_workers: int = 2, job_ttl_s: float = 900.0,
                 session_ttl_s: float = 600.0,
                 debug_hooks: bool = False,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry
        self.metrics = metrics if metrics is not None else default_registry()
        self.jobs = JobManager(registry, workers=job_workers, ttl_s=job_ttl_s,
                               metrics=self.metrics)
        self.sessions = SessionManager(registry, default_ttl_s=session_ttl_s)
        self.debug_hooks = bool(debug_hooks)
        self._draining = threading.Event()
        self._idle = threading.Condition()
        self._inflight = 0
        self._delay_s = 0.0
        # HTTP-layer instruments (created once; handlers record per request).
        self.m_requests = self.metrics.counter(
            "http_requests_total", "HTTP requests by route, method, status")
        self.m_errors = self.metrics.counter(
            "http_errors_total", "HTTP error responses by API error code")
        self.h_request = self.metrics.histogram(
            "http_request_seconds", "End-to-end request latency per route")
        self.h_serialization = self.metrics.histogram(
            "http_serialization_seconds", "Response JSON encoding time")
        self.g_inflight = self.metrics.gauge(
            "http_inflight_count", "Requests currently being handled")
        self.g_jobs_live = self.metrics.gauge(
            "jobs_live_count", "Jobs currently tracked, by status")
        self.g_sessions_live = self.metrics.gauge(
            "sessions_live_count", "Open scoring sessions")

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> None:
        """Stop accepting requests (everything answers 503 shutting_down)."""
        self._draining.set()

    # ------------------------------------------------------- in-flight tracking
    # The graceful-drain contract ("zero dropped in-flight requests on
    # scale-in") needs the server to know when the last accepted request has
    # been fully answered: drain() flips new arrivals to 503, wait_idle()
    # holds the teardown until the counter returns to zero.
    def request_started(self) -> None:
        with self._idle:
            self._inflight += 1

    def request_finished(self) -> None:
        with self._idle:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    @property
    def inflight(self) -> int:
        with self._idle:
            return self._inflight

    def wait_idle(self, timeout_s: Optional[float] = None) -> bool:
        """Block until no request is in flight; False on timeout."""
        with self._idle:
            return self._idle.wait_for(lambda: self._inflight <= 0,
                                       timeout=timeout_s)

    # ------------------------------------------------------------- debug hooks
    def set_delay(self, seconds: float) -> float:
        """Per-request artificial delay (fault injection; needs debug_hooks)."""
        seconds = float(seconds)
        if not (0.0 <= seconds <= MAX_DEBUG_DELAY_S):
            raise ApiError(
                "bad_request",
                f"delay must be within [0, {MAX_DEBUG_DELAY_S:.0f}] seconds")
        self._delay_s = seconds
        return seconds

    @property
    def delay_s(self) -> float:
        return self._delay_s

    def close(self) -> None:
        self.drain()
        self.jobs.close()
        self.sessions.close()
        self.registry.close()

    def default_scorer(self) -> OnlineScorer:
        return self.registry.get().scorer


class QuorumHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning the runtime it serves."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], runtime: ServerRuntime,
                 quiet: bool = True) -> None:
        self.runtime = runtime
        self.quiet = quiet
        super().__init__(address, _Handler)

    @property
    def scorer(self) -> OnlineScorer:
        """The default model's scorer (pre-/v1 compatibility accessor)."""
        return self.runtime.default_scorer()

    def handle_error(self, request, client_address) -> None:
        """Clients that hang up are routine, not tracebacks.

        A peer may reset the connection while we are still *reading* its
        request (the write side is already guarded in ``_Handler._dispatch``);
        the stock implementation prints a full traceback for that, which under
        concurrent load buries real errors in noise.
        """
        error = sys.exc_info()[1]
        if isinstance(error, (BrokenPipeError, ConnectionResetError)):
            if not self.quiet:
                sys.stderr.write(
                    f"client {client_address} disconnected: "
                    f"{type(error).__name__}\n")
            return
        super().handle_error(request, client_address)

    def shutdown(self) -> None:  # pragma: no cover - exercised via clients
        """Graceful stop: drain, finish in-flight requests, then tear down."""
        self.runtime.drain()
        self.runtime.wait_idle(timeout_s=DRAIN_TIMEOUT_S)
        super().shutdown()
        self.runtime.close()


# Route table: (compiled path pattern, {method: handler attribute}, route
# template).  A path that matches a pattern but not a listed method is a 405
# with an ``Allow`` header; a path matching nothing is a 404 ``not_found``.
# The template is the stable, low-cardinality ``route`` label metrics carry
# (``/v1/jobs/{id}``, never the raw path with its unbounded ids).
_ROUTES = (
    (re.compile(r"^/v1/healthz$"),
     {"GET": "_v1_health"}, "/v1/healthz"),
    (re.compile(r"^/v1/metrics$"),
     {"GET": "_v1_metrics"}, "/v1/metrics"),
    (re.compile(r"^/v1/models$"),
     {"GET": "_v1_models_list", "POST": "_v1_models_load"},
     "/v1/models"),
    (re.compile(r"^/v1/models/([^/]+)$"),
     {"GET": "_v1_model_get", "DELETE": "_v1_model_unload"},
     "/v1/models/{id}"),
    (re.compile(r"^/v1/models/([^/]+)/score$"),
     {"POST": "_v1_model_score"}, "/v1/models/{id}/score"),
    (re.compile(r"^/v1/jobs$"),
     {"GET": "_v1_jobs_list", "POST": "_v1_jobs_submit"}, "/v1/jobs"),
    (re.compile(r"^/v1/jobs/([^/]+)$"),
     {"GET": "_v1_job_get", "DELETE": "_v1_job_cancel"},
     "/v1/jobs/{id}"),
    (re.compile(r"^/v1/jobs/([^/]+)/result$"),
     {"GET": "_v1_job_result"}, "/v1/jobs/{id}/result"),
    (re.compile(r"^/v1/sessions$"),
     {"GET": "_v1_sessions_list", "POST": "_v1_sessions_create"},
     "/v1/sessions"),
    (re.compile(r"^/v1/sessions/([^/]+)$"),
     {"GET": "_v1_session_get", "DELETE": "_v1_session_close"},
     "/v1/sessions/{id}"),
    (re.compile(r"^/v1/sessions/([^/]+)/score$"),
     {"POST": "_v1_session_score"}, "/v1/sessions/{id}/score"),
    # Fault-injection hook, only live when the runtime was built with
    # debug_hooks=True (404 otherwise, indistinguishable from absent).
    (re.compile(r"^/v1/_debug/delay$"),
     {"GET": "_v1_debug_delay_get", "POST": "_v1_debug_delay_set"},
     "/v1/_debug/delay"),
)


class _PlainText:
    """Marker payload: ``_send_json`` sends it verbatim as text/plain
    (the Prometheus exposition body must not be JSON-encoded)."""

    __slots__ = ("body",)

    def __init__(self, body: str) -> None:
        self.body = body


class _Handler(BaseHTTPRequestHandler):
    server: QuorumHTTPServer

    #: Persistent connections: every response carries a Content-Length, so
    #: keep-alive framing is always unambiguous.  HTTP/1.0 (the inherited
    #: default) forced a fresh TCP handshake per request, which dominates
    #: small-request latency under closed-loop load.
    protocol_version = "HTTP/1.1"

    #: TCP_NODELAY.  Responses are written as two small segments (headers,
    #: then body); with Nagle on, the body segment waits for the ACK of the
    #: headers, and on a keep-alive connection the client's delayed ACK turns
    #: that into a ~40 ms stall per request (HTTP/1.0 masked it because the
    #: immediate FIN flushed the send buffer).  The loadtest harness flushed
    #: this out: without it, keep-alive measured *slower* than reconnecting.
    disable_nagle_algorithm = True

    #: Set per request by :meth:`_dispatch`; HEAD sends headers only.
    _head_only = False
    #: Whether the request body was fully consumed (keep-alive hygiene).
    _body_consumed = True
    #: Tracing state, (re)set per request by :meth:`_dispatch`.  The class
    #: defaults keep ``_send_json`` safe if it is ever reached another way.
    _t_start = 0.0
    _method = "-"
    _route_label = "unmatched"
    _request_id: Optional[str] = None
    _want_timing = False
    _stage_timings: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------ plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def log_request(self, code="-", size="-") -> None:
        """Superseded by the structured access line in ``_send_json``."""

    def _send_json(self, status: int, payload: Union[dict, _PlainText],
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
        serialization_start = time.perf_counter()
        if isinstance(payload, _PlainText):
            body = payload.body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        serialization_s = time.perf_counter() - serialization_start
        duration_s = time.perf_counter() - self._t_start
        runtime = self.server.runtime
        runtime.m_requests.inc(route=self._route_label, method=self._method,
                               status=str(status))
        runtime.h_request.observe(duration_s)
        runtime.h_serialization.observe(serialization_s)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id is not None:
            self.send_header("X-Request-Id", self._request_id)
        if self._want_timing:
            timings = dict(self._stage_timings or {})
            timings["serialization"] = serialization_s
            timings["total"] = duration_s
            self.send_header("X-Timing", format_timing_header(timings))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self._body_left_unread():
            # Answering without draining the declared body (413, unknown
            # path, ...) forces a close; advertise it so keep-alive clients
            # don't queue a second request on a doomed connection.
            self.send_header("Connection", "close")
        self.end_headers()
        if not self._head_only:
            self.wfile.write(body)
        if not self.server.quiet:
            sys.stderr.write(
                f"request_id={self._request_id or '-'} "
                f"method={self._method} route={self._route_label} "
                f"status={status} duration_ms={duration_s * 1e3:.3f}\n")

    def _send_error_envelope(self, error: ApiError,
                             extra_headers: Optional[Dict[str, str]] = None
                             ) -> None:
        self.server.runtime.m_errors.inc(code=error.code)
        self._send_json(error.http_status, error.envelope().to_json(),
                        extra_headers)

    def _read_json_body(self):
        """Decode the request body, enforcing size and parse limits."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ApiError("bad_request", "invalid Content-Length header")
        if length <= 0:
            raise ApiError("bad_request", "this route requires a JSON body")
        if length > MAX_BODY_BYTES:
            raise ApiError("payload_too_large",
                           f"request body exceeds {MAX_BODY_BYTES} bytes",
                           detail={"content_length": length})
        # A socket read may return fewer bytes than asked for (slow clients,
        # small TCP windows); loop until the declared length or EOF instead of
        # truncating the payload into a spurious JSON parse error.
        raw = bytearray()
        while len(raw) < length:
            chunk = self.rfile.read(length - len(raw))
            if not chunk:
                raise ApiError(
                    "bad_request",
                    f"request body truncated: Content-Length declared "
                    f"{length} bytes but the connection delivered only "
                    f"{len(raw)}")
            raw.extend(chunk)
        self._body_consumed = True
        try:
            return json.loads(bytes(raw).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ApiError("bad_request", f"invalid JSON body: {error}")

    def _body_left_unread(self) -> bool:
        """True when the request declared a body this handler never read."""
        if self._body_consumed:
            return False
        try:
            return int(self.headers.get("Content-Length", "0") or "0") > 0
        except ValueError:
            return True

    # ------------------------------------------------------------------- router
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("HEAD")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        path = urlsplit(self.path).path
        # HEAD is GET with the response body suppressed -- same routing, same
        # status and headers (load balancers and the replica proxy probe
        # liveness with HEAD /v1/healthz).
        self._head_only = method == "HEAD"
        lookup = "GET" if method == "HEAD" else method
        self._body_consumed = False
        self._t_start = time.perf_counter()
        self._method = method
        self._route_label = "unmatched"
        self._request_id = clean_request_id(self.headers.get("X-Request-Id"))
        self._want_timing = self.headers.get("X-Timing") is not None
        self._stage_timings = None
        extra_headers: Dict[str, str] = {}
        runtime = self.server.runtime
        runtime.request_started()
        try:
            try:
                if runtime.draining and path != "/v1/metrics":
                    # Not executed -- provably safe for the proxy to replay
                    # against another replica (any method, even POST).
                    # /v1/metrics stays scrape-able so operators can watch a
                    # replica drain.
                    extra_headers["Retry-After"] = str(RETRY_AFTER_S)
                    raise ApiError("shutting_down",
                                   "the server is shutting down; retry against "
                                   "another replica")
                delay_s = runtime.delay_s
                if delay_s > 0.0 and not path.startswith("/v1/_debug/"):
                    # Slow-response fault injection; the hook itself stays
                    # fast so the injector can always clear the delay.
                    time.sleep(delay_s)
                for pattern, methods, template in _ROUTES:
                    match = pattern.match(path)
                    if match is None:
                        continue
                    self._route_label = template
                    handler = methods.get(lookup)
                    if handler is None:
                        extra_headers["Allow"] = ", ".join(sorted(methods))
                        raise ApiError(
                            "method_not_allowed",
                            f"{method} is not supported on {path}; allowed: "
                            f"{sorted(methods)}")
                    status, payload = getattr(self, handler)(*match.groups())
                    self._send_json(status, payload, extra_headers)
                    return
                raise ApiError("not_found",
                               f"unknown path {path!r}; the API lives under "
                               f"/{API_VERSION}/ (see docs/API.md)")
            except ApiError as error:
                self._send_error_envelope(error, extra_headers)
            except Exception as error:  # pragma: no cover - defensive backstop
                self._send_error_envelope(ApiError(
                    "internal", f"unhandled server error: "
                    f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, ConnectionResetError) as error:
            # The client went away mid-request (timeout, kill, reset).  There
            # is nobody left to answer: log one line and NEVER write a second
            # response at the dead socket -- the generic backstop above would
            # otherwise traceback trying exactly that.
            self.close_connection = True
            if not self.server.quiet:
                sys.stderr.write(
                    f"client {self.client_address} disconnected during "
                    f"{method} {path}: {type(error).__name__}\n")
        finally:
            runtime.request_finished()
            if self._body_left_unread():
                # The handler answered without draining the declared body
                # (413, unknown path, ...); the unread bytes would be parsed
                # as the next request on a keep-alive connection.
                self.close_connection = True

    # ----------------------------------------------------------------- helpers
    @property
    def runtime(self) -> ServerRuntime:
        return self.server.runtime

    def _score_on(self, entry: RegisteredModel,
                  request: ScoreRequest) -> ScoreResult:
        """Micro-batched synchronous scoring with uniform error mapping."""
        try:
            future = entry.scorer.submit(request.samples, mode=request.mode)
        except (TypeError, ValueError) as error:
            raise ApiError("bad_request", str(error)) from None
        try:
            result = future.result(timeout=SCORE_TIMEOUT_S)
            self._stage_timings = dict(result.timings or {})
            return result
        except FutureTimeoutError:
            # Cancel so the worker can skip the orphaned request instead of
            # burning a batch slot on a response nobody will read.
            future.cancel()
            raise ApiError("timeout",
                           f"scoring timed out after {SCORE_TIMEOUT_S:.0f}s")
        except (TypeError, ValueError) as error:
            raise ApiError("bad_request", str(error)) from None

    @staticmethod
    def _score_response(entry: RegisteredModel,
                        result: ScoreResult) -> ScoreResponse:
        return ScoreResponse(
            scores=result.scores.tolist(),
            num_runs=result.num_runs,
            num_samples=result.num_samples,
            mode=result.mode,
            model_id=entry.model_id,
            schema_version=entry.artifact.schema_version,
        )

    # --------------------------------------------------------------- /v1 routes
    def _v1_metrics(self):
        runtime = self.runtime
        # Point-in-time gauges are sampled at scrape time (cheaper than
        # keeping them current on every state change).
        runtime.g_inflight.set(runtime.inflight)
        for status_name, live in runtime.jobs.counts().items():
            runtime.g_jobs_live.set(live, status=status_name)
        runtime.g_sessions_live.set(len(runtime.sessions))
        query = urlsplit(self.path).query
        accept = self.headers.get("Accept", "")
        if "format=prometheus" in query or "text/plain" in accept:
            return 200, _PlainText(runtime.metrics.render_prometheus())
        return 200, runtime.metrics.snapshot()

    def _v1_health(self):
        runtime = self.runtime
        response = HealthResponse(
            status="ok",
            api_version=API_VERSION,
            models=runtime.registry.ids(),
            default_model=runtime.registry.default_id(),
            jobs=runtime.jobs.counts(),
            sessions=len(runtime.sessions),
        )
        return 200, response.to_json()

    def _v1_models_list(self):
        entries = self.runtime.registry.list()
        response = ModelListResponse(
            models=[entry.info(is_default=(index == 0))
                    for index, entry in enumerate(entries)],
            default_model=self.runtime.registry.default_id(),
        )
        return 200, response.to_json()

    def _v1_models_load(self):
        request = ModelLoadRequest.from_json(self._read_json_body())
        entry = self.runtime.registry.load(request.path,
                                           model_id=request.model_id)
        is_default = self.runtime.registry.default_id() == entry.model_id
        return 201, entry.info(is_default=is_default).to_json()

    def _v1_model_get(self, model_id: str):
        entry = self.runtime.registry.get(model_id)
        is_default = self.runtime.registry.default_id() == entry.model_id
        diagnostics = entry.scorer.diagnostics()
        payload = entry.info(is_default=is_default).to_json()
        payload["serving"] = diagnostics["serving"]
        payload["compiler_cache"] = diagnostics["compiler_cache"]
        return 200, payload

    def _v1_model_unload(self, model_id: str):
        entry = self.runtime.registry.unload(model_id)
        return 200, entry.info().to_json()

    def _v1_model_score(self, model_id: str):
        request = ScoreRequest.from_json(self._read_json_body())
        entry = self.runtime.registry.get(model_id)
        result = self._score_on(entry, request)
        return 200, self._score_response(entry, result).to_json()

    def _v1_jobs_list(self):
        response = JobListResponse(
            jobs=[job.info() for job in self.runtime.jobs.list()])
        return 200, response.to_json()

    def _v1_jobs_submit(self):
        request = JobSubmitRequest.from_json(self._read_json_body())
        job = self.runtime.jobs.submit(request)
        return 202, job.info().to_json()

    def _v1_job_get(self, job_id: str):
        return 200, self.runtime.jobs.get(job_id).info().to_json()

    def _v1_job_result(self, job_id: str):
        result = self.runtime.jobs.result(job_id)
        job = self.runtime.jobs.get(job_id)
        response = JobResultResponse(job_id=job.job_id, kind=job.kind,
                                     result=result)
        return 200, response.to_json()

    def _v1_job_cancel(self, job_id: str):
        return 200, self.runtime.jobs.cancel(job_id).info().to_json()

    def _v1_sessions_list(self):
        response = SessionListResponse(
            sessions=[session.info()
                      for session in self.runtime.sessions.list()])
        return 200, response.to_json()

    def _v1_sessions_create(self):
        request = SessionCreateRequest.from_json(self._read_json_body())
        session = self.runtime.sessions.create(request)
        return 201, session.info().to_json()

    def _v1_session_get(self, session_id: str):
        return 200, self.runtime.sessions.get(session_id).info().to_json()

    def _v1_session_score(self, session_id: str):
        request = ScoreRequest.from_json(self._read_json_body())
        session = self.runtime.sessions.get(session_id)
        entry = self.runtime.registry.get(session.model_id)
        result = self.runtime.sessions.score(session_id, request,
                                             timeout_s=SCORE_TIMEOUT_S)
        self._stage_timings = dict(result.timings or {})
        return 200, self._score_response(entry, result).to_json()

    def _v1_session_close(self, session_id: str):
        session = self.runtime.sessions.close_session(session_id)
        return 200, session.info().to_json()

    # ------------------------------------------------------------- debug hooks
    def _require_debug_hooks(self) -> None:
        if not self.runtime.debug_hooks:
            raise ApiError("not_found",
                           "debug hooks are disabled on this server "
                           "(start it with --debug-hooks to enable)")

    def _v1_debug_delay_get(self):
        self._require_debug_hooks()
        return 200, {"delay_s": self.runtime.delay_s}

    def _v1_debug_delay_set(self):
        self._require_debug_hooks()
        body = self._read_json_body()
        if not isinstance(body, dict) or "delay_s" not in body:
            raise ApiError("bad_request",
                           'the body must be {"delay_s": <seconds>}')
        try:
            delay_s = self.runtime.set_delay(body["delay_s"])
        except (TypeError, ValueError):
            raise ApiError("bad_request",
                           "delay_s must be a number of seconds") from None
        return 200, {"delay_s": delay_s}


def build_server(model: Union[str, Path, ModelArtifact, OnlineScorer, None]
                 = None,
                 host: str = "127.0.0.1", port: int = 0,
                 quiet: bool = True,
                 scorer_kwargs: Optional[dict] = None,
                 *,
                 models: Optional[Dict[str, Union[str, Path]]] = None,
                 job_workers: int = 2,
                 job_ttl_s: float = 900.0,
                 session_ttl_s: float = 600.0,
                 compiler: Optional[CircuitCompiler] = None,
                 debug_hooks: bool = False,
                 metrics: Optional[MetricsRegistry] = None
                 ) -> QuorumHTTPServer:
    """Build (but do not start) a runtime server.

    ``model`` is the default model (path, artifact, or prebuilt scorer --
    the original single-model signature); ``models`` adds further artifacts
    as an ``{model_id: path}`` mapping.  At least one model must be given.
    All scorers share one compiler cache (``compiler`` overrides the
    process-wide instance, e.g. for cache-counter tests).

    ``metrics`` is the telemetry registry every layer (HTTP handlers, the
    scorers the registry builds, the job manager) records into; omitted, it
    is the process-global :func:`~repro.serving.telemetry.default_registry`.
    Tests pass a private :class:`MetricsRegistry` for isolated counters.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address`` (the CI smoke test and the examples do).
    """
    if metrics is None:
        metrics = default_registry()
    user_scorer_kwargs = scorer_kwargs
    scorer_kwargs = dict(scorer_kwargs or {})
    scorer_kwargs.setdefault("metrics", metrics)
    registry = ModelRegistry(compiler=compiler, scorer_kwargs=scorer_kwargs)
    if model is not None:
        if isinstance(model, OnlineScorer):
            if user_scorer_kwargs:
                raise ValueError(
                    "scorer_kwargs cannot be applied to a prebuilt "
                    "OnlineScorer; pass a model path or artifact instead")
            registry.adopt_scorer(model)
        elif isinstance(model, ModelArtifact):
            registry.register(model)
        else:
            registry.load(model)
    for model_id, path in (models or {}).items():
        registry.load(path, model_id=model_id)
    if len(registry) == 0:
        raise ValueError("build_server needs at least one model "
                         "(model=... or models={...})")
    runtime = ServerRuntime(registry, job_workers=job_workers,
                            job_ttl_s=job_ttl_s, session_ttl_s=session_ttl_s,
                            debug_hooks=debug_hooks, metrics=metrics)
    return QuorumHTTPServer((host, port), runtime, quiet=quiet)


def run_server(model_path: Union[str, Path, None], host: str = "127.0.0.1",
               port: int = 0, quiet: bool = True,
               scorer_kwargs: Optional[dict] = None,
               models: Optional[Dict[str, Union[str, Path]]] = None,
               job_workers: int = 2,
               job_ttl_s: float = 900.0,
               session_ttl_s: float = 600.0,
               debug_hooks: bool = False) -> int:
    """Load model(s) and serve until interrupted (the CLI entry point).

    Prints one ``serving ... on http://host:port`` line (flushed) before
    blocking, so wrappers that spawn the CLI can scrape the ephemeral port.

    On interrupt (SIGTERM/SIGINT) the teardown is a graceful drain: new
    requests answer ``503 shutting_down`` (with ``Retry-After``) while
    in-flight ones run to completion before the process exits -- this is the
    server half of the supervisor's zero-dropped-requests scale-in contract.
    """
    server = build_server(model_path, host=host, port=port, quiet=quiet,
                          scorer_kwargs=scorer_kwargs, models=models,
                          job_workers=job_workers, job_ttl_s=job_ttl_s,
                          session_ttl_s=session_ttl_s,
                          debug_hooks=debug_hooks)
    bound_host, bound_port = server.server_address[:2]
    served = model_path if model_path is not None \
        else ", ".join(server.runtime.registry.ids())
    try:
        # The print sits INSIDE the try: a supervisor that signals right
        # after scraping this line must not land its interrupt in the
        # unprotected gap between printing and serve_forever.
        print(f"serving {served} on http://{bound_host}:{bound_port}",
              flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.runtime.drain()
        server.runtime.wait_idle(timeout_s=DRAIN_TIMEOUT_S)
        server.server_close()
        server.runtime.close()
    return 0
