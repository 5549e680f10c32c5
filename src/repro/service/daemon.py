"""The persistent mapping daemon behind ``repro serve``.

Architecture: a :class:`MappingService` owns the warm state — the
process-wide annotated libraries (:func:`repro.api.shared_library`),
a :class:`~repro.obs.metrics.MetricsRegistry` and a tracer (a real one
only when ``trace_path`` is set).  The HTTP layer (:class:`_Handler` on
a ``ThreadingHTTPServer``, one thread per connection) is a thin shell:
it decodes the body, hands ``(method, path, payload)`` to
:meth:`MappingService.handle`, and writes the JSON verdict back.  An
admitted request executes on the handler thread that read it, once one
of ``workers`` execution slots is free.  Two POST endpoints carry work
(:data:`ENDPOINT_KINDS`: ``/v1/map`` and ``/v1/certify``); ``GET
/healthz`` and ``GET /metrics`` report on it.

Operational contracts:

* **Admission control** — at most ``queue_limit`` requests are admitted
  (waiting + executing); the next one is answered ``429`` with a
  ``Retry-After`` header rather than piling up.  At most ``workers`` of
  them execute at once; the others wait for a slot.  A width or queue
  limit below 1 is refused at construction.
* **Budgets** — requests without an explicit ``deadline_seconds``
  inherit the service default; overruns degrade inside the facade to
  the trivial depth-1 cover (``fallback="trivial-cover"``), never to an
  error.
* **Persistent connections** — one HTTP/1.1 connection carries any
  number of requests.  The daemon closes it only where the stream
  cannot be trusted (a ``400``/``413`` answered before the body was
  read), where the client sends ``Connection: close``, or once it has
  sat idle for :data:`SOCKET_TIMEOUT_SECONDS`.
* **Bounded input** — a request body must declare a non-negative
  integer ``Content-Length`` (else ``400``) of at most
  :data:`MAX_BODY_BYTES` (else ``413``, body unread), and a client that
  stalls for :data:`SOCKET_TIMEOUT_SECONDS` — a body shorter than it
  declared, say — loses its connection instead of holding a handler
  thread.
* **Graceful drain** — SIGTERM/SIGINT flips the service to draining
  (new requests get ``503``), waits for in-flight requests to finish,
  stops the listener, ends every idle connection (so no handler waits
  out its socket timeout) and writes the trace/metrics artifacts.
* **Telemetry** — every request runs under a ``service.request`` span
  and bumps ``service.requests[.{endpoint}]`` counters plus a
  ``service.request_seconds`` histogram; ``service.connections``
  counts accepted connections, and the ``service.parse_seconds``,
  ``service.queue_seconds`` (the wait for a slot),
  ``service.execute_seconds`` and ``service.serialize_seconds``
  histograms split each executed request's handling time.  Mapping
  work records into the service registry, so warm-vs-cold annotation
  behaviour is visible in ``/metrics`` (``library.annotate.*``).
"""

from __future__ import annotations

import dataclasses
import json
import signal
import socket
import threading
import time
import urllib.parse
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union

from ..api.facade import (
    execute_certify,
    execute_map,
    loaded_libraries,
    shared_library,
)
from ..api.schema import (
    ApiError,
    CertifyRequest,
    MapRequest,
    parse_request,
)
from ..library import anncache
from ..obs.export import (
    metrics_to_dict,
    prometheus_text,
    write_metrics,
    write_trace,
)
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, TRACE_HEADER, SpanContext, Tracer
from ..testing import faults
from ..testing.faults import FaultPlan

#: Seconds a 429'd client is told to back off before retrying.
RETRY_AFTER_SECONDS = 1

#: Largest request body the daemon reads; a longer declared length is
#: answered 413 without reading the body.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a handler blocks on one socket read or write before it drops
#: the connection; an idle kept-alive connection is dropped after it too.
SOCKET_TIMEOUT_SECONDS = 30.0

#: Endpoint path -> the request kind it accepts.
ENDPOINT_KINDS = {
    "/v1/map": MapRequest,
    "/v1/certify": CertifyRequest,
}


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs for one ``repro serve`` instance."""

    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port (tests); the bound port is
    #: reported by :attr:`MappingService.port` and the startup banner.
    port: int = 8347
    #: Requests executing at once; the other admitted ones wait.
    workers: int = 2
    #: Max requests admitted at once (queued + running); beyond it, 429.
    queue_limit: int = 8
    #: Default per-request budget; ``None`` means unbounded.
    deadline_seconds: Optional[float] = None
    cache_dir: anncache.CacheDir = None
    #: Libraries to load, hazard-annotate, and index at boot so even the
    #: first request skips the once-per-library phases.
    preload: tuple = ()
    #: Deterministic fault plan (tests and drills only).
    fault_plan: Optional[FaultPlan] = None
    #: Artifacts written at shutdown (after drain), if set.
    trace_path: Optional[Union[str, Path]] = None
    metrics_path: Optional[Union[str, Path]] = None


class MappingService:
    """Warm mapping state plus the request dispatcher (HTTP-agnostic)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        for name in ("workers", "queue_limit"):
            value = getattr(self.config, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.metrics = MetricsRegistry()
        # Untraced requests leave a root span here only when a trace
        # file will be written; otherwise nothing would ever read them.
        self.tracer = (
            Tracer() if self.config.trace_path is not None else NULL_TRACER
        )
        self._admission = threading.BoundedSemaphore(self.config.queue_limit)
        self._slots = threading.BoundedSemaphore(self.config.workers)
        self._inflight = 0
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._draining = False
        #: Open client connections; ``None`` once shutdown has ended them.
        self._connections: Optional[set[socket.socket]] = set()
        self._server: Optional[ThreadingHTTPServer] = None
        self.started_at = time.time()

    # -- warm state -------------------------------------------------

    def preload(self) -> None:
        """Load and annotate the configured libraries at boot."""
        for name in self.config.preload:
            with self.tracer.span("service.preload", library=name):
                library = shared_library(name)
                if not library.annotated:
                    library.annotate_hazards(
                        cache_dir=self.config.cache_dir,
                        tracer=self.tracer,
                        metrics=self.metrics,
                    )

    # -- request dispatch -------------------------------------------

    @property
    def draining(self) -> bool:
        with self._state_lock:
            return self._draining

    @property
    def inflight(self) -> int:
        with self._state_lock:
            return self._inflight

    def handle(
        self,
        method: str,
        path: str,
        payload: Optional[dict],
        trace_header: Optional[str] = None,
        phases: Optional[dict] = None,
    ):
        """Dispatch one request; returns ``(status, body, headers)``.

        ``trace_header`` is the raw ``X-Repro-Trace`` value, if the
        client sent one; a traced request runs under a per-request
        tracer that adopts the caller's ``trace_id`` and the full span
        tree is returned in the response body (``body["trace"]``).

        ``phases``, when given, receives the ``perf_counter`` stamps of
        a request that executed: ``admitted`` (parsed and admitted),
        ``executing`` (an execution slot acquired) and ``executed`` (its
        payload built).
        """
        parts = urllib.parse.urlsplit(path)
        endpoint = parts.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(parts.query)
        name = endpoint.rsplit("/", 1)[-1] or "root"
        started = time.perf_counter()
        # One per-endpoint latency sample for *every* request, including
        # malformed and 404 ones (finally).
        try:
            try:
                context = SpanContext.parse(trace_header)
            except ValueError as exc:
                self.metrics.counter("service.errors").inc()
                return 400, {
                    "error": f"bad {TRACE_HEADER} header: {exc}"
                }, {}
            if method == "GET" and endpoint == "/healthz":
                return 200, self._health(), {}
            if method == "GET" and endpoint == "/metrics":
                return self._metrics_endpoint(query)
            kind = ENDPOINT_KINDS.get(endpoint)
            if kind is None or method != "POST":
                return 404, {"error": f"no such endpoint: {method} {path}"}, {}
            return self._dispatch(endpoint, kind, payload, context, phases)
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            # Any endpoint's internal fault is a 500; an escaping
            # exception would close the connection without a reply.
            self.metrics.counter("service.errors").inc()
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        finally:
            self.metrics.histogram(
                f"service.request.latency.{name}"
            ).observe(time.perf_counter() - started)

    def _metrics_endpoint(self, query: dict):
        fmt = (query.get("format") or ["json"])[0]
        if fmt == "prometheus":
            return 200, prometheus_text(self.metrics), {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
            }
        if fmt != "json":
            return 400, {"error": f"unknown metrics format {fmt!r}"}, {}
        return 200, metrics_to_dict(self.metrics), {}

    def _health(self) -> dict:
        with self._state_lock:
            status = "draining" if self._draining else "ok"
            inflight = self._inflight
        return {
            "status": status,
            "inflight": inflight,
            "queue_depth": inflight,
            "queue_limit": self.config.queue_limit,
            "queue_available": max(self.config.queue_limit - inflight, 0),
            "workers": self.config.workers,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "libraries": loaded_libraries(),
            "result_cache": self._result_cache_health(),
        }

    def _result_cache_health(self) -> dict:
        """Result-cache occupancy for load balancers and smoke tests."""
        from ..cache.resultcache import MEMORY, result_entries

        # An entry may vanish between listing and stat (a concurrent
        # store's eviction, ``repro cache --clear``): count the rest.
        sizes = []
        for path in result_entries(self.config.cache_dir):
            try:
                sizes.append(path.stat().st_size)
            except OSError:
                pass
        return {
            "memory_entries": len(MEMORY),
            "disk_entries": len(sizes),
            "disk_bytes": sum(sizes),
        }

    def _dispatch(
        self,
        endpoint: str,
        kind,
        payload: Optional[dict],
        context: Optional[SpanContext] = None,
        phases: Optional[dict] = None,
    ):
        name = endpoint.rsplit("/", 1)[-1]
        self.metrics.counter("service.requests").inc()
        self.metrics.counter(f"service.requests.{name}").inc()
        if self.draining:
            self.metrics.counter("service.rejected.503").inc()
            return 503, {"error": "service is draining"}, {
                "Retry-After": str(RETRY_AFTER_SECONDS)
            }
        if payload is None:
            self.metrics.counter("service.errors").inc()
            return 400, {"error": "request body must be a JSON object"}, {}
        try:
            request = parse_request(payload)
            if not isinstance(request, kind):
                raise ApiError(
                    f"{endpoint} expects a {kind.kind!r} request, "
                    f"got {payload.get('kind')!r}"
                )
        except ApiError as exc:
            self.metrics.counter("service.errors").inc()
            return 400, {"error": str(exc)}, {}
        if not self._admission.acquire(blocking=False):
            self.metrics.counter("service.rejected.429").inc()
            return 429, {"error": "request queue is full"}, {
                "Retry-After": str(RETRY_AFTER_SECONDS)
            }
        with self._state_lock:
            self._inflight += 1
        started = time.perf_counter()
        # A traced request adopts the caller's trace_id on a tracer of
        # its own (the service tracer aggregates only untraced work, so
        # concurrent traced requests never interleave in one tree); the
        # mapping spans open under its service.request span.
        tracer = (
            Tracer(trace_id=context.trace_id)
            if context is not None
            else self.tracer
        )
        try:
            request_span = tracer.start_span(
                "service.request", endpoint=name,
                design=getattr(request, "design", None),
                library=getattr(request, "library", None),
            )
            if context is not None:
                request_span.set_attr(remote_parent=context.span_id)
            status = 500
            try:
                body = self._execute(
                    request, tracer if context is not None else None, phases
                )
                status = 200
            except ApiError:
                status = 400
                raise
            finally:
                request_span.set_attr(status=status)
                tracer.finish_span(request_span)
            if context is not None:
                # Last, after the response's own fields, as always served.
                body.pop("trace", None)
                body["trace"] = tracer.to_dict()
            if body.get("fallback"):
                self.metrics.counter("service.fallbacks").inc()
            return 200, body, {}
        except ApiError as exc:
            self.metrics.counter("service.errors").inc()
            return 400, {"error": str(exc)}, {}
        finally:
            self.metrics.histogram("service.request_seconds").observe(
                time.perf_counter() - started
            )
            self._admission.release()
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _execute(self, request, tracer, phases: Optional[dict]) -> dict:
        """Run one admitted request to its response payload on this
        thread, once an execution slot is free."""
        admitted = time.perf_counter()
        with self._slots:
            executing = time.perf_counter()
            faults.install_plan(
                self.config.fault_plan,
                job=getattr(request, "design", None) or "-",
                attempt=1,
            )
            try:
                if isinstance(request, MapRequest):
                    if (
                        request.deadline_seconds is None
                        and self.config.deadline_seconds is not None
                    ):
                        request = dataclasses.replace(
                            request,
                            deadline_seconds=self.config.deadline_seconds,
                        )
                    response = execute_map(
                        request, cache_dir=self.config.cache_dir,
                        metrics=self.metrics, tracer=tracer,
                    )
                else:
                    response = execute_certify(
                        request, cache_dir=self.config.cache_dir,
                        metrics=self.metrics, tracer=tracer,
                    )
                payload = response.to_payload()
            finally:
                faults.clear_plan()
        if phases is not None:
            phases.update(admitted=admitted, executing=executing,
                          executed=time.perf_counter())
        return payload

    # -- lifecycle --------------------------------------------------

    @property
    def url(self) -> str:
        assert self._server is not None, "service is not listening"
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def port(self) -> int:
        assert self._server is not None, "service is not listening"
        return self._server.server_address[1]

    def start(self) -> ThreadingHTTPServer:
        """Bind the listener (without entering ``serve_forever``)."""
        self.preload()
        handler = _make_handler(self)
        server = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        # Drain correctness: handler threads must be joinable so
        # server_close() blocks until in-flight responses are written.
        server.daemon_threads = False
        server.block_on_close = True
        self._server = server
        return server

    def drain(self) -> None:
        """Stop admitting work, wait for in-flight requests to finish."""
        with self._idle:
            self._draining = True
            while self._inflight:
                self._idle.wait()

    def _connection_opened(self, connection: socket.socket) -> None:
        self.metrics.counter("service.connections").inc()
        with self._state_lock:
            if self._connections is not None:
                self._connections.add(connection)
                return
        # Accepted while the listener stopped, after the sweep below.
        _end_reading(connection)

    def _connection_closed(self, connection: socket.socket) -> None:
        with self._state_lock:
            if self._connections is not None:
                self._connections.discard(connection)

    def shutdown(self) -> None:
        """Drain, stop the listener, end the open connections and write
        the telemetry artifacts."""
        self.drain()
        if self._server is not None:
            self._server.shutdown()
        # No admitted request is in flight any more: a handler still
        # open waits for its connection's next request, and
        # ``server_close`` would join it only after the socket timeout.
        # Ending the read side hands it EOF at once; a reply still being
        # written goes out whole.
        with self._state_lock:
            connections, self._connections = self._connections or (), None
        for connection in connections:
            _end_reading(connection)
        if self.config.trace_path is not None:
            write_trace(self.config.trace_path, self.tracer, self.metrics)
        if self.config.metrics_path is not None:
            write_metrics(self.config.metrics_path, self.metrics)

    @contextmanager
    def running(self):
        """In-process serving context (tests and benchmarks)."""
        server = self.start()
        thread = threading.Thread(
            target=server.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        try:
            yield self
        finally:
            self.shutdown()
            server.server_close()
            thread.join(timeout=10)


def _end_reading(connection: socket.socket) -> None:
    """Shut a connection's read side, so its handler reads EOF."""
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:  # already closed by its handler or the client
        pass


def _make_handler(service: MappingService):
    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = SOCKET_TIMEOUT_SECONDS
        # A kept-alive reply goes out as two writes (head, body); with
        # Nagle's algorithm the second waits for the client's delayed
        # ACK of the first.
        disable_nagle_algorithm = True

        def setup(self) -> None:
            super().setup()
            service._connection_opened(self.connection)

        def finish(self) -> None:
            service._connection_closed(self.connection)
            super().finish()

        def parse_request(self) -> bool:
            # Called as soon as the request line has been read, so an
            # idle connection's wait is no part of the request's time.
            self.received = time.perf_counter()
            return super().parse_request()

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # the tracer is the access log

        def _reply(
            self, status: int, body, headers: dict, close: bool = False
        ) -> None:
            # A ``str`` body is preformatted text (Prometheus exposition);
            # anything else is a JSON document.
            if isinstance(body, str):
                data = body.encode("utf-8")
                content_type = headers.pop(
                    "Content-Type", "text/plain; charset=utf-8"
                )
            else:
                data = json.dumps(body).encode("utf-8")
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for key, value in headers.items():
                self.send_header(key, value)
            if close:
                # Also sets ``close_connection``.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
            status, body, headers = service.handle(
                "GET", self.path, None,
                trace_header=self.headers.get(TRACE_HEADER),
            )
            self._reply(status, body, headers)

        def _body_length(self) -> Optional[int]:
            """The declared body length, or ``None`` once it has been
            answered 400/413."""
            declared = self.headers.get("Content-Length")
            if declared is None:
                if "Transfer-Encoding" not in self.headers:
                    return 0
                status, error = 400, "a request body needs a Content-Length"
            elif not (declared.isascii() and declared.strip().isdigit()):
                status, error = 400, f"bad Content-Length {declared!r}"
            elif int(declared) > MAX_BODY_BYTES:
                status = 413
                error = f"request body over {MAX_BODY_BYTES} bytes"
            else:
                return int(declared)
            service.metrics.counter(
                "service.errors" if status == 400 else "service.rejected.413"
            ).inc()
            # The body is left unread, so the next request's bytes
            # could not be told from it.
            self._reply(status, {"error": error}, {}, close=True)
            return None

        def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
            length = self._body_length()
            if length is None:
                return
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else None
                if payload is not None and not isinstance(payload, dict):
                    payload = None
            except (ValueError, UnicodeDecodeError):
                payload = None
            phases = {}
            status, body, headers = service.handle(
                "POST", self.path, payload,
                trace_header=self.headers.get(TRACE_HEADER),
                phases=phases,
            )
            self._reply(status, body, headers)
            if phases:
                self._observe_phases(phases)

        def _observe_phases(self, phases: dict) -> None:
            """Split an executed request's handling time, from its
            request line to its last byte written, into four parts."""
            written = time.perf_counter()
            admitted, executing, executed = (
                phases["admitted"], phases["executing"], phases["executed"]
            )
            histogram = service.metrics.histogram
            histogram("service.parse_seconds").observe(
                admitted - self.received
            )
            histogram("service.queue_seconds").observe(executing - admitted)
            histogram("service.execute_seconds").observe(executed - executing)
            histogram("service.serialize_seconds").observe(written - executed)

    return _Handler


def serve(config: Optional[ServiceConfig] = None) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns an exit status.

    Prints ``serving on http://HOST:PORT`` once the socket is bound (the
    CLI test and the smoke harness both wait for that line), then blocks
    in ``serve_forever``.  On signal the shutdown sequence runs on a
    helper thread — drain, stop the listener, write artifacts — while
    the main thread falls out of ``serve_forever`` and joins handlers
    via ``server_close``.
    """
    service = MappingService(config)
    server = service.start()
    stop = threading.Event()

    def _signal_shutdown(signum, frame):  # noqa: ARG001 - signal signature
        if not stop.is_set():
            stop.set()
            threading.Thread(
                target=service.shutdown, name="repro-serve-drain"
            ).start()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _signal_shutdown)
    print(f"serving on {service.url}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("drained; bye", flush=True)
    return 0


__all__ = [
    "ENDPOINT_KINDS",
    "MAX_BODY_BYTES",
    "MappingService",
    "RETRY_AFTER_SECONDS",
    "SOCKET_TIMEOUT_SECONDS",
    "ServiceConfig",
    "serve",
]
