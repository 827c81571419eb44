"""The network-facing search service.

A :class:`SearchServer` shares **one** :class:`~repro.runtime.session.
SearchSession` — and therefore one mmap'd index and one cache pair —
across a bounded worker pool, behind a stdlib
:class:`~http.server.ThreadingHTTPServer` — the process's one HTTP
surface, also what ``cohesive-search search --telemetry-port`` runs:

* ``POST /search``  — one query, :mod:`repro.server.wire` format;
* ``POST /batch``   — a workload through the shared-scan executor;
* ``GET /explain``  — the EXPLAIN profiler over the wire;
* ``GET /healthz``  — liveness + admission/swap/cache/slow-query
  statistics;
* ``GET /metrics``  — OpenMetrics exposition of the serving registry;
* ``GET /profilez`` — the session's slow-query profiles, newest first;
* ``GET /tracez``   — recent trace digests;
* ``GET /flamez``   — the collapsed stacks of the session's last
  :meth:`~repro.runtime.session.SearchSession.profile_cpu` block;
* ``GET /sloz``     — the SLO engine's burn-rate states;
* ``GET /debugz``   — the flight recorder's diagnostic bundle;
* ``GET /seriesz``  — the time-series store's multi-resolution
  history (``?name=`` / ``?window=`` / ``?resolution=`` filters).

The introspection routes are registered on one
:class:`~repro.obs.routes.RouteTable`;
:data:`repro.server.wire.SERVER_ROUTES` is their catalogue.

Every **work** request (``/search``, ``/batch``, ``/explain``) emits
exactly one wide event (:mod:`repro.obs.wideevent`) carrying its
route, outcome code (``ok``/``rejected``/``timeout``/``error``),
status and latency into the event sink, the flight recorder's ring
and the SLO engine.  Introspection routes are deliberately excluded —
observability does not observe itself, and a ``GET /debugz`` mutates
nothing, so an HTTP fetch and a Python-API
:meth:`~repro.obs.flight.FlightRecorder.bundle` call agree
byte-for-byte.  The SLO engine consumes the request-level events
(they carry the HTTP outcome); the session-level query events feed
only the sink and the ring, so one search is never counted twice
against an objective.

Admission control is a hard bound: at most ``workers`` requests
execute while at most ``queue_limit`` more wait; the next request is
rejected immediately with ``429`` and a ``Retry-After`` header — under
overload the server sheds load, it never hangs.  Every admitted
request runs under the per-request (or server-default) timeout; on
expiry the client gets ``504`` and a queued-but-unstarted request is
cancelled so it cannot burn a worker for a client that already left.

Searches report into a process-global metrics registry and tracer
(worker threads do not inherit the ContextVar-scoped ones), so every
request lands in ``/metrics`` and ``/tracez``, and the time-series
store's scrape checks a ``gauge:server_inflight_requests`` budget that
a full admission queue exceeds, so sustained saturation surfaces as
``watchdog_breaches``.

Hot swap: :meth:`SearchServer.reload` (SIGHUP under :func:`serve`)
opens the index path afresh and :meth:`~repro.runtime.session.
SearchSession.swap_index` publishes it atomically.  In-flight requests
finish on the state snapshot they captured; the retired store stays
open — its mmap may still be read — until :meth:`SearchServer.close`.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qsl

from repro.errors import ReproError
from repro.obs.export import to_openmetrics
from repro.obs.logconfig import get_logger
from repro.obs.metrics import set_global_metrics
from repro.obs.routes import (OPENMETRICS_CONTENT_TYPE, RouteTable,
                              json_route, reply, series_route,
                              text_route)
from repro.obs.tracing import set_global_tracer
from repro.obs.wideevent import wide_event
from repro.runtime.session import SearchSession
from repro.server import wire
from repro.server.wire import WireError

_log = get_logger("server.app")

#: Counter catalogue of the serving layer (see docs/SERVER.md).
SERVER_COUNTERS = (
    "server_requests",
    "server_rejections",
    "server_timeouts",
    "server_errors",
    "server_index_swaps",
)

#: Gauge catalogue of the serving layer (see docs/SERVER.md).
SERVER_GAUGES = (
    "server_inflight_requests",
)

#: Env hook: sleep this many milliseconds inside every worker before
#: executing — a deterministic way for tests and the CI smoke job to
#: fill the queue (forcing 429s) or overrun a timeout (forcing 504s).
DELAY_ENV = "REPRO_SERVER_DELAY_MS"


class _Admission:
    """The bounded front door: at most ``capacity`` requests inside."""

    def __init__(self, capacity: int, registry):
        self.capacity = capacity
        self._registry = registry
        self._lock = threading.Lock()
        self._inflight = 0

    def enter(self) -> bool:
        with self._lock:
            if self._inflight >= self.capacity:
                return False
            self._inflight += 1
            inflight = self._inflight
        self._registry.gauge_set("server_inflight_requests", inflight)
        return True

    def leave(self) -> None:
        with self._lock:
            self._inflight -= 1
            inflight = self._inflight
        self._registry.gauge_set("server_inflight_requests", inflight)

    @property
    def inflight(self) -> int:
        return self._inflight


class SearchServer:
    """Serve one :class:`SearchSession` over HTTP.

    Parameters
    ----------
    session:
        The shared session; its index is typically a mmap'd CKSIDX2
        :class:`~repro.index.store_v2.LazyIndex` opened via
        :meth:`SearchSession.from_store`.
    index_path:
        Where :meth:`reload` re-opens the index from (required for hot
        swaps; ``None`` disables them).
    workers:
        Concurrent request executions (one shared session; the caches
        and the lazy store are thread-safe).
    queue_limit:
        Admitted-but-waiting requests beyond ``workers``; the next
        one is rejected with 429 + ``Retry-After``.
    request_timeout:
        Default per-request wall budget in seconds (a request's
        ``timeout_seconds`` field overrides it downward or upward);
        expiry replies 504.
    registry / tracer:
        Installed process-global for the server's lifetime (fresh ones
        by default) so worker threads' searches land in ``/metrics``
        and ``/tracez``.  While several servers are open the newest
        one's are installed; once the last one closes, in whatever
        order, the globals from before the first one are restored.
    sink:
        Optional :class:`~repro.obs.export.JsonlSink` receiving every
        wide event (request- and session-level) plus resource-budget
        / SLO breach events; attached to the session for the server's
        lifetime and detached (not closed) on :meth:`close`.
    slo:
        ``True`` (default) evaluates
        :data:`repro.obs.slo.DEFAULT_OBJECTIVES` over the request
        wide events; a sequence of objective spec strings declares
        custom objectives; a ready-made
        :class:`~repro.obs.slo.SLOEngine` is used as-is;
        ``None``/``False`` disables ``/sloz``.
    flight:
        ``True`` (default) attaches a
        :class:`~repro.obs.flight.FlightRecorder`; an integer sizes
        its wide-event ring; a ready-made recorder is used as-is;
        ``None``/``False`` disables ``/debugz``.  Page-state SLO
        transitions and resource-budget breaches trigger diagnostic
        bundles.
    series_interval:
        Scrape interval in seconds for the
        :class:`~repro.obs.timeseries.TimeSeriesStore` behind
        ``/seriesz`` (default 1s) — the server's one sampler of
        registry and process levels.  Its
        ``gauge:server_inflight_requests`` budget is one below the
        admission capacity (``workers + queue_limit``), which the
        gauge can reach but never pass, so a scrape that finds the
        admission full records a breach.  ``None`` disables the
        store, the budget and the route.
    """

    def __init__(self, session: SearchSession,
                 index_path=None,
                 port: int = 0, host: str = "127.0.0.1",
                 workers: int = 4, queue_limit: int = 16,
                 request_timeout: float = 30.0,
                 registry=None, tracer=None,
                 namespace: str = "repro",
                 sink=None, slo=True, flight=True,
                 series_interval: Optional[float] = 1.0):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.session = session
        self._index_path = index_path
        self._request_timeout = request_timeout
        self._namespace = namespace
        self._registry = registry if registry is not None \
            else MetricsRegistry()
        self._owns_tracer = tracer is None
        self._tracer = tracer if tracer is not None else Tracer()
        self._registry.declare(*SERVER_COUNTERS)
        self._registry.gauge_set("server_inflight_requests", 0)
        self._admission = _Admission(workers + queue_limit,
                                     self._registry)
        self.workers = workers
        self.queue_limit = queue_limit
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-search")
        self._retired: list = []
        self._swap_lock = threading.Lock()
        self.swap_count = 0
        self._started = time.time()
        self._closed = False
        self._sink = sink
        self._attached_sink = sink is not None and \
            session._event_sink is None
        if self._attached_sink:
            session.attach_event_sink(sink)
        if flight in (None, False):
            self._flight = None
        elif hasattr(flight, "bundle"):
            self._flight = flight
        else:
            from repro.obs.flight import FlightRecorder
            self._flight = FlightRecorder(
                256 if flight is True else int(flight),
                registry=self._registry)
        if slo in (None, False):
            self._slo = None
        elif hasattr(slo, "record"):
            self._slo = slo
        else:
            from repro.obs.slo import DEFAULT_OBJECTIVES, SLOEngine
            self._slo = SLOEngine(
                DEFAULT_OBJECTIVES if slo is True else slo,
                registry=self._registry, sink=sink)
        if self._flight is not None:
            if self._flight.slo is None:
                self._flight.slo = self._slo
            # Session-level query events land in the ring too (the
            # SLO engine consumes only the request-level events).
            session.attach_flight_recorder(self._flight)
            if self._slo is not None and self._slo.on_page is None:
                recorder = self._flight
                self._slo.on_page = \
                    lambda objective, info: recorder.trigger("slo_page")
        if series_interval is not None:
            from repro.obs.timeseries import TimeSeriesStore
            self._timeseries = TimeSeriesStore(
                series_interval, registry=self._registry, sink=sink,
                flight=self._flight,
                budgets={"gauge:server_inflight_requests":
                         self._admission.capacity - 1})
            if self._flight is not None and \
                    getattr(self._flight, "timeseries", None) is None:
                self._flight.timeseries = self._timeseries
            self._timeseries.start()
        else:
            self._timeseries = None
        from repro.obs.tracing import recent_traces
        self._introspection = RouteTable(
            on_error=lambda path, error:
            self._registry.inc("server_errors"))
        self._introspection.add("/healthz", json_route(self._health))
        self._introspection.add("/metrics", text_route(
            lambda: to_openmetrics(self._registry.snapshot(),
                                   self._namespace),
            OPENMETRICS_CONTENT_TYPE))
        self._introspection.add("/profilez", json_route(
            self._profiles, sort_keys=False))
        self._introspection.add("/tracez", json_route(
            recent_traces, sort_keys=False))
        self._introspection.add("/flamez", text_route(self._flame))
        if self._slo is not None:
            self._introspection.add("/sloz",
                                    json_route(self._slo.as_json))
        if self._flight is not None:
            self._introspection.add(
                "/debugz", json_route(lambda: self._flight.bundle()))
        if self._timeseries is not None:
            self._introspection.add(
                "/seriesz", series_route(lambda: self._timeseries))
        server = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                server._route_get(self)

            def do_POST(self) -> None:  # noqa: N802 (stdlib API)
                server._route_post(self)

            def send_error(self, code, message=None, explain=None):
                # The stdlib's own error replies (malformed request
                # line, 414, 431, 501 for an unsupported method) carry
                # the wire-format error body and go out in one write.
                self.log_error("code %d, message %s", code, message)
                if message is None:
                    message = self.responses.get(code, ("",))[0]
                server._fail(self, code, message, close=True)

            def log_message(self, fmt, *args):  # route to repro.* logs
                _log.debug("server %s", fmt % args)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        _install_globals(self)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-server",
            daemon=True)
        self._thread.start()
        _log.info("search server on %s (%d workers, queue %d)",
                  self.url, workers, queue_limit)

    # -- surface -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolved when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the service."""
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the server started."""
        return time.time() - self._started

    @property
    def slo(self):
        """The serving SLO engine, or ``None``."""
        return self._slo

    @property
    def flight(self):
        """The serving flight recorder, or ``None``."""
        return self._flight

    @property
    def timeseries(self):
        """The time-series store behind ``/seriesz``, or ``None``."""
        return self._timeseries

    def reload(self) -> int:
        """Hot-swap the index from ``index_path``; returns the swap
        count.

        The new store is opened *before* the old state is retired, so
        a failed open leaves the server exactly as it was.  In-flight
        requests finish on their captured snapshot; the retired index
        stays open until :meth:`close` (its mmap may still be read).
        """
        if self._index_path is None:
            raise ReproError("server has no index_path to reload from")
        from repro.index.store_v2 import open_index
        fresh = open_index(self._index_path,
                           self.session.index.tokenizer)
        with self._swap_lock:
            retired = self.session.index
            self.session.swap_index(fresh)
            self._retired.append(retired)
            self.swap_count += 1
        self._registry.inc("server_index_swaps")
        _log.info("index hot-swapped (#%d) from %s",
                  self.swap_count, self._index_path)
        return self.swap_count

    def close(self) -> None:
        """Stop accepting, drain the pool, release everything
        (idempotent).

        Order matters: the listener closes first (no new admissions),
        the pool drains in-flight work, and only then are retired
        index stores closed — their mmaps may be read up to the last
        drained request — and the global registry/tracer handed back.
        The session's current index belongs to the caller and stays
        open.
        """
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        self._pool.shutdown(wait=True)
        if self._timeseries is not None:
            self._timeseries.stop()
        if self._flight is not None:
            self.session.attach_flight_recorder(None)
        if self._attached_sink:
            self.session.attach_event_sink(None)
        for index in self._retired:
            close = getattr(index, "close", None)
            if close is not None:
                close()
        self._retired.clear()
        _release_globals(self)
        if self._owns_tracer:
            self._tracer.close()
        _log.info("search server closed")

    def __enter__(self) -> "SearchServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request execution ---------------------------------------------------

    def _run(self, job, timeout: Optional[float]):
        """Admit → pool → bounded wait; returns the wire body dict or
        raises :class:`_Reject` with the HTTP status to send."""
        if not self._admission.enter():
            self._registry.inc("server_rejections")
            raise _Reject(429, "server at capacity "
                          f"({self._admission.capacity} in flight)",
                          retry_after=1.0)
        self._registry.inc("server_requests")
        cancelled = threading.Event()
        start = time.perf_counter()

        def task():
            if cancelled.is_set():
                return None
            delay = os.environ.get(DELAY_ENV)
            if delay:
                time.sleep(float(delay) / 1000.0)
            return job()

        future = self._pool.submit(task)
        budget = timeout if timeout is not None else self._request_timeout
        try:
            result = future.result(timeout=budget)
        except TimeoutError:
            cancelled.set()
            future.cancel()
            self._registry.inc("server_timeouts")
            raise _Reject(504, f"request exceeded {budget:g}s") from None
        finally:
            self._admission.leave()
        if result is None and cancelled.is_set():  # pragma: no cover
            raise _Reject(504, "request was cancelled")
        self._registry.observe("server_request_seconds",
                               time.perf_counter() - start)
        return result

    # -- routing -------------------------------------------------------------

    def _route_post(self, request: BaseHTTPRequestHandler) -> None:
        start = time.perf_counter()
        path = request.path.split("?", 1)[0]
        try:
            length = int(request.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:  # the body cannot be framed
            request.send_error(
                400, "Content-Length must be a non-negative integer")
            return
        # Read even an unrouted body: left unread, it would be parsed
        # as the keep-alive connection's next request line.
        raw = request.rfile.read(length)
        if path not in ("/search", "/batch"):
            self._fail(request, 404, f"unknown route POST {path}")
            return
        status = 200
        queries = 1
        body = None
        failure = None  # (message, retry_after) when not replying 200
        try:
            if path == "/search":
                query, options, timeout = wire.parse_search_request(raw)
                body = self._run(
                    lambda: self._do_search(query, options), timeout)
            else:
                batch, options, timeout = wire.parse_batch_request(raw)
                queries = len(batch)
                body = self._run(
                    lambda: self._do_batch(batch, options), timeout)
        except _Reject as reject:
            status = reject.status
            failure = (reject.message, reject.retry_after)
        except (WireError, ReproError) as error:
            status = 400
            self._registry.inc("server_errors")
            failure = (str(error), None)
        except Exception as error:  # pragma: no cover - handler bugs
            status = 500
            _log.exception("server handler failed on %s", path)
            self._registry.inc("server_errors")
            failure = (f"internal error: {error}", None)
        # observe BEFORE replying: once the client holds the response,
        # every observability surface already accounts for the request
        self._observe_request(path, status,
                              time.perf_counter() - start, queries)
        if failure is None:
            self._json(request, 200, body)
        else:
            self._fail(request, status, failure[0],
                       retry_after=failure[1])

    def _route_get(self, request: BaseHTTPRequestHandler) -> None:
        path, _, query_string = request.path.partition("?")
        if path != "/explain":
            self._route_introspection(request, path)
            return
        start = time.perf_counter()
        status = 200
        body = None
        failure = None  # (message, retry_after) when not replying 200
        try:
            params = dict(parse_qsl(query_string))
            query, options, timeout = _parse_explain(params)
            body = self._run(
                lambda: wire.explain_response(
                    self.session.explain(query, options)), timeout)
        except _Reject as reject:
            status = reject.status
            failure = (reject.message, reject.retry_after)
        except (WireError, ReproError) as error:
            status = 400
            self._registry.inc("server_errors")
            failure = (str(error), None)
        except Exception as error:  # pragma: no cover - handler bugs
            status = 500
            _log.exception("server handler failed on %s", path)
            self._registry.inc("server_errors")
            failure = (f"internal error: {error}", None)
        self._observe_request(path, status, time.perf_counter() - start)
        if failure is None:
            self._json(request, 200, body)
        else:
            self._fail(request, status, failure[0],
                       retry_after=failure[1])

    def _route_introspection(self, request: BaseHTTPRequestHandler,
                             path: str) -> None:
        """The read-only introspection routes — deliberately outside
        the wide-event / admission path, so scraping never perturbs
        what it measures (and ``/debugz`` stays pure).  The
        :class:`~repro.obs.routes.RouteTable` dispatches; unknown
        paths get the wire-format 404 body."""
        if not self._introspection.dispatch(request):
            self._fail(request, 404, f"unknown route GET {path}")

    def _observe_request(self, route: str, status: int,
                         duration: float, queries: int = 1) -> None:
        """Emit the one wide event of a finished work request."""
        if self._sink is None and self._slo is None and \
                self._flight is None:
            return
        outcome = {200: "ok", 429: "rejected",
                   504: "timeout"}.get(status, "error")
        event = wide_event("request", route, queries=queries,
                           duration_seconds=duration, outcome=outcome,
                           status=status)
        if self._sink is not None:
            payload = {key: value for key, value in event.items()
                       if key != "event"}
            self._sink.emit(event["event"], payload)
        if self._flight is not None:
            self._flight.record(event)
        if self._slo is not None:
            self._slo.record(event)

    def _do_search(self, query: str, options) -> dict:
        start = time.perf_counter()
        results = self.session.search(query, options)
        return wire.search_response(query, options, results,
                                    time.perf_counter() - start)

    def _do_batch(self, queries: list, options) -> dict:
        start = time.perf_counter()
        answers = self.session.search_batch(queries, options)
        return wire.batch_response(queries, options, answers,
                                   time.perf_counter() - start)

    def _profiles(self) -> list:
        slow_log = self.session.slow_query_log
        return slow_log.as_json() if slow_log is not None else []

    def _flame(self) -> str:
        profiler = self.session._profiler
        return profiler.to_collapsed() if profiler is not None else ""

    def _health(self) -> dict:
        health = {
            "status": "ok",
            "uptime_seconds": round(self.uptime_seconds, 3),
            "inflight": self._admission.inflight,
            "inflight_queries": self._registry.gauge(
                "session_inflight_queries"),
            "capacity": self._admission.capacity,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "index_swaps": self.swap_count,
            "index_generation": self.session.generation,
            "keywords": len(self.session.index),
            "caches": self.session.cache_stats(),
        }
        slow_log = self.session.slow_query_log
        if slow_log is not None:
            health["slow_queries"] = {
                "threshold_seconds": slow_log.threshold,
                "recorded": slow_log.recorded,
                "retained": len(slow_log),
            }
        return health

    def _json(self, request, status: int, body: dict) -> None:
        reply(request, status, "application/json",
              json.dumps(body, sort_keys=True))

    def _fail(self, request, status: int, message: str,
              retry_after: Optional[float] = None,
              close: bool = False) -> None:
        body = wire.error_response(status, message,
                                   retry_after=retry_after)
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, int(retry_after)))
        if close:  # sets close_connection, as the stdlib's send_error
            headers["Connection"] = "close"
        reply(request, status, "application/json",
              json.dumps(body, sort_keys=True), headers)


#: The open servers, oldest first, and the process-global registry and
#: tracer from before the first of them opened.  Module state, as the
#: globals whose ownership it orders are.
_open_servers: list = []
_globals_before: tuple = (None, None)
_globals_lock = threading.Lock()


def _install_globals(server: SearchServer) -> None:
    """Install ``server``'s registry and tracer process-global."""
    global _globals_before
    with _globals_lock:
        before = (set_global_metrics(server._registry),
                  set_global_tracer(server._tracer))
        if not _open_servers:
            _globals_before = before
        _open_servers.append(server)


def _release_globals(server: SearchServer) -> None:
    """Hand the process globals to the newest server still open, or
    back to what they were before the first one opened."""
    with _globals_lock:
        _open_servers.remove(server)
        if _open_servers:
            newest = _open_servers[-1]
            registry, tracer = newest._registry, newest._tracer
        else:
            registry, tracer = _globals_before
        set_global_metrics(registry)
        set_global_tracer(tracer)


class _Reject(Exception):
    """A request turned away with a specific HTTP status."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _parse_explain(params: dict):
    """``GET /explain`` query parameters → (query, options, timeout)."""
    query = params.pop("q", None)
    if not query or not query.strip():
        raise WireError('/explain needs a non-empty "q" parameter')
    timeout = None
    if "timeout_seconds" in params:
        try:
            timeout = float(params.pop("timeout_seconds"))
        except ValueError as error:
            raise WireError("timeout_seconds must be a number") from error
        if timeout <= 0:
            raise WireError("timeout_seconds must be a positive number")
    converted: dict = {}
    for key, value in params.items():
        if key in ("top_k", "max_size", "list_limit"):
            try:
                converted[key] = int(value)
            except ValueError as error:
                raise WireError(f"{key} must be an integer") from error
        elif key == "impenetrability":
            converted[key] = value.lower() not in ("0", "false", "no")
        else:
            converted[key] = value
    from repro.runtime.options import OptionsError, SearchOptions
    try:
        options = SearchOptions.from_dict(converted)
    except OptionsError as error:
        raise WireError(f"bad options: {error}") from error
    return query, options, timeout


def serve(index_path, port: int = 8080, host: str = "127.0.0.1",
          workers: int = 4, queue_limit: int = 16,
          request_timeout: float = 30.0,
          slow_query_ms: Optional[float] = None,
          events_jsonl=None, slo=True, flight=True,
          series_interval: Optional[float] = 1.0,
          ready=None, stop: Optional[threading.Event] = None) -> None:
    """Run a search server over ``index_path`` until SIGTERM/SIGINT.

    The blocking entry point behind ``cohesive-search serve``: opens
    the store (lazily for CKSIDX2), prints the bound URL to stdout
    (``--port 0`` picks a free port), hot-swaps the index on SIGHUP
    and shuts down cleanly — in-flight requests drained, the store
    closed — on SIGTERM/SIGINT.  ``slow_query_ms`` enables the
    slow-query log, whose profiles ``/profilez`` serves and whose
    totals ``/healthz`` reports;
    ``events_jsonl`` opens a size-capped :class:`~repro.obs.export.
    JsonlSink` (closed on shutdown) receiving every wide event;
    ``series_interval`` paces the ``/seriesz`` scrape loop, the
    process's one resource sampler (``None`` disables the time-series
    store).
    ``ready`` (if given) is called with the running
    :class:`SearchServer` once it is serving; ``stop`` (an optional
    :class:`threading.Event`) shuts down when set, for embedders that
    cannot deliver signals (signal handlers only install on the main
    thread; elsewhere the signals are skipped silently).
    """
    session = SearchSession.from_store(index_path)
    if slow_query_ms is not None:
        session.configure_slow_query_log(slow_query_ms / 1000.0)
    sink = None
    if events_jsonl is not None:
        from repro.obs.export import JsonlSink
        sink = JsonlSink(events_jsonl, max_bytes=64 * 1024 * 1024)
    stop = stop if stop is not None else threading.Event()
    try:
        with SearchServer(session, index_path=index_path, port=port,
                          host=host, workers=workers,
                          queue_limit=queue_limit,
                          request_timeout=request_timeout,
                          sink=sink, slo=slo, flight=flight,
                          series_interval=series_interval) as server:
            try:
                if hasattr(signal, "SIGHUP"):
                    signal.signal(signal.SIGHUP,
                                  lambda *_: server.reload())
                for stopper in (signal.SIGTERM, signal.SIGINT):
                    signal.signal(stopper, lambda *_: stop.set())
            except ValueError:  # not the main thread
                pass
            print(f"serving on {server.url}", flush=True)
            if ready is not None:
                ready(server)
            stop.wait()
            _log.info("shutdown signal received")
    finally:
        # serve() opened the store, so it closes the one the session
        # holds now (the server already closed every retired one).
        close = getattr(session.index, "close", None)
        if close is not None:
            close()
        if sink is not None:
            sink.close()
