"""The live telemetry endpoint: ``/metrics``, ``/healthz``, ``/profilez``.

A :class:`TelemetryServer` is a stdlib :class:`http.server.
ThreadingHTTPServer` running on a daemon thread, exposing a long-lived
process (typically a :class:`~repro.runtime.session.SearchSession`
inside :meth:`~repro.runtime.session.SearchSession.serving`) to
scrapers:

* ``GET /metrics``  — the active registry's snapshot in OpenMetrics
  text exposition (:func:`repro.obs.export.to_openmetrics`), with the
  latency summaries' p50/p90/p99 quantile series;
* ``GET /healthz``  — liveness JSON (status, uptime, whatever the
  health provider adds);
* ``GET /profilez`` — the slow-query log's retained
  :class:`~repro.obs.profile.QueryProfile` records as a JSON array,
  newest first;
* ``GET /tracez``   — digests of the most recent completed traces
  (trace id, root span, span/pid fan-out, duration) from the active
  tracer, newest first;
* ``GET /flamez``   — the continuous profiler's aggregated stacks in
  collapsed (folded) text form, ready for any flamegraph tool;
* ``GET /sloz``     — the SLO engine's burn-rate document (objective
  states, per-window burn rates, breach history);
* ``GET /debugz``   — the flight recorder's self-contained diagnostic
  bundle (recent wide events, gauge history, trace digests);
* ``GET /seriesz``  — the time-series store's multi-resolution metric
  history, resource levels included (``?name=&window=&resolution=``
  filtered; ``?name=resource:`` selects RSS, fds and threads).

The server pulls — every request calls the provider callables handed
to the constructor — so the serving hot path never pushes anything:
observability stays pull-based and costs nothing between scrapes.
Route registration and dispatch live in :mod:`repro.obs.routes`, the
table shared with the search server's introspection surface.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.obs.export import to_openmetrics
from repro.obs.logconfig import get_logger
from repro.obs.routes import (RouteTable, json_route, reply,
                              series_route, text_route)

_log = get_logger("obs.server")

#: The content type OpenMetrics scrapers negotiate for.
OPENMETRICS_CONTENT_TYPE = \
    "application/openmetrics-text; version=1.0.0; charset=utf-8"


class TelemetryServer:
    """Serve telemetry over HTTP from provider callables.

    Parameters
    ----------
    snapshot_provider:
        Zero-argument callable returning a metrics snapshot dict
        (:meth:`MetricsRegistry.snapshot`); backs ``/metrics``.
    health_provider:
        Optional callable returning a JSON-ready dict merged into the
        ``/healthz`` body (``status`` and ``uptime_seconds`` are
        always present).
    profiles_provider:
        Optional callable returning the list of JSON-ready slow-query
        profiles served on ``/profilez`` (defaults to an empty list).
    traces_provider:
        Optional callable returning the list of JSON-ready trace
        digests served on ``/tracez`` (defaults to an empty list;
        wire :func:`repro.obs.tracing.recent_traces` here).
    flame_provider:
        Optional callable returning collapsed-stack text served on
        ``/flamez`` (wire
        :meth:`repro.obs.sampler.StackSampler.to_collapsed` here;
        defaults to an empty profile).
    slo_provider:
        Optional callable returning the JSON-ready dict served on
        ``/sloz`` (wire :meth:`repro.obs.slo.SLOEngine.as_json`
        here; 404 when absent).
    debug_provider:
        Optional callable returning the JSON-ready dict served on
        ``/debugz`` (wire
        :meth:`repro.obs.flight.FlightRecorder.bundle` here; 404
        when absent).
    series_provider:
        Optional callable returning the running
        :class:`~repro.obs.timeseries.TimeSeriesStore` served on
        ``/seriesz`` (``?name=&window=&resolution=`` filtered; 404
        when absent).
    port:
        TCP port; ``0`` picks a free one (see :attr:`port`).
    host:
        Bind address, loopback by default — telemetry is unauthenticated,
        so exposing it beyond the host is an explicit opt-in.
    namespace:
        Metric-name prefix of the OpenMetrics exposition.
    """

    def __init__(self, snapshot_provider: Callable[[], dict],
                 health_provider: Optional[Callable[[], dict]] = None,
                 profiles_provider: Optional[Callable[[], list]] = None,
                 traces_provider: Optional[Callable[[], list]] = None,
                 flame_provider: Optional[Callable[[], str]] = None,
                 slo_provider: Optional[Callable[[], dict]] = None,
                 debug_provider: Optional[Callable[[], dict]] = None,
                 series_provider: Optional[Callable[[], object]] = None,
                 port: int = 0, host: str = "127.0.0.1",
                 namespace: str = "repro"):
        self._snapshot_provider = snapshot_provider
        self._health_provider = health_provider
        self._namespace = namespace
        self._started = time.time()
        self._routes = RouteTable()
        self._routes.add("/metrics", text_route(
            lambda: to_openmetrics(snapshot_provider(), namespace),
            OPENMETRICS_CONTENT_TYPE))
        self._routes.add("/healthz", json_route(self._healthz))
        self._routes.add("/profilez", json_route(
            (lambda: profiles_provider())
            if profiles_provider is not None else (lambda: []),
            sort_keys=False))
        self._routes.add("/tracez", json_route(
            (lambda: traces_provider())
            if traces_provider is not None else (lambda: []),
            sort_keys=False))
        self._routes.add("/flamez", text_route(
            (lambda: flame_provider())
            if flame_provider is not None else (lambda: "")))
        if slo_provider is not None:
            self._routes.add("/sloz", json_route(slo_provider))
        if debug_provider is not None:
            self._routes.add("/debugz", json_route(debug_provider))
        if series_provider is not None:
            self._routes.add("/seriesz", series_route(series_provider))
        telemetry = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                telemetry._route(self)

            def log_message(self, fmt, *args):  # route to repro.* logs
                _log.debug("telemetry %s", fmt % args)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-telemetry",
            daemon=True)
        self._thread.start()
        _log.info("telemetry endpoint on %s", self.url)

    # -- surface -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolved when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the endpoint."""
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the server started."""
        return time.time() - self._started

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        httpd, self._httpd = self._httpd, None
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        self._thread.join(timeout=5.0)
        _log.info("telemetry endpoint closed")

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing -------------------------------------------------------------

    def _healthz(self) -> dict:
        health = {"status": "ok",
                  "uptime_seconds": round(self.uptime_seconds, 3)}
        if self._health_provider is not None:
            health.update(self._health_provider())
        return health

    def _route(self, request: BaseHTTPRequestHandler) -> None:
        if self._routes.dispatch(request):
            return
        path = request.path.split("?", 1)[0]
        known = ", ".join(self._routes.paths)
        reply(request, 404, "text/plain",
              f"unknown route {path}; try {known}")
