"""``/seriesz`` on both HTTP surfaces: parity, filters, lifecycle."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.obs import MetricsRegistry, TelemetryServer
from repro.obs.routes import SHARED_INTROSPECTION_ROUTES
from repro.obs.timeseries import (SERIES_FIELDS, TimeSeriesStore,
                                  current_rss_bytes)
from repro.runtime.session import SearchSession
from repro.server import SearchServer

from tests.server.conftest import http_get, http_post

Q1 = "(XML keyword search (Paul Cooper) (Mary Davis))"


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def _raw_get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read()


def _frozen_store() -> TimeSeriesStore:
    """A deterministic store that is never started (no scrape loop)."""
    store = TimeSeriesStore(1.0, clock=FakeClock(now=777.0),
                            registry=MetricsRegistry(),
                            detector=False)
    for step in range(15):
        store.record("gauge:x", float(step), now=700.0 + step)
        store.record("counter:hits", 2.0, kind="rate",
                     now=700.0 + step)
    return store


class TestTelemetryEndpoint:
    def test_seriesz_is_byte_for_byte_the_python_api(self):
        store = _frozen_store()
        registry = MetricsRegistry()
        with TelemetryServer(registry.snapshot,
                             series_provider=lambda: store) as server:
            raw = _raw_get(server.url + "/seriesz")
            expected = json.dumps(store.as_json(), sort_keys=True,
                                  default=str).encode("utf-8")
            assert raw == expected
            # the fetch mutated nothing: a second read is identical
            assert _raw_get(server.url + "/seriesz") == raw

    def test_filters_match_the_python_api(self):
        store = _frozen_store()
        registry = MetricsRegistry()
        with TelemetryServer(registry.snapshot,
                             series_provider=lambda: store) as server:
            raw = _raw_get(server.url +
                           "/seriesz?name=gauge:x&window=5"
                           "&resolution=raw")
            expected = json.dumps(
                store.as_json(name="gauge:x", window=5.0,
                              resolution="raw"),
                sort_keys=True, default=str).encode("utf-8")
            assert raw == expected

    def test_bad_parameters_are_400(self):
        store = _frozen_store()
        registry = MetricsRegistry()
        with TelemetryServer(registry.snapshot,
                             series_provider=lambda: store) as server:
            status, body = http_get(server.url + "/seriesz?window=nope")
            assert status == 400
            assert "window" in body
            status, body = http_get(server.url + "/seriesz?window=-1")
            assert status == 400
            status, body = http_get(server.url +
                                    "/seriesz?resolution=hourly")
            assert status == 400
            assert "resolution" in body

    def test_without_a_provider_the_route_is_404(self):
        registry = MetricsRegistry()
        with TelemetryServer(registry.snapshot) as server:
            status, body = http_get(server.url + "/seriesz")
            assert status == 404


class TestSearchServer:
    def test_default_server_serves_seriesz(self, store_path):
        session = SearchSession.from_store(store_path)
        with SearchServer(session, index_path=store_path) as server:
            http_post(server.url + "/search", {"query": Q1})
            status, document = http_get(server.url + "/seriesz")
            assert status == 200
            assert tuple(document) == tuple(sorted(SERIES_FIELDS))
            assert document["schema"] == 1
            assert document["scrapes"] >= 1
            # the store is the one sampler: it probes the process
            assert "resource:threads" in document["series"]

    def test_seriesz_parity_under_a_frozen_clock(self, store_path):
        session = SearchSession.from_store(store_path)
        with SearchServer(session, index_path=store_path) as server:
            http_post(server.url + "/search", {"query": Q1})
            store = server.timeseries
            store.stop()  # freeze: no background scrapes between reads
            store._clock = FakeClock(now=424242.0)
            raw = _raw_get(server.url + "/seriesz")
            expected = json.dumps(store.as_json(), sort_keys=True,
                                  default=str).encode("utf-8")
            assert raw == expected
            assert _raw_get(server.url + "/seriesz") == raw

    def test_full_admission_breaches_the_inflight_budget(
            self, store_path):
        session = SearchSession.from_store(store_path)
        with SearchServer(session, index_path=store_path) as server:
            store, admission = server.timeseries, server._admission
            # one sampler thread: no separate watchdog runs beside it
            names = [thread.name for thread in threading.enumerate()]
            assert "repro-resource-watchdog" not in names
            assert names.count("repro-timeseries") == 1
            assert server.flight.timeseries is store
            for _ in range(admission.capacity - 1):
                assert admission.enter()
            try:
                store.scrape()
                assert server._registry.counter("watchdog_breaches") == 0
                assert admission.enter()  # the admission is now full
                assert not admission.enter()
                store.scrape()
                assert server._registry.counter("watchdog_breaches") == 1
                assert server.flight.last_reason == "watchdog_breach"
            finally:
                while admission.inflight:
                    admission.leave()

    def test_disabled_series_interval_is_404(self, store_path):
        session = SearchSession.from_store(store_path)
        with SearchServer(session, index_path=store_path,
                          series_interval=None) as server:
            assert server.timeseries is None
            status, body = http_get(server.url + "/seriesz")
            assert status == 404
            assert body["status"] == 404  # the wire-format 404 shape

    def test_close_stops_the_scrape_loop(self, store_path):
        session = SearchSession.from_store(store_path)
        server = SearchServer(session, index_path=store_path)
        store = server.timeseries
        assert store.running
        server.close()
        assert not store.running

    def test_introspection_routes_emit_no_wide_events(self, store_path):
        session = SearchSession.from_store(store_path)
        with SearchServer(session, index_path=store_path) as server:
            status, _ = http_get(server.url + "/seriesz")
            assert status == 200
            assert server.flight.ring.recorded == 0


class TestSharedRouteTable:
    def test_both_surfaces_register_every_shared_route(self, store_path):
        registry = MetricsRegistry()
        store = _frozen_store()
        from repro.obs.slo import SLOEngine
        from repro.obs.flight import FlightRecorder
        engine = SLOEngine(registry=registry)
        recorder = FlightRecorder(registry=registry,
                                  traces_provider=list)
        shared = {route.split(" ", 1)[1]
                  for route in SHARED_INTROSPECTION_ROUTES}
        with TelemetryServer(registry.snapshot, slo_provider=lambda:
                             engine.as_json(),
                             debug_provider=recorder.bundle,
                             series_provider=lambda: store) as server:
            assert shared <= set(server._routes.paths)
        session = SearchSession.from_store(store_path)
        with SearchServer(session, index_path=store_path) as live:
            assert shared <= set(live._introspection.paths)


class TestServingContext:
    def test_serving_timeseries_wires_store_watchdog_and_route(
            self, store_path):
        session = SearchSession.from_store(store_path)
        budgets = {"max_threads": 10_000}
        with session.serving(telemetry=True, flight=True,
                             timeseries={"interval": 0.05,
                                         "budgets": budgets}) as run:
            assert run.timeseries is session.timeseries_store
            assert run.timeseries.running
            # the store is the resource watchdog: it checks the budgets
            assert run.timeseries.budgets == budgets
            # the flight bundle reads its gauge history from the store
            assert run.flight.timeseries is run.timeseries
            assert run.timeseries._flight is run.flight
            session.search(Q1)
            status, document = http_get(run.telemetry.url + "/seriesz")
            assert status == 200
            assert document["schema"] == 1
        assert session.timeseries_store is None

    def test_session_console_renders_over_the_local_store(
            self, store_path):
        import io
        session = SearchSession.from_store(store_path)
        with session.serving(timeseries=0.05):
            session.search(Q1)
            session._timeseries.scrape()
            out = io.StringIO()
            assert session.console(once=True, out=out) == 1
            assert out.getvalue().startswith("cohesive-search top")
        with pytest.raises(RuntimeError):
            session.console(once=True)

    def test_standalone_timeseries_probes_resources_itself(
            self, store_path):
        session = SearchSession.from_store(store_path)
        with session.serving(timeseries=0.05) as run:
            run.timeseries.scrape()
            assert "resource:threads" in run.timeseries.names()


def _wait_for_scrapes(store, count: int, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while store.scrapes < count and time.monotonic() < deadline:
        time.sleep(0.01)


class TestOneSampler:
    """Every serving path samples the process through its one store:
    exactly one ``resource:rss_bytes`` point per scrape, never a second
    feed beside it."""

    @pytest.fixture(autouse=True)
    def _needs_rss_probe(self):
        if current_rss_bytes() is None:
            pytest.skip("no RSS probe on this platform")

    @staticmethod
    def _assert_one_point_per_scrape(store) -> None:
        assert not store.running
        assert store.scrapes >= 1
        assert len(store.series("resource:rss_bytes")) == store.scrapes

    def test_ready_made_store_under_telemetry(self, store_path):
        session = SearchSession.from_store(store_path)
        store = TimeSeriesStore(0.05, detector=False)
        with session.serving(telemetry=True, timeseries=store) as run:
            assert run.timeseries is store
            session.search(Q1)
            _wait_for_scrapes(store, 3)
        self._assert_one_point_per_scrape(store)

    def test_store_from_an_interval(self, store_path):
        session = SearchSession.from_store(store_path)
        with session.serving(timeseries=0.05) as run:
            store = run.timeseries
            session.search(Q1)
            _wait_for_scrapes(store, 3)
        self._assert_one_point_per_scrape(store)

    def test_default_search_server(self, store_path):
        session = SearchSession.from_store(store_path)
        with SearchServer(session, index_path=store_path) as server:
            store = server.timeseries
            http_post(server.url + "/search", {"query": Q1})
        self._assert_one_point_per_scrape(store)
