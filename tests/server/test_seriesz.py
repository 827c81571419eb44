"""``/seriesz`` on the search server — as ``serve`` runs it over a
store and as ``search --telemetry-port`` runs it over an in-memory
session: parity, filters, lifecycle."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.obs.console import run_top
from repro.obs.timeseries import (SERIES_FIELDS, TimeSeriesStore,
                                  current_rss_bytes)
from repro.runtime.session import SearchSession
from repro.server import SearchServer, wire

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


def _freeze(store: TimeSeriesStore) -> TimeSeriesStore:
    """Stop ``store``'s scrape loop, pin its clock and add a fixed
    history, so every read of it is deterministic."""
    store.stop()
    store._clock = FakeClock(now=777.0)
    for step in range(15):
        store.record("gauge:x", float(step), now=700.0 + step)
        store.record("counter:hits", 2.0, kind="rate",
                     now=700.0 + step)
    return store


@pytest.fixture()
def telemetry(figure1_index):
    """The server ``search --telemetry-port`` runs: an in-memory
    session, no index path."""
    with SearchServer(SearchSession(figure1_index)) as server:
        yield server


class TestTelemetryEndpoint:
    def test_seriesz_is_byte_for_byte_the_python_api(self, telemetry):
        store = _freeze(telemetry.timeseries)
        raw = _raw_get(telemetry.url + "/seriesz")
        expected = json.dumps(store.as_json(), sort_keys=True,
                              default=str).encode("utf-8")
        assert raw == expected
        # the fetch mutated nothing: a second read is identical
        assert _raw_get(telemetry.url + "/seriesz") == raw

    def test_filters_match_the_python_api(self, telemetry):
        store = _freeze(telemetry.timeseries)
        raw = _raw_get(telemetry.url +
                       "/seriesz?name=gauge:x&window=72&resolution=raw")
        expected = json.dumps(
            store.as_json(name="gauge:x", window=72.0, resolution="raw"),
            sort_keys=True, default=str).encode("utf-8")
        assert raw == expected
        # the window keeps the newest points of the fixed history
        points = json.loads(raw)["series"]["gauge:x"]["points"]["raw"]
        assert 0 < len(points) < 15

    def test_bad_parameters_are_400(self, telemetry):
        status, body = http_get(telemetry.url + "/seriesz?window=nope")
        assert status == 400
        assert "window" in body
        status, body = http_get(telemetry.url + "/seriesz?window=-1")
        assert status == 400
        status, body = http_get(telemetry.url +
                                "/seriesz?resolution=hourly")
        assert status == 400
        assert "resolution" in body

    def test_without_a_provider_the_route_is_404(self, figure1_index):
        session = SearchSession(figure1_index)
        with SearchServer(session, series_interval=None) as server:
            status, body = http_get(server.url + "/seriesz")
            assert status == 404


class TestSearchServer:
    def test_default_server_serves_seriesz(self, store_path, open_session):
        session = open_session()
        with SearchServer(session, index_path=store_path) as server:
            http_post(server.url + "/search", {"query": Q1})
            status, document = http_get(server.url + "/seriesz")
            assert status == 200
            assert tuple(document) == tuple(sorted(SERIES_FIELDS))
            assert document["schema"] == 1
            assert document["scrapes"] >= 1
            # the store is the one sampler: it probes the process
            assert "resource:threads" in document["series"]

    def test_seriesz_parity_under_a_frozen_clock(self, store_path,
                                                 open_session):
        session = open_session()
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
            self, store_path, open_session):
        session = open_session()
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

    def test_disabled_series_interval_is_404(self, store_path, open_session):
        session = open_session()
        with SearchServer(session, index_path=store_path,
                          series_interval=None) as server:
            assert server.timeseries is None
            status, body = http_get(server.url + "/seriesz")
            assert status == 404
            assert body["status"] == 404  # the wire-format 404 shape

    def test_close_stops_the_scrape_loop(self, store_path, open_session):
        session = open_session()
        server = SearchServer(session, index_path=store_path)
        store = server.timeseries
        assert store.running
        server.close()
        assert not store.running

    def test_introspection_routes_emit_no_wide_events(
            self, store_path, open_session):
        session = open_session()
        with SearchServer(session, index_path=store_path) as server:
            status, _ = http_get(server.url + "/seriesz")
            assert status == 200
            assert server.flight.ring.recorded == 0


class TestSharedRouteTable:
    def test_both_surfaces_register_every_shared_route(
            self, store_path, open_session, figure1_index):
        # serve's server over a store and the telemetry port's server
        # over an in-memory session answer every catalogued GET route
        routes = {route.split(" ", 1)[1] for route in wire.SERVER_ROUTES
                  if route.startswith("GET ") and route != "GET /explain"}
        assert {"/metrics", "/healthz", "/profilez", "/tracez",
                "/flamez", "/sloz", "/debugz", "/seriesz"} <= routes
        surfaces = (
            lambda: SearchServer(open_session(),
                                 index_path=store_path),
            lambda: SearchServer(SearchSession(figure1_index)))
        for surface in surfaces:
            with surface() as server:
                assert set(server._introspection.paths) == routes
                for route in sorted(routes):
                    status, _ = http_get(server.url + route)
                    assert status == 200, route


class TestServingContext:
    """A served session's store read in-process, and a store on its
    own."""

    def test_session_console_renders_over_the_local_store(
            self, store_path, open_session):
        import io
        session = open_session()
        with SearchServer(session, index_path=store_path) as server:
            session.search(Q1)
            server.timeseries.scrape()
            out = io.StringIO()
            assert run_top(server.timeseries, once=True, out=out) == 1
            assert out.getvalue().startswith("cohesive-search top")

    def test_standalone_timeseries_probes_resources_itself(self):
        store = TimeSeriesStore(0.05)
        store.scrape()
        assert "resource:threads" in store.names()


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

    def test_store_from_an_interval(self, figure1_index):
        session = SearchSession(figure1_index)
        with SearchServer(session, series_interval=0.05) as server:
            store = server.timeseries
            session.search(Q1)
            _wait_for_scrapes(store, 3)
        self._assert_one_point_per_scrape(store)

    def test_default_search_server(self, store_path, open_session):
        session = open_session()
        with SearchServer(session, index_path=store_path) as server:
            store = server.timeseries
            http_post(server.url + "/search", {"query": Q1})
        self._assert_one_point_per_scrape(store)
