"""``/sloz`` + ``/debugz``: parity with the Python API, breach wiring."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.obs import (FLIGHT_BUNDLE_FIELDS, FLIGHT_SCHEMA_VERSION,
                       MetricsRegistry, FlightRecorder, SLOEngine)
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


@pytest.fixture()
def frozen(store_path, open_session):
    """A server with an injected frozen-clock SLO engine and flight
    recorder, so every document it serves is deterministic."""
    clock = FakeClock(now=123456.0)
    registry = MetricsRegistry()
    engine = SLOEngine(clock=clock, registry=registry)
    recorder = FlightRecorder(capacity=32, clock=clock,
                              registry=registry, slo=engine,
                              traces_provider=list)
    session = open_session()
    with SearchServer(session, index_path=store_path,
                      slo=engine,
                      flight=recorder) as live:
        # the bundle embeds the store's gauge history: stop the scrape
        # loop so no sample lands between an HTTP read and an API call
        live.timeseries.stop()
        yield live, engine, recorder, clock


class TestParity:
    def test_sloz_is_byte_for_byte_the_python_api(self, frozen):
        server, engine, _, _ = frozen
        http_post(server.url + "/search", {"query": Q1})
        raw = _raw_get(server.url + "/sloz")
        expected = json.dumps(engine.as_json(),
                              sort_keys=True).encode("utf-8")
        assert raw == expected

    def test_debugz_is_byte_for_byte_the_python_api(self, frozen):
        server, _, recorder, _ = frozen
        http_post(server.url + "/search", {"query": Q1})
        http_post(server.url + "/batch", {"queries": [Q1]})
        raw = _raw_get(server.url + "/debugz")
        expected = json.dumps(recorder.bundle(),
                              sort_keys=True).encode("utf-8")
        assert raw == expected
        # and the fetch itself mutated nothing: still byte-identical
        assert _raw_get(server.url + "/debugz") == raw

    def test_requests_flow_into_the_slo_engine_and_the_ring(self, frozen):
        server, engine, recorder, _ = frozen
        http_post(server.url + "/search", {"query": Q1})
        http_post(server.url + "/batch", {"queries": [Q1, Q1]})
        # request-level events reach the engine; the ring additionally
        # holds the session-level query/batch events
        assert engine.recorded == 2
        kinds = [event["event"] for event in recorder.ring.events()]
        assert kinds.count("request") == 2
        assert kinds.count("query") == 1
        assert kinds.count("batch") == 1
        routes = {event["route"] for event in recorder.ring.events()
                  if event["event"] == "request"}
        assert routes == {"/search", "/batch"}

    def test_introspection_routes_emit_no_wide_events(self, frozen):
        server, engine, recorder, _ = frozen
        for route in ("/healthz", "/metrics", "/tracez", "/sloz",
                      "/debugz"):
            status, _ = http_get(server.url + route)
            assert status == 200
        assert engine.recorded == 0
        assert recorder.ring.recorded == 0


class TestBreachThroughTheServer:
    def test_http_errors_burn_into_page_and_dump_a_bundle(
            self, store_path, open_session):
        """All-error traffic against a tight objective walks the
        server-attached engine into page state, which fires the flight
        recorder exactly once (then rate-limits)."""
        clock = FakeClock(now=50000.0)
        registry = MetricsRegistry()
        engine = SLOEngine(["availability 99%"], page_burn=1.0,
                           warn_burn=0.5, clock=clock,
                           registry=registry)
        recorder = FlightRecorder(capacity=32, clock=clock,
                                  registry=registry, slo=engine,
                                  traces_provider=list)
        session = open_session()
        with SearchServer(session, index_path=store_path,
                          slo=engine,
                          flight=recorder) as server:
            for _ in range(3):  # malformed bodies: 400 = outcome error
                status, _, _ = http_post(server.url + "/search", {},
                                         raw=b"{not json")
                assert status == 400
            assert engine.state("availability_99") == "page"
            assert engine.breaches == 1
            assert recorder.dumped == 1
            assert recorder.last_reason == "slo_page"
            status, body = http_get(server.url + "/sloz")
            assert status == 200
            assert body["breaches"] == 1
            assert body["objectives"][0]["state"] == "page"
            status, bundle = http_get(server.url + "/debugz")
            assert status == 200
            assert tuple(bundle) == tuple(sorted(FLIGHT_BUNDLE_FIELDS))
            assert bundle["dumped"] == 1
            assert bundle["slo"]["breaches"] == 1
            assert registry.counters["slo_breaches"] == 1
            assert registry.counters["flight_dumps"] == 1


class TestDefaults:
    def test_default_server_serves_sloz_and_debugz(self, store_path,
                                                   open_session):
        session = open_session()
        with SearchServer(session, index_path=store_path) as server:
            http_post(server.url + "/search", {"query": Q1})
            status, sloz = http_get(server.url + "/sloz")
            assert status == 200
            assert sloz["schema"] == 1
            assert sloz["recorded"] == 1
            names = {objective["name"]
                     for objective in sloz["objectives"]}
            assert names == {"availability_99_9", "latency_p99_50ms"}
            status, bundle = http_get(server.url + "/debugz")
            assert status == 200
            assert bundle["schema"] == FLIGHT_SCHEMA_VERSION
            assert bundle["event_stats"]["recorded"] >= 2
            # the gauge history is the server store's raw gauge series
            assert "gauge:server_inflight_requests" in \
                bundle["gauge_snapshots"]

    def test_disabled_slo_and_flight_are_404(self, store_path, open_session):
        session = open_session()
        with SearchServer(session, index_path=store_path,
                          slo=False,
                          flight=False) as server:
            for route in ("/sloz", "/debugz"):
                status, _ = http_get(server.url + route)
                assert status == 404

    def test_healthz_reports_generation_and_inflight(self, store_path,
                                                     open_session):
        session = open_session()
        with SearchServer(session, index_path=store_path) as server:
            status, body = http_get(server.url + "/healthz")
            assert status == 200
            assert body["index_generation"] == 0
            assert body["inflight_queries"] == 0
            server.reload()
            status, body = http_get(server.url + "/healthz")
            assert body["index_generation"] == 1
