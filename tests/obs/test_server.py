"""The live telemetry endpoint: /metrics, /healthz, /profilez,
/tracez, /flamez and the session's serving() wiring of it."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (MetricsRegistry, QueryProfile, TelemetryServer,
                       parse_openmetrics)
from repro.obs.server import OPENMETRICS_CONTENT_TYPE
from repro.runtime import SearchSession

from tests.conftest import Q1


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.inc("postings_consumed", 10)
    for value in (0.001, 0.002, 0.050):
        registry.observe("search_seconds", value)
    return registry


class TestTelemetryServer:
    def test_port_zero_picks_a_free_port(self, registry):
        with TelemetryServer(registry.snapshot) as server:
            assert server.port > 0
            assert server.url.endswith(str(server.port))

    def test_metrics_route_serves_valid_openmetrics(self, registry):
        with TelemetryServer(registry.snapshot) as server:
            status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type == OPENMETRICS_CONTENT_TYPE
        families = parse_openmetrics(body)  # validating parser
        assert families["repro_postings_consumed"]["samples"] == \
            [("_total", {}, 10.0)]
        quantiles = {labels.get("quantile"): value
                     for suffix, labels, value in
                     families["repro_search_seconds"]["samples"]
                     if suffix == ""}
        assert quantiles["0.99"] == pytest.approx(0.050)

    def test_healthz_merges_provider(self, registry):
        with TelemetryServer(registry.snapshot,
                             health_provider=lambda: {"keywords": 9}
                             ) as server:
            status, content_type, body = _get(server.url + "/healthz")
        assert status == 200
        assert content_type == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["keywords"] == 9
        assert health["uptime_seconds"] >= 0

    def test_profilez_serves_profiles(self, registry):
        profiles = [QueryProfile(query="(a b)", result_count=4).to_dict()]
        with TelemetryServer(registry.snapshot,
                             profiles_provider=lambda: profiles) as server:
            status, _, body = _get(server.url + "/profilez")
        assert status == 200
        (entry,) = json.loads(body)
        assert entry["query"] == "(a b)"
        assert entry["result_count"] == 4

    def test_profilez_defaults_to_empty(self, registry):
        with TelemetryServer(registry.snapshot) as server:
            _, _, body = _get(server.url + "/profilez")
        assert json.loads(body) == []

    def test_tracez_serves_provider_digests(self, registry):
        digests = [{"trace_id": "abc", "root": "search", "spans": 5,
                    "pids": [1234], "duration_seconds": 0.01}]
        with TelemetryServer(registry.snapshot,
                             traces_provider=lambda: digests) as server:
            status, content_type, body = _get(server.url + "/tracez")
        assert status == 200
        assert content_type == "application/json"
        assert json.loads(body) == digests

    def test_tracez_defaults_to_empty(self, registry):
        with TelemetryServer(registry.snapshot) as server:
            _, _, body = _get(server.url + "/tracez")
        assert json.loads(body) == []

    def test_flamez_serves_collapsed_profile(self, registry):
        collapsed = "a;b;c 5\na;b 2"
        with TelemetryServer(registry.snapshot,
                             flame_provider=lambda: collapsed) as server:
            status, content_type, body = _get(server.url + "/flamez")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert body == collapsed

    def test_flamez_defaults_to_empty_profile(self, registry):
        with TelemetryServer(registry.snapshot) as server:
            status, _, body = _get(server.url + "/flamez")
        assert status == 200
        assert body == ""

    def test_resourcez_is_retired(self, registry):
        # resource history is served on /seriesz?name=resource:
        with TelemetryServer(registry.snapshot) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/resourcez")
        assert excinfo.value.code == 404

    def test_unknown_route_is_404(self, registry):
        with TelemetryServer(registry.snapshot) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404
            body = excinfo.value.read().decode("utf-8")
            assert "/flamez" in body and "/tracez" in body

    def test_close_is_idempotent(self, registry):
        server = TelemetryServer(registry.snapshot)
        server.close()
        server.close()


class TestSessionTelemetry:
    def test_serve_telemetry_end_to_end(self, figure1_index):
        session = SearchSession(figure1_index)
        with session.serving(telemetry=True,
                             slow_query_log=0.0) as run:
            server = run.telemetry
            session.search(Q1)

            _, _, body = _get(server.url + "/metrics")
            families = parse_openmetrics(body)
            assert families["repro_results_emitted"]["samples"] == \
                [("_total", {}, 3.0)]
            quantile_labels = {labels.get("quantile")
                               for _, labels, _ in
                               families["repro_search_seconds"]["samples"]}
            assert "0.99" in quantile_labels

            _, _, body = _get(server.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["keywords"] == len(figure1_index)
            assert health["slow_queries"]["recorded"] == 1

            _, _, body = _get(server.url + "/profilez")
            (profile,) = json.loads(body)
            assert profile["query"] == Q1
            assert profile["result_count"] == 3
            assert profile["counters"]["results_emitted"] == 3

    def test_tracez_reflects_traced_searches(self, figure1_index):
        # The endpoint's provider runs on the server's handler thread,
        # so only a process-global tracer is visible to it (scoped
        # tracers are context-local by design).
        from repro.obs import Tracer, set_global_tracer
        session = SearchSession(figure1_index)
        tracer = Tracer()
        set_global_tracer(tracer)
        try:
            with session.serving(telemetry=True) as run:
                session.search(Q1)
                _, _, body = _get(run.telemetry.url + "/tracez")
                (digest,) = json.loads(body)
                assert digest["root"] == "search"
                assert digest["spans"] >= 1
                # With the tracer gone the endpoint reads empty again.
                set_global_tracer(None)
                _, _, body = _get(run.telemetry.url + "/tracez")
                assert json.loads(body) == []
        finally:
            set_global_tracer(None)
            tracer.close()

    def test_seriesz_has_resource_history_from_the_default_store(
            self, figure1_index):
        import time
        session = SearchSession(figure1_index)
        with session.serving(telemetry=True) as run:
            session.search(Q1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                _, _, body = _get(run.telemetry.url +
                                  "/seriesz?name=resource:")
                resources = json.loads(body)["series"]
                _, _, body = _get(run.telemetry.url +
                                  "/seriesz?name=gauge:")
                gauges = json.loads(body)["series"]
                threads = resources.get("resource:threads")
                if threads and len(threads["points"]["raw"]) >= 2 \
                        and "gauge:plan_cache_entries" in gauges:
                    break
                time.sleep(0.02)
            assert len(threads["points"]["raw"]) >= 2
            assert threads["points"]["raw"][-1]["last"] >= 1
            assert all(name.startswith("resource:") for name in resources)
            assert "gauge:plan_cache_entries" in gauges
        assert session._timeseries is None

    def test_serve_telemetry_can_opt_out_of_the_watchdog(
            self, figure1_index):
        # timeseries=False drops the store, and with it the resource
        # watchdog and /seriesz
        session = SearchSession(figure1_index)
        with session.serving(telemetry=True, timeseries=False) as run:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(run.telemetry.url + "/seriesz")
            assert excinfo.value.code == 404

    def test_flamez_serves_the_session_profiler(self, figure1_index):
        session = SearchSession(figure1_index)
        with session.serving(telemetry=True) as run:
            with session.profile_cpu(hz=500):
                import time
                deadline = time.monotonic() + 0.2
                while time.monotonic() < deadline:
                    session.search(Q1)
            _, _, body = _get(run.telemetry.url + "/flamez")
            assert "repro" in body  # engine frames dominate

    def test_close_telemetry_removes_global_registry(self, figure1_index):
        from repro.obs import get_metrics
        session = SearchSession(figure1_index)
        with session.serving(telemetry=True):
            assert get_metrics().enabled
        assert not get_metrics().enabled

    def test_explicit_registry_is_respected(self, figure1_index,
                                            metrics_off):
        registry = MetricsRegistry()
        registry.inc("results_emitted", 123)
        session = SearchSession(figure1_index)
        with session.serving(telemetry=True, registry=registry) as run:
            _, _, body = _get(run.telemetry.url + "/metrics")
            assert "repro_results_emitted_total 123" in body


@pytest.fixture
def metrics_off():
    """Guard: these tests must not leak a process-global registry."""
    from repro.obs import get_metrics
    yield
    assert not get_metrics().enabled
