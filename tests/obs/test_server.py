"""The telemetry routes — /metrics, /healthz, /profilez, /tracez,
/flamez, /seriesz — on the search server that ``search
--telemetry-port`` runs over an in-memory session."""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, parse_openmetrics
from repro.obs.routes import OPENMETRICS_CONTENT_TYPE
from repro.runtime import SearchSession
from repro.server import SearchServer

from tests.conftest import Q1


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (response.status, response.headers.get("Content-Type"),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        # An HTTPError holds the reply's socket open; keep its body for
        # the caller and close the socket.
        with error:
            body = error.read()
        raise urllib.error.HTTPError(error.url, error.code, error.reason,
                                     error.headers,
                                     io.BytesIO(body)) from None


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.inc("postings_consumed", 10)
    for value in (0.001, 0.002, 0.050):
        registry.observe("search_seconds", value)
    return registry


@pytest.fixture
def session(figure1_index):
    return SearchSession(figure1_index)


class TestTelemetryRoutes:
    def test_port_zero_picks_a_free_port(self, session):
        with SearchServer(session) as server:
            assert server.port > 0
            assert server.url.endswith(str(server.port))

    def test_metrics_route_serves_valid_openmetrics(self, session,
                                                    registry):
        with SearchServer(session, registry=registry) as server:
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

    def test_healthz_merges_the_session_state(self, session,
                                              figure1_index):
        session.configure_slow_query_log(0.5)
        with SearchServer(session) as server:
            status, content_type, body = _get(server.url + "/healthz")
        assert status == 200
        assert content_type == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert health["keywords"] == len(figure1_index)
        # every key either the server's or the session's old body had
        assert {"status", "uptime_seconds", "inflight",
                "inflight_queries", "capacity", "workers", "queue_limit",
                "index_swaps", "index_generation", "keywords", "caches",
                "slow_queries"} <= set(health)
        assert health["slow_queries"] == {"threshold_seconds": 0.5,
                                          "recorded": 0, "retained": 0}

    def test_profilez_serves_profiles(self, session):
        session.configure_slow_query_log(0.0)
        with SearchServer(session) as server:
            session.search(Q1)
            status, _, body = _get(server.url + "/profilez")
        assert status == 200
        (entry,) = json.loads(body)
        assert entry["query"] == Q1
        assert entry["result_count"] == 3

    def test_profilez_defaults_to_empty(self, session):
        with SearchServer(session) as server:
            _, _, body = _get(server.url + "/profilez")
        assert json.loads(body) == []

    def test_tracez_defaults_to_empty(self, session):
        with SearchServer(session) as server:
            _, _, body = _get(server.url + "/tracez")
        assert json.loads(body) == []

    def test_flamez_defaults_to_empty_profile(self, session):
        with SearchServer(session) as server:
            status, content_type, body = _get(server.url + "/flamez")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert body == ""

    def test_resourcez_is_retired(self, session):
        # resource history is served on /seriesz?name=resource:
        with SearchServer(session) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/resourcez")
        assert excinfo.value.code == 404

    def test_unknown_route_is_404(self, session):
        with SearchServer(session) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["status"] == 404  # the wire-format error body
            assert "/nope" in body["error"]

    def test_close_is_idempotent(self, session):
        server = SearchServer(session)
        server.close()
        server.close()


class TestSessionTelemetry:
    def test_telemetry_end_to_end(self, figure1_index):
        session = SearchSession(figure1_index)
        session.configure_slow_query_log(0.0)
        with SearchServer(session) as server:
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
        # The route runs on the server's handler thread, so it reads
        # the tracer the server installs process-wide (scoped tracers
        # are context-local by design).
        from repro.obs import Tracer
        session = SearchSession(figure1_index)
        tracer = Tracer()
        try:
            with SearchServer(session, tracer=tracer) as server:
                session.search(Q1)
                _, _, body = _get(server.url + "/tracez")
                (digest,) = json.loads(body)
                assert digest["root"] == "search"
                assert digest["spans"] >= 1
        finally:
            tracer.close()

    def test_seriesz_has_resource_history_from_the_default_store(
            self, figure1_index):
        import time
        session = SearchSession(figure1_index)
        with SearchServer(session) as server:
            session.search(Q1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                _, _, body = _get(server.url + "/seriesz?name=resource:")
                resources = json.loads(body)["series"]
                _, _, body = _get(server.url + "/seriesz?name=gauge:")
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
        assert not server.timeseries.running

    def test_telemetry_can_opt_out_of_the_store(
            self, figure1_index):
        # series_interval=None drops the store, and with it the
        # resource budgets and /seriesz
        session = SearchSession(figure1_index)
        with SearchServer(session, series_interval=None) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/seriesz")
            assert excinfo.value.code == 404

    def test_flamez_serves_the_session_profiler(self, figure1_index):
        import time
        session = SearchSession(figure1_index)
        with SearchServer(session) as server:
            with session.profile_cpu(hz=500):
                deadline = time.monotonic() + 0.2
                while time.monotonic() < deadline:
                    session.search(Q1)
            _, _, body = _get(server.url + "/flamez")
            assert "repro" in body  # engine frames dominate

    def test_close_telemetry_removes_global_registry(self, figure1_index):
        from repro.obs import get_metrics, set_global_metrics
        session = SearchSession(figure1_index)
        with SearchServer(session):
            assert get_metrics().enabled
        assert not get_metrics().enabled
        # a registry that was global before the server is put back
        previous = MetricsRegistry()
        set_global_metrics(previous)
        try:
            with SearchServer(session):
                assert get_metrics() is not previous
            assert get_metrics() is previous
        finally:
            set_global_metrics(None)

    def test_explicit_registry_is_respected(self, figure1_index,
                                            metrics_off):
        registry = MetricsRegistry()
        registry.inc("results_emitted", 123)
        session = SearchSession(figure1_index)
        with SearchServer(session, registry=registry) as server:
            _, _, body = _get(server.url + "/metrics")
            assert "repro_results_emitted_total 123" in body


@pytest.fixture
def metrics_off():
    """Guard: these tests must not leak a process-global registry."""
    from repro.obs import get_metrics
    yield
    assert not get_metrics().enabled
