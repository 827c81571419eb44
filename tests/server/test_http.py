"""The live HTTP surface: routes, errors, overload, hot swap."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import set_global_metrics
from repro.obs.tracing import set_global_tracer
from repro.runtime.options import SearchOptions
from repro.runtime.session import SearchSession
from repro.server import DELAY_ENV, SearchServer, wire

from tests.server.conftest import http_get, http_post

Q1 = "(XML keyword search (Paul Cooper) (Mary Davis))"


@pytest.fixture()
def server(store_path):
    session = SearchSession.from_store(store_path)
    with SearchServer(session, index_path=store_path) as live:
        yield live


class TestRoutes:
    @pytest.mark.parametrize("query", [Q1, "(XML search)", "(Mary Davis)"])
    def test_search_validates_against_schema(self, server, query):
        status, body, _ = http_post(server.url + "/search",
                                    {"query": query})
        assert status == 200
        wire.validate_response(body)
        assert body["schema"] == wire.WIRE_SCHEMA_VERSION
        assert body["result_count"] == len(body["results"]) > 0

    def test_search_matches_in_process_session(self, server):
        status, body, _ = http_post(server.url + "/search",
                                    {"query": Q1})
        assert status == 200
        expected = [wire.result_to_wire(row)
                    for row in server.session.search(Q1)]
        assert body["results"] == expected

    def test_search_honours_options(self, server):
        status, body, _ = http_post(
            server.url + "/search",
            {"query": "(XML search)",
             "options": {"algorithm": "slca"}})
        assert status == 200
        wire.validate_response(body)
        assert body["options"]["algorithm"] == "slca"

    def test_batch(self, server):
        status, body, _ = http_post(
            server.url + "/batch",
            {"queries": [Q1, "(XML search)"]})
        assert status == 200
        wire.validate_response(body)
        assert len(body["answers"]) == 2
        assert body["result_count"] == sum(
            len(answer) for answer in body["answers"])

    def test_explain(self, server):
        status, body = http_get(
            server.url + "/explain?q=(XML%20search)&algorithm=slca")
        assert status == 200
        wire.validate_response(body)
        assert body["profile"]["query"] == "(XML search)"

    def test_healthz(self, server):
        status, body = http_get(server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["inflight"] == 0
        assert body["capacity"] == server.workers + server.queue_limit
        assert body["index_swaps"] == 0
        assert body["keywords"] > 0
        assert "plan_cache" in body["caches"]
        assert "slow_queries" not in body  # no slow-query log

    def test_profilez_serves_a_slow_http_search(self, store_path):
        session = SearchSession.from_store(store_path)
        session.configure_slow_query_log(0.0)
        with SearchServer(session, index_path=store_path) as server:
            status, _, _ = http_post(server.url + "/search",
                                     {"query": Q1})
            assert status == 200
            status, profiles = http_get(server.url + "/profilez")
            assert status == 200
            (profile,) = profiles
            assert profile["schema"] == 1
            assert profile["query"] == Q1
            status, health = http_get(server.url + "/healthz")
            assert health["slow_queries"] == {
                "threshold_seconds": 0.0, "recorded": 1, "retained": 1}

    def test_metrics_and_tracez_see_requests(self, server):
        http_post(server.url + "/search", {"query": Q1})
        status, exposition = http_get(server.url + "/metrics")
        assert status == 200
        assert "repro_server_requests_total 1" in exposition
        assert "repro_server_inflight_requests 0" in exposition
        status, traces = http_get(server.url + "/tracez")
        assert status == 200
        assert any("search" in (trace["root"] or "")
                   for trace in traces)


class TestErrors:
    def test_unknown_routes_are_404(self, server):
        status, body = http_get(server.url + "/nope")
        assert status == 404
        wire.validate_response(body)
        status, body, _ = http_post(server.url + "/nope", {"x": 1})
        assert status == 404

    @pytest.mark.parametrize("raw", [
        b"{not json",
        b'{"query": "(XML)", "surprise": 1}',
        b'{"query": ""}',
        b'{"query": "(XML)", "options": {"algorithm": "quantum"}}',
    ])
    def test_bad_requests_are_400(self, server, raw):
        status, body, _ = http_post(server.url + "/search", {},
                                    raw=raw)
        assert status == 400
        wire.validate_response(body)
        assert body["status"] == 400

    def test_unbalanced_query_is_400(self, server):
        status, body, _ = http_post(server.url + "/search",
                                    {"query": "((XML)"})
        assert status == 400
        assert "error" in body

    def test_explain_without_query_is_400(self, server):
        status, body = http_get(server.url + "/explain")
        assert status == 400
        assert "q" in body["error"]


class TestOverload:
    def test_queue_overflow_sheds_with_429(self, store_path,
                                           monkeypatch):
        monkeypatch.setenv(DELAY_ENV, "300")
        session = SearchSession.from_store(store_path)
        with SearchServer(session, workers=1, queue_limit=0) as server:
            statuses, headers = [], []
            lock = threading.Lock()

            def fire():
                status, _, hdrs = http_post(server.url + "/search",
                                            {"query": Q1})
                with lock:
                    statuses.append(status)
                    headers.append(hdrs)

            threads = [threading.Thread(target=fire)
                       for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses.count(429) >= 1
            assert statuses.count(200) >= 1
            retry = [hdrs.get("Retry-After")
                     for status, hdrs in zip(statuses, headers)
                     if status == 429]
            assert all(value == "1" for value in retry)
            # The server sheds load but keeps serving afterwards.
            monkeypatch.delenv(DELAY_ENV)
            status, body, _ = http_post(server.url + "/search",
                                        {"query": Q1})
            assert status == 200
            wire.validate_response(body)
            status, health = http_get(server.url + "/healthz")
            assert health["inflight"] == 0

    def test_timeout_is_504(self, store_path, monkeypatch):
        monkeypatch.setenv(DELAY_ENV, "500")
        session = SearchSession.from_store(store_path)
        with SearchServer(session) as server:
            status, body, _ = http_post(
                server.url + "/search",
                {"query": Q1, "timeout_seconds": 0.05})
            assert status == 504
            wire.validate_response(body)
            monkeypatch.delenv(DELAY_ENV)
            status, _, _ = http_post(server.url + "/search",
                                     {"query": Q1})
            assert status == 200


class TestHotSwap:
    def test_reload_under_load_drops_nothing(self, store_path):
        session = SearchSession.from_store(store_path)
        with SearchServer(session, index_path=store_path,
                          workers=4, queue_limit=32) as server:
            baseline = server.session.search(Q1)
            expected = [wire.result_to_wire(row) for row in baseline]
            failures, lock = [], threading.Lock()
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    status, body, _ = http_post(
                        server.url + "/search", {"query": Q1})
                    if status != 200 or body["results"] != expected:
                        with lock:
                            failures.append((status, body))
                        return

            threads = [threading.Thread(target=hammer)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            swaps = 0
            for _ in range(8):
                swaps = server.reload()
            stop.set()
            for thread in threads:
                thread.join()
            assert failures == []
            assert swaps == 8
            status, health = http_get(server.url + "/healthz")
            assert health["index_swaps"] == 8
            # Post-swap results are byte-identical to the baseline.
            status, body, _ = http_post(server.url + "/search",
                                        {"query": Q1})
            assert status == 200 and body["results"] == expected

    def test_reload_without_path_is_an_error(self, store_path):
        session = SearchSession.from_store(store_path)
        with SearchServer(session) as server:
            with pytest.raises(Exception, match="index_path"):
                server.reload()


class TestServeEntryPoint:
    def test_serve_runs_until_stop(self, store_path, capsys):
        from repro.server import serve
        stop = threading.Event()
        seen = {}

        def ready(server):
            seen["url"] = server.url
            status, body, _ = http_post(server.url + "/search",
                                        {"query": Q1})
            seen["status"] = status
            seen["results"] = body["result_count"]
            stop.set()

        runner = threading.Thread(
            target=serve,
            args=(str(store_path),),
            kwargs={"port": 0, "workers": 2, "queue_limit": 2,
                    "ready": ready, "stop": stop})
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert seen["status"] == 200 and seen["results"] > 0
        assert "serving on " + seen["url"] in capsys.readouterr().out


class TestLifecycle:
    def test_close_restores_global_registry_and_tracer(self,
                                                       store_path):
        sentinel_registry = set_global_metrics(None)
        sentinel_tracer = set_global_tracer(None)
        try:
            session = SearchSession.from_store(store_path)
            server = SearchServer(session)
            server.close()
            server.close()  # idempotent
            assert set_global_metrics(None) is None
            assert set_global_tracer(None) is None
        finally:
            set_global_metrics(sentinel_registry)
            set_global_tracer(sentinel_tracer)

    def test_explain_options_reach_the_profiler(self, server):
        status, body = http_get(
            server.url + "/explain?q=(XML%20search)&top_k=2")
        assert status == 200
        assert body["profile"]["options"]["top_k"] == 2

    def test_default_options_round_trip_on_the_wire(self, server):
        status, body, _ = http_post(server.url + "/search",
                                    {"query": Q1})
        assert SearchOptions.from_dict(body["options"]) \
            == SearchOptions()
