"""The live HTTP surface: routes, errors, overload, hot swap, and one
socket write per reply."""

from __future__ import annotations

import gc
import http.client
import json
import socket
import sys
import threading
import warnings

import pytest

from repro.obs.metrics import MetricsRegistry, set_global_metrics
from repro.obs.tracing import Tracer, set_global_tracer
from repro.runtime.options import SearchOptions
from repro.runtime.session import SearchSession
from repro.server import DELAY_ENV, SearchServer, wire

from tests.server.conftest import http_get, http_post

Q1 = "(XML keyword search (Paul Cooper) (Mary Davis))"


@pytest.fixture()
def server(store_path, open_session):
    session = open_session()
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

    def test_profilez_serves_a_slow_http_search(self, store_path,
                                                open_session):
        session = open_session()
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
    def test_queue_overflow_sheds_with_429(self, open_session,
                                           monkeypatch):
        monkeypatch.setenv(DELAY_ENV, "300")
        session = open_session()
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

    def test_timeout_is_504(self, open_session, monkeypatch):
        monkeypatch.setenv(DELAY_ENV, "500")
        session = open_session()
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
    def test_reload_under_load_drops_nothing(self, store_path, open_session):
        session = open_session()
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

    def test_reload_without_path_is_an_error(self, open_session):
        session = open_session()
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

    def test_serve_closes_its_store(self, store_path, monkeypatch):
        from repro.server import serve
        leaks = []
        monkeypatch.setattr(sys, "unraisablehook", leaks.append)
        stop = threading.Event()
        with warnings.catch_warnings():
            # a finalizer's ResourceWarning lands in unraisablehook
            warnings.simplefilter("error", ResourceWarning)
            runner = threading.Thread(
                target=serve, args=(str(store_path),),
                kwargs={"port": 0, "ready": lambda _: stop.set(),
                        "stop": stop})
            runner.start()
            runner.join(timeout=30)
            gc.collect()
        assert not runner.is_alive()
        assert [str(leak.exc_value) for leak in leaks] == []


class TestLifecycle:
    def test_close_restores_global_registry_and_tracer(self,
                                                       open_session):
        sentinel_registry = set_global_metrics(None)
        sentinel_tracer = set_global_tracer(None)
        try:
            session = open_session()
            server = SearchServer(session)
            server.close()
            server.close()  # idempotent
            assert set_global_metrics(None) is None
            assert set_global_tracer(None) is None
        finally:
            set_global_metrics(sentinel_registry)
            set_global_tracer(sentinel_tracer)

    @pytest.mark.parametrize("close_order", ["created", "reversed"])
    def test_globals_belong_to_the_newest_open_server(self, open_session,
                                                      close_order):
        before = (MetricsRegistry(), Tracer())
        saved = _install_globals(*before)
        try:
            servers = []
            for _ in range(2):
                owned = (MetricsRegistry(), Tracer())
                servers.append((SearchServer(
                    open_session(), registry=owned[0], tracer=owned[1],
                    series_interval=None), owned))
            assert _installed_globals() == servers[1][1]
            if close_order == "reversed":
                servers.reverse()
            (first, _), (second, remaining) = servers
            first.close()
            assert _installed_globals() == remaining
            second.close()
            assert _installed_globals() == before
        finally:
            _install_globals(*saved)

    def test_concurrent_servers_leave_the_globals_as_found(
            self, figure1_index):
        before = (MetricsRegistry(), Tracer())
        saved = _install_globals(*before)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def churn():
            for _ in range(3):
                SearchServer(SearchSession(figure1_index), slo=False,
                             flight=False, series_interval=None).close()

        try:
            threads = [threading.Thread(target=churn) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert _installed_globals() == before
        finally:
            sys.setswitchinterval(interval)
            _install_globals(*saved)

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


def _install_globals(registry, tracer) -> tuple:
    """Install a process-global registry and tracer; returns the
    previous pair."""
    return set_global_metrics(registry), set_global_tracer(tracer)


def _installed_globals() -> tuple:
    """The installed process-global (registry, tracer)."""
    installed = _install_globals(None, None)
    _install_globals(*installed)
    return installed


# -- one socket write per reply ----------------------------------------------

class _CountingWriter:
    """A handler's socket writer that records every write it makes."""

    def __init__(self, inner, writes: list):
        self._inner = inner
        self._writes = writes

    def write(self, data) -> int:
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(params=["serve", "telemetry"])
def counted(request, store_path, open_session, figure1_index,
            monkeypatch):
    """``(server, writes)``: a live server in the ``serve`` or the
    ``search --telemetry-port`` configuration, whose connections
    record each socket write into ``writes``, plus a ``/boom`` route
    whose handler fails."""
    if request.param == "serve":
        server = SearchServer(open_session(), index_path=store_path)
    else:
        server = SearchServer(SearchSession(figure1_index),
                              registry=MetricsRegistry())
    writes: list = []
    handler = server._httpd.RequestHandlerClass
    setup = handler.setup

    def counting_setup(self):
        setup(self)
        self.wfile = _CountingWriter(self.wfile, writes)

    monkeypatch.setattr(handler, "setup", counting_setup)

    def boom(params):
        raise RuntimeError("introspection bug")

    server._introspection.add("/boom", boom)
    with server:
        yield server, writes


def _raw_exchange(server, request: bytes) -> bytes:
    """Send raw request bytes; read until the server closes."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10.0) as conn:
        conn.sendall(request)
        received = b""
        while chunk := conn.recv(65536):
            received += chunk
        return received


class TestOneWritePerReply:
    CASES = [
        ("POST", "/search", {"query": Q1}, 200),
        ("POST", "/batch", {"queries": [Q1, "(XML search)"]}, 200),
        ("GET", "/explain?q=(XML%20search)", None, 200),
        ("POST", "/search", b"{not json", 400),
        ("POST", "/nope", {"x": 1}, 404),
        ("GET", "/nope", None, 404),
        ("POST", "/search", {"query": Q1}, 429),
        ("GET", "/boom", None, 500),
        ("GET", "/metrics", None, 200),
    ]

    def test_every_reply_is_one_write_with_unchanged_bytes(
            self, counted, monkeypatch):
        server, writes = counted
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10.0)
        try:
            conn.connect()
            sock = conn.sock
            for method, path, payload, status in self.CASES:
                if isinstance(payload, dict):
                    payload = json.dumps(payload).encode()
                before = len(writes)
                with monkeypatch.context() as patch:
                    if status == 429:  # the admission is full
                        patch.setattr(server._admission, "enter",
                                      lambda: False)
                    conn.request(method, path, body=payload)
                    response = conn.getresponse()
                    body = response.read()
                assert response.status == status, (path, body)
                assert conn.sock is sock  # one keep-alive connection
                (sent,) = writes[before:]
                names = [name for name, _ in response.getheaders()]
                extra = ["Retry-After"] if status == 429 else []
                assert names == ["Server", "Date", "Content-Type",
                                 "Content-Length", *extra]
                assert int(response.getheader("Content-Length")) \
                    == len(body) > 0
                head = f"HTTP/1.1 {status} {response.reason}\r\n" + \
                    "".join(f"{name}: {value}\r\n"
                            for name, value in response.getheaders())
                assert sent == head.encode("latin-1") + b"\r\n" + body
                if status == 429:
                    assert response.getheader("Retry-After") == "1"
                if response.getheader("Content-Type") \
                        == "application/json":
                    wire.validate_response(json.loads(body))
        finally:
            conn.close()


class TestStdlibErrors:
    def test_unsupported_method_is_a_wire_error_in_one_write(
            self, counted):
        server, writes = counted
        received = _raw_exchange(
            server, b"PUT /search HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 0\r\n\r\n")
        assert writes == [received]  # one write, then the close
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert b"\r\nConnection: close" in head
        assert f"Content-Length: {len(body)}".encode() in head
        error = json.loads(body)
        wire.validate_response(error)
        assert error["status"] == 501
        assert "PUT" in error["error"]

    def test_head_gets_a_bodiless_501(self, counted):
        server, writes = counted
        received = _raw_exchange(
            server, b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert writes == [received]
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert b"\r\nConnection: close" in head
        assert b"\r\nContent-Length: " in head
        assert body == b""

    def test_malformed_request_line_is_a_wire_error_in_one_write(
            self, counted):
        server, writes = counted
        received = _raw_exchange(server, b"GET / x HTTP/1.1\r\n\r\n")
        assert writes == [received]
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"\r\nConnection: close" in head
        error = json.loads(body)
        wire.validate_response(error)
        assert error["status"] == 400
        assert "Bad request syntax" in error["error"]

    @pytest.mark.parametrize("length", [b"-1", b"many"])
    def test_unframed_post_body_is_a_400_that_closes(self, counted,
                                                      length):
        server, writes = counted
        received = _raw_exchange(
            server, b"POST /search HTTP/1.1\r\nContent-Length: " +
            length + b'\r\n\r\n{"query": "(XML)"}')
        assert writes == [received]
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"\r\nConnection: close" in head
        error = json.loads(body)
        wire.validate_response(error)
        assert "Content-Length" in error["error"]
