"""Serving a session: the :class:`SearchServer` lifecycle around it.

The server is the one place that starts and stops the long-lived
pieces a served session needs (the HTTP surface, the time-series
store, the SLO engine, the flight recorder); the session itself keeps
no serving lifecycle of its own.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.obs.metrics import set_global_metrics
from repro.runtime.session import SearchSession
from repro.server import SearchServer

from tests.conftest import Q1


@pytest.fixture()
def session(figure1_index):
    return SearchSession(figure1_index)


def test_serving_telemetry_starts_endpoint_and_watchdog(session):
    # the resource watchdog is the time-series store's scrape
    previous = set_global_metrics(None)
    try:
        with SearchServer(session) as server:
            store = server.timeseries
            assert store is not None and store.running
            assert store.interval == 1.0
            session.search(Q1)
            with urllib.request.urlopen(server.url
                                        + "/healthz") as response:
                health = json.loads(response.read())
            assert health["keywords"] > 0
        assert not store.running
        assert session.flight_recorder is None
        # The server-owned process-global registry was removed.
        assert set_global_metrics(None) is None
    finally:
        set_global_metrics(previous)


def test_serving_watchdog_false_opts_out_of_telemetry_default(session):
    with SearchServer(session, series_interval=None) as server:
        assert server.timeseries is None
        with urllib.request.urlopen(server.url
                                    + "/healthz") as response:
            assert response.status == 200


@pytest.mark.parametrize("name", [
    "serve_telemetry", "close_telemetry", "start_watchdog",
    "stop_watchdog", "start_cpu_profiler", "stop_cpu_profiler",
    "serving", "console", "timeseries_store"])
def test_old_lifecycle_names_are_gone(session, name):
    assert not hasattr(session, name)


def test_serving_slow_query_log(session):
    log = session.configure_slow_query_log(0.0)
    with SearchServer(session):
        session.search(Q1)
        assert len(log.as_json()) == 1
    # The log handle survives the server for post-mortems.
    assert session.slow_query_log is log


def test_serving_leaves_caller_sink_attached(session, tmp_path):
    from repro.obs.export import JsonlSink
    sink = JsonlSink(tmp_path / "events.jsonl")
    session.attach_event_sink(sink)
    try:
        with SearchServer(session, sink=sink):
            pass
        # A caller-attached sink is neither detached nor closed.
        assert session._event_sink is sink
        session.search(Q1)
    finally:
        sink.close()
    assert (tmp_path / "events.jsonl").read_text().strip()


def test_serving_tears_down_when_body_raises(session):
    previous = set_global_metrics(None)
    try:
        with pytest.raises(RuntimeError):
            with SearchServer(session) as server:
                store = server.timeseries
                raise RuntimeError("boom")
        assert not store.running
        assert session.flight_recorder is None
        assert set_global_metrics(None) is None
    finally:
        set_global_metrics(previous)
