"""The ``serving()`` lifecycle context."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.index.inverted import InvertedIndex
from repro.obs.metrics import MetricsRegistry, set_global_metrics
from repro.runtime.session import SearchSession, ServingHandles

from tests.conftest import Q1


@pytest.fixture()
def session(figure1_index):
    return SearchSession(figure1_index)


def test_serving_defaults_start_nothing(session):
    with session.serving() as run:
        assert isinstance(run, ServingHandles)
        assert run.telemetry is None
        assert run.timeseries is None
        assert run.profiler is None
        assert run.slow_log is None
        assert run.sink is None
        assert session.search(Q1)


def test_serving_telemetry_starts_endpoint_and_watchdog(session):
    # the resource watchdog is the time-series store's scrape
    previous = set_global_metrics(None)
    try:
        with session.serving(telemetry=True) as run:
            assert run.telemetry is not None
            assert run.timeseries is not None and run.timeseries.running
            assert run.timeseries.interval == 1.0
            session.search(Q1)
            with urllib.request.urlopen(run.telemetry.url
                                        + "/healthz") as response:
                health = json.loads(response.read())
            assert health["keywords"] > 0
        assert session._telemetry is None
        assert session._timeseries is None
        # The serving-owned process-global registry was removed.
        assert set_global_metrics(None) is None
    finally:
        set_global_metrics(previous)


def test_serving_watchdog_alone(session):
    registry = MetricsRegistry()
    with session.serving(timeseries=0.05, registry=registry) as run:
        assert run.telemetry is None
        assert run.timeseries.running
        assert run.timeseries._registry is registry
    assert session._timeseries is None


def test_serving_watchdog_dict_options(session):
    budgets = {"max_rss_mb": 10**6}
    with session.serving(timeseries={"interval": 0.05,
                                     "budgets": budgets}) as run:
        assert run.timeseries.running
        assert run.timeseries.budgets == budgets


def test_serving_watchdog_false_opts_out_of_telemetry_default(session):
    with session.serving(telemetry=True, timeseries=False) as run:
        assert run.telemetry is not None
        assert run.timeseries is None
        with urllib.request.urlopen(run.telemetry.url
                                    + "/healthz") as response:
            assert response.status == 200


@pytest.mark.parametrize("name", [
    "serve_telemetry", "close_telemetry", "start_watchdog",
    "stop_watchdog", "start_cpu_profiler", "stop_cpu_profiler"])
def test_old_lifecycle_names_are_gone(session, name):
    assert not hasattr(session, name)


def test_serving_no_longer_takes_a_watchdog(session):
    with pytest.raises(TypeError):
        with session.serving(watchdog=1.0):
            pass


def test_serving_cpu_profiler(session):
    with session.serving(cpu_profiler=True) as run:
        assert run.profiler is not None and run.profiler.running
    assert session._profiler is None


def test_serving_slow_query_log(session):
    with session.serving(slow_query_log=0.0) as run:
        session.search(Q1)
        assert len(run.slow_log.as_json()) == 1
    # The log handle survives the block for post-mortems.
    assert session.slow_query_log is run.slow_log


def test_serving_slow_query_log_tuple(session):
    with session.serving(slow_query_log=(0.0, 7)) as run:
        assert run.slow_log.capacity == 7


def test_serving_owns_path_event_sink(session, tmp_path):
    path = tmp_path / "events.jsonl"
    with session.serving(events=path) as run:
        assert run.sink is not None
        session.search(Q1)
    assert session._event_sink is None
    events = [json.loads(line)
              for line in path.read_text().splitlines()]
    assert any(event["event"] == "query" and event["query"] == Q1
               for event in events)


def test_serving_leaves_caller_sink_attached(session, tmp_path):
    from repro.obs.export import JsonlSink
    sink = JsonlSink(tmp_path / "events.jsonl")
    try:
        with session.serving(events=sink) as run:
            assert run.sink is sink
        # A caller-owned sink is neither detached nor closed.
        assert session._event_sink is sink
        session.search(Q1)
    finally:
        sink.close()
    assert (tmp_path / "events.jsonl").read_text().strip()


def test_serving_tears_down_when_body_raises(session):
    with pytest.raises(RuntimeError):
        with session.serving(telemetry=True, cpu_profiler=True):
            raise RuntimeError("boom")
    assert session._telemetry is None
    assert session._timeseries is None
    assert session._profiler is None
