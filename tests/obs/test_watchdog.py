"""The resource watchdog inside the time-series store: process probes,
republished gauges and soft budgets, checked on every scrape."""

import sys
import time
import tracemalloc

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (BUDGET_KEYS, WATCHDOG_GAUGES,
                                  TimeSeriesStore, current_rss_bytes,
                                  open_fd_count, probe_process)

RESOURCE_SERIES = ("resource:rss_bytes", "resource:open_fds",
                   "resource:threads")


class _RecordingSink:
    def __init__(self):
        self.events = []

    def emit(self, kind, payload):
        self.events.append((kind, payload))


class _RecordingFlight:
    def __init__(self):
        self.reasons = []

    def trigger(self, reason):
        self.reasons.append(reason)


def _store(**kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("detector", False)
    return TimeSeriesStore(**kwargs)


class TestProbes:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="/proc probes are Linux-only")
    def test_current_rss_bytes_is_plausible(self):
        rss = current_rss_bytes()
        assert isinstance(rss, int)
        assert rss > 1024 * 1024  # a CPython process is > 1 MiB

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="/proc probes are Linux-only")
    def test_open_fd_count_is_positive(self):
        fds = open_fd_count()
        assert isinstance(fds, int)
        assert fds > 0


class TestConstruction:
    def test_rejects_bad_interval_and_capacity(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(interval=0)
        with pytest.raises(ValueError):
            TimeSeriesStore(interval=-1)
        with pytest.raises(ValueError):
            TimeSeriesStore(capacity={"raw": 0})

    def test_rejects_unknown_budget_keys(self):
        with pytest.raises(ValueError, match="max_rss_gb"):
            TimeSeriesStore(budgets={"max_rss_gb": 1})
        # every built-in key and the gauge:<name> form are accepted
        TimeSeriesStore(budgets=dict.fromkeys(BUDGET_KEYS, 1))
        TimeSeriesStore(budgets={"gauge:plan_cache_entries": 1})


class TestSnapshots:
    def test_snap_shape(self):
        process = probe_process()
        assert tuple(process) == ("rss_bytes", "open_fds", "threads",
                                  "tracemalloc_peak_bytes")
        assert process["threads"] >= 1
        store = _store()
        store.scrape(now=1.0)
        assert store.scrapes == 1
        for name in RESOURCE_SERIES:
            if name != "resource:threads" and \
                    not sys.platform.startswith("linux"):
                continue
            (point,) = store.series(name)
            assert point["start"] == 1.0 and point["count"] == 1

    def test_snap_republishes_process_gauges(self):
        registry = MetricsRegistry()
        store = _store(registry=registry)
        store.scrape(now=1.0)
        for field, gauge in (("rss_bytes", "process_rss_bytes"),
                             ("open_fds", "process_open_fds"),
                             ("threads", "process_threads")):
            assert gauge in WATCHDOG_GAUGES
            points = store.series(f"resource:{field}")
            if points:
                # the registry gauge and the resource series carry the
                # same reading of one probe
                assert registry.gauge(gauge) == points[-1]["last"]
                assert store.series(f"gauge:{gauge}")[-1]["last"] == \
                    points[-1]["last"]

    def test_snap_captures_registry_gauges(self):
        registry = MetricsRegistry()
        registry.gauge_set("plan_cache_entries", 7)
        store = _store(registry=registry)
        store.scrape(now=1.0)
        assert store.series("gauge:plan_cache_entries")[-1]["last"] == 7

    def test_tracemalloc_peak_none_unless_tracing(self):
        registry = MetricsRegistry()
        store = _store(registry=registry)
        assert probe_process()["tracemalloc_peak_bytes"] is None
        store.scrape(now=1.0)
        assert "tracemalloc_peak_bytes" not in registry.gauges
        tracemalloc.start()
        try:
            store.scrape(now=2.0)
            peak = registry.gauge("tracemalloc_peak_bytes")
        finally:
            tracemalloc.stop()
        assert isinstance(peak, int) and peak > 0

    def test_ring_keeps_newest_but_counts_lifetime(self):
        store = _store(capacity={"raw": 3})
        for step in range(5):
            store.scrape(now=float(step))
        points = store.series("resource:threads")
        assert [point["start"] for point in points] == [2.0, 3.0, 4.0]
        assert store.scrapes == 5

    def test_null_metrics_snapshot_has_no_gauges(self):
        # default registry resolution reaches NULL_METRICS here
        store = TimeSeriesStore(detector=False)
        store.scrape(now=1.0)
        assert not any(name.startswith("gauge:")
                       for name in store.names())
        assert "resource:threads" in store.names()


class TestBudgets:
    def test_rss_budget_breach_is_recorded_counted_and_emitted(self):
        if current_rss_bytes() is None:
            pytest.skip("no RSS probe on this platform")
        registry = MetricsRegistry()
        sink = _RecordingSink()
        flight = _RecordingFlight()
        store = _store(budgets={"max_rss_mb": 0.001},
                       registry=registry, sink=sink, flight=flight)
        store.scrape(now=5.0)
        assert registry.counters["watchdog_breaches"] == 1
        ((kind, breach),) = sink.events
        assert kind == "resource_breach"
        assert breach["timestamp"] == 5.0
        assert breach["budget"] == "max_rss_mb"
        assert breach["limit"] == 0.001
        assert breach["value"] > 0.001
        assert flight.reasons == ["watchdog_breach"]

    def test_within_budget_records_nothing(self):
        registry = MetricsRegistry()
        sink = _RecordingSink()
        store = _store(budgets={"max_rss_mb": 1 << 20,
                                "max_threads": 10_000},
                       registry=registry, sink=sink)
        store.scrape(now=1.0)
        assert "watchdog_breaches" not in registry.counters
        assert sink.events == []

    def test_gauge_budget_targets_a_named_gauge(self):
        registry = MetricsRegistry()
        registry.gauge_set("plan_cache_entries", 9)
        sink = _RecordingSink()
        store = _store(budgets={"gauge:plan_cache_entries": 5},
                       registry=registry, sink=sink)
        store.scrape(now=1.0)
        assert registry.counters["watchdog_breaches"] == 1
        ((_, breach),) = sink.events
        assert breach["budget"] == "gauge:plan_cache_entries"
        assert breach["value"] == 9

    def test_max_cache_bytes_sums_cache_byte_gauges(self):
        registry = MetricsRegistry()
        registry.gauge_set("plan_cache_bytes", 600)
        registry.gauge_set("posting_cache_bytes", 500)
        registry.gauge_set("plan_cache_entries", 999_999)  # not summed
        sink = _RecordingSink()
        store = _store(budgets={"max_cache_bytes": 1000},
                       registry=registry, sink=sink)
        store.scrape(now=1.0)
        ((_, breach),) = sink.events
        assert breach["value"] == 1100

    def test_missing_gauge_budget_never_breaches(self):
        registry = MetricsRegistry()
        sink = _RecordingSink()
        store = _store(budgets={"gauge:absent": 1}, registry=registry,
                       sink=sink)
        store.scrape(now=1.0)
        assert sink.events == []
        assert "watchdog_breaches" not in registry.counters


class TestLifecycle:
    def test_background_sampling_accumulates(self):
        store = _store(interval=0.01)
        with store:
            assert store.running
            deadline = time.monotonic() + 2.0
            while store.scrapes < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not store.running
        assert store.scrapes >= 3  # immediate scrape + periodic ones
        assert len(store.series("resource:threads")) == store.scrapes

    def test_start_and_stop_are_idempotent(self):
        store = _store(interval=0.01)
        assert store.start() is store
        assert store.start() is store
        store.stop()
        store.stop()
        assert not store.running

    def test_as_json_document(self):
        registry = MetricsRegistry()
        registry.gauge_set("plan_cache_entries", 1)
        store = _store(registry=registry)
        store.scrape(now=1.0)
        document = store.as_json(now=1.0, name="resource:")
        assert set(document["series"]) <= set(RESOURCE_SERIES)
        assert "resource:threads" in document["series"]
        assert all(entry["kind"] == "level"
                   for entry in document["series"].values())
