"""The time-series store: downsampling, bounds, anomaly wiring."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (ANOMALY_EVENT_FIELDS, BUCKET_BYTES,
                                  DEFAULT_CAPACITY, SERIES_FIELDS,
                                  AnomalyDetector, TimeSeriesStore,
                                  counter_rates)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def tick(self, seconds=1.0):
        self.now += seconds
        return self.now


def _store(clock=None, **kwargs):
    kwargs.setdefault("detector", False)
    return TimeSeriesStore(1.0, clock=clock or FakeClock(), **kwargs)


class TestCounterRates:
    def test_rates_are_deltas_per_second(self):
        rates = counter_rates({"a": 10, "b": 4}, {"a": 4}, 2.0)
        assert rates == {"a": 3.0, "b": 2.0}

    def test_negative_deltas_are_dropped(self):
        assert counter_rates({"a": 1}, {"a": 5}, 1.0) == {}

    def test_zero_elapsed_yields_nothing(self):
        assert counter_rates({"a": 1}, {}, 0.0) == {}


class TestScrape:
    def test_counters_become_rates_only_after_two_scrapes(self):
        registry = MetricsRegistry()
        registry.inc("hits", 5)
        clock = FakeClock()
        store = _store(clock, registry=registry)
        store.scrape()
        assert "counter:hits" not in store.names()
        registry.inc("hits", 3)
        clock.tick(2.0)
        store.scrape()
        [bucket] = store.series("counter:hits")
        assert bucket["last"] == pytest.approx(1.5)  # 3 over 2 s

    def test_gauges_and_histogram_quantiles_are_levels(self):
        registry = MetricsRegistry()
        registry.gauge_set("inflight", 7)
        for value in (0.01, 0.02, 0.03):
            registry.observe("search_seconds", value)
        store = _store(registry=registry)
        store.scrape()
        assert store.series("gauge:inflight")[0]["last"] == 7.0
        names = store.names()
        assert "hist:search_seconds:p50" in names
        assert "hist:search_seconds:p99" in names

    def test_resource_probes_record_when_enabled(self):
        store = TimeSeriesStore(1.0, clock=FakeClock(),
                                registry=MetricsRegistry(),
                                detector=False)
        store.scrape()
        assert "resource:threads" in store.names()

    def test_each_scrape_writes_one_point_per_resource_series(self):
        clock = FakeClock(now=1000.0)
        store = _store(clock)
        for _ in range(3):
            store.scrape()
            clock.tick(1.0)
        points = store.series("resource:threads")
        assert [point["start"] for point in points] == \
            [1000.0, 1001.0, 1002.0]
        assert all(point["count"] == 1 for point in points)

    def test_scrape_loop_runs_on_a_daemon_thread(self):
        store = TimeSeriesStore(0.01, registry=MetricsRegistry(),
                                detector=False)
        with store:
            assert store.running
            thread = store._thread
            assert thread.daemon
            assert thread.name == "repro-timeseries"
        assert not store.running
        assert store.scrapes >= 1


class TestDownsampling:
    def test_coarse_buckets_carry_count_min_max_mean_last(self):
        clock = FakeClock(now=100.0)
        store = _store(clock)
        for value in (2.0, 8.0, 5.0):
            store.record("gauge:x", value)
            clock.tick(1.0)
        [bucket] = store.series("gauge:x", resolution="10s")
        assert bucket["start"] == 100.0
        assert bucket["count"] == 3
        assert bucket["min"] == 2.0
        assert bucket["max"] == 8.0
        assert bucket["mean"] == pytest.approx(5.0)
        assert bucket["last"] == 5.0

    def test_samples_split_into_aligned_buckets(self):
        clock = FakeClock(now=95.0)
        store = _store(clock)
        for _ in range(10):  # 95..104 spans the 90 and 100 buckets
            store.record("gauge:x", 1.0)
            clock.tick(1.0)
        tens = store.series("gauge:x", resolution="10s")
        assert [bucket["start"] for bucket in tens] == [90.0, 100.0]
        assert [bucket["count"] for bucket in tens] == [5, 5]
        minutes = store.series("gauge:x", resolution="1m")
        assert [bucket["start"] for bucket in minutes] == [60.0]
        assert minutes[0]["count"] == 10
        assert len(store.series("gauge:x")) == 10  # raw: one each

    def test_stale_samples_keep_coarse_rings_monotonic(self):
        store = _store()
        store.record("gauge:x", 1.0, now=100.0)
        store.record("gauge:x", 9.0, now=50.0)  # clock skew
        [bucket] = store.series("gauge:x", resolution="10s")
        assert bucket["start"] == 100.0
        assert bucket["count"] == 1
        assert len(store.series("gauge:x")) == 2  # raw keeps both

    def test_window_filters_old_buckets(self):
        clock = FakeClock(now=0.0)
        store = _store(clock)
        for _ in range(120):
            store.record("gauge:x", 1.0)
            clock.tick(1.0)
        recent = store.series("gauge:x", window=10.0)
        assert len(recent) == 10
        assert all(bucket["start"] >= clock.now - 10.0
                   for bucket in recent)


class TestBounds:
    def test_rings_evict_under_long_runs(self):
        clock = FakeClock(now=0.0)
        store = _store(clock, capacity={"raw": 20, "10s": 5, "1m": 3})
        for _ in range(1000):
            store.record("gauge:x", 1.0)
            clock.tick(1.0)
        assert len(store.series("gauge:x")) == 20
        assert len(store.series("gauge:x", resolution="10s")) == 5
        assert len(store.series("gauge:x", resolution="1m")) == 3
        # evicted oldest first: the newest buckets survive
        assert store.series("gauge:x")[-1]["start"] == 999.0

    def test_max_series_drops_excess_names(self):
        store = _store(max_series=2)
        assert store.record("gauge:a", 1.0) == 1
        assert store.record("gauge:b", 1.0) == 1
        assert store.record("gauge:c", 1.0) == 0
        assert store.dropped == 1
        assert len(store) == 2
        assert store.as_json(now=0.0)["dropped"] == 1

    def test_memory_bound_formula_and_real_footprint(self):
        capacity = {"raw": 30, "10s": 10, "1m": 5}
        clock = FakeClock(now=0.0)
        store = _store(clock, capacity=capacity, max_series=8)
        bound = store.memory_bound()
        assert bound == (8 * 45 + 256) * BUCKET_BYTES
        for _ in range(500):  # saturate every ring of every series
            for index in range(8):
                store.record(f"gauge:g{index}", float(index))
            clock.tick(1.0)
        retained = sum(
            sys.getsizeof(bucket) +
            sum(sys.getsizeof(slot) for slot in bucket)
            for series in store._series.values()
            for ring in series.rings.values()
            for bucket in ring)
        assert retained <= bound

    def test_default_capacity_is_the_documented_shape(self):
        assert DEFAULT_CAPACITY == {"raw": 300, "10s": 180, "1m": 120}
        store = _store()
        assert store.memory_bound() == \
            (512 * 600 + 256) * BUCKET_BYTES

    def test_capacity_overrides_are_validated(self):
        with pytest.raises(ValueError):
            _store(capacity={"hourly": 10})
        with pytest.raises(ValueError):
            _store(capacity={"raw": 0})
        with pytest.raises(ValueError):
            TimeSeriesStore(0.0)


class TestDocument:
    def test_as_json_is_deterministic_and_catalogued(self):
        registry = MetricsRegistry()
        registry.gauge_set("inflight", 1)
        clock = FakeClock()
        store = _store(clock, registry=registry)
        store.scrape()
        document = store.as_json()
        assert tuple(document) == SERIES_FIELDS
        assert document["schema"] == 1
        assert document["generated_at"] == clock.now
        assert json.dumps(document, sort_keys=True) == \
            json.dumps(store.as_json(), sort_keys=True)

    def test_name_window_resolution_filters(self):
        clock = FakeClock(now=0.0)
        store = _store(clock)
        for _ in range(30):
            store.record("gauge:a", 1.0)
            store.record("gauge:b", 2.0)
            clock.tick(1.0)
        only_a = store.as_json(name="gauge:a")
        assert list(only_a["series"]) == ["gauge:a"]
        coarse = store.as_json(resolution="1m")
        assert list(coarse["series"]["gauge:a"]["points"]) == ["1m"]
        recent = store.as_json(window=5.0)
        for entry in recent["series"].values():
            for buckets in entry["points"].values():
                assert all(bucket["start"] >= clock.now - 5.0
                           for bucket in buckets)
        assert store.as_json(name="gauge:zzz")["series"] == {}
        with pytest.raises(ValueError):
            store.as_json(resolution="hourly")

    def test_series_kinds_distinguish_rates_from_levels(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.gauge_set("level", 1)
        clock = FakeClock()
        store = _store(clock, registry=registry)
        store.scrape()
        clock.tick(1.0)
        registry.inc("hits")
        store.scrape()
        document = store.as_json()
        assert document["series"]["counter:hits"]["kind"] == "rate"
        assert document["series"]["gauge:level"]["kind"] == "level"


class TestAnomalyDetector:
    def test_cold_start_never_fires(self):
        detector = AnomalyDetector(min_samples=30)
        for _ in range(29):
            assert detector.check("s", 1.0) is None
        assert detector.check("s", 1e9) is None  # 30th sample trains
        assert detector.flagged == 0

    def test_outlier_fires_after_warmup(self):
        detector = AnomalyDetector(min_samples=10)
        for index in range(20):
            assert detector.check("s", float(index % 3)) is None
        finding = detector.check("s", 1000.0)
        assert finding is not None
        assert abs(finding["score"]) >= detector.threshold
        assert detector.flagged == 1

    def test_flat_window_flags_any_departure(self):
        detector = AnomalyDetector(min_samples=5)
        for _ in range(10):
            detector.check("s", 4.0)
        assert detector.check("s", 4.0) is None
        finding = detector.check("s", 5.0)
        assert finding is not None

    def test_series_are_independent(self):
        detector = AnomalyDetector(min_samples=5)
        for _ in range(10):
            detector.check("a", 1.0)
        assert detector.check("b", 1000.0) is None  # b is cold

    def test_parameters_are_validated(self):
        with pytest.raises(ValueError):
            AnomalyDetector(alpha=0.0)
        with pytest.raises(ValueError):
            AnomalyDetector(threshold=0.0)
        with pytest.raises(ValueError):
            AnomalyDetector(min_samples=1)


class _Sink:
    def __init__(self):
        self.events = []

    def emit(self, kind, payload):
        self.events.append((kind, payload))


class _Flight:
    def __init__(self):
        self.reasons = []

    def trigger(self, reason):
        self.reasons.append(reason)


class TestAnomalyWiring:
    def _flagging_store(self):
        registry = MetricsRegistry()
        sink = _Sink()
        flight = _Flight()
        store = TimeSeriesStore(
            1.0, clock=FakeClock(), registry=registry,
            detector=AnomalyDetector(min_samples=5),
            sink=sink, flight=flight)
        for _ in range(10):
            store.record("gauge:x", 2.0)
        store.record("gauge:x", 500.0)
        return registry, sink, flight, store

    def test_anomaly_counts_emits_and_triggers(self):
        registry, sink, flight, store = self._flagging_store()
        assert registry.counters["timeseries_anomalies"] == 1
        [(kind, payload)] = sink.events
        assert kind == "series_anomaly"
        assert tuple(sorted(payload)) == tuple(sorted(
            ANOMALY_EVENT_FIELDS))
        assert payload["series"] == "gauge:x"
        assert payload["value"] == 500.0
        assert flight.reasons == ["series_anomaly"]

    def test_anomalous_buckets_are_marked_at_every_resolution(self):
        _, _, _, store = self._flagging_store()
        assert store.series("gauge:x")[-1]["anomaly"] is True
        assert store.series("gauge:x", resolution="10s")[-1]["anomaly"] \
            is True
        [anomaly] = store.anomalies()
        assert anomaly["series"] == "gauge:x"
        assert store.as_json()["anomalies"] == [anomaly]

    def test_anomaly_ring_is_bounded(self):
        store = TimeSeriesStore(
            1.0, clock=FakeClock(), registry=MetricsRegistry(),
            detector=AnomalyDetector(min_samples=2, window=4),
            anomaly_capacity=3)
        for _ in range(6):
            store.record("gauge:x", 1.0)
        for step in range(10):  # alternate far-off values keep firing
            store.record("gauge:x", 1000.0 * (step + 1))
            for _ in range(6):
                store.record("gauge:x", 1.0)
        assert len(store.anomalies()) <= 3

    def test_detector_check_is_thread_safe(self):
        detector = AnomalyDetector(min_samples=2)
        errors = []

        def feed():
            try:
                for index in range(500):
                    detector.check("shared", float(index % 7))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=feed) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestReportRates:
    def test_format_report_appends_counter_rates(self):
        from repro.obs.report import format_report
        previous = {"counters": {"hits": 10}}
        snapshot = {"counters": {"hits": 30, "born": 4}}
        report = format_report(snapshot, previous=previous,
                               interval=2.0)
        assert "(+10.0/s)" in report   # (30 - 10) / 2
        assert "(+2.0/s)" in report    # born mid-window: 4 / 2

    def test_format_report_without_previous_is_unchanged(self):
        from repro.obs.report import format_report
        report = format_report({"counters": {"hits": 3}})
        assert "/s)" not in report
