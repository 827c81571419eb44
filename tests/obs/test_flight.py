"""The flight recorder: bundles, triggers, throttling, persistence."""

import json

import pytest

from repro.obs import (FLIGHT_BUNDLE_FIELDS, FLIGHT_REASONS,
                       FLIGHT_SCHEMA_VERSION, FlightRecorder,
                       MetricsRegistry, SLOEngine, TimeSeriesStore,
                       wide_event)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def _recorder(clock, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("traces_provider", list)
    return FlightRecorder(capacity=8, clock=clock, **kwargs)


class TestBundle:
    def test_bundle_matches_the_published_catalogue(self):
        bundle = _recorder(FakeClock()).bundle()
        assert tuple(bundle) == FLIGHT_BUNDLE_FIELDS
        assert bundle["schema"] == FLIGHT_SCHEMA_VERSION
        assert bundle["reason"] == "on_demand"
        assert bundle["reason"] in FLIGHT_REASONS
        assert bundle["slo"] is None
        assert bundle["gauge_snapshots"] == {}  # no store attached
        assert bundle["dumped"] == 0

    def test_bundle_is_pure_and_deterministic(self):
        """Two bundles under a frozen clock are identical and move no
        state — the byte-for-byte contract behind ``/debugz``."""
        clock = FakeClock()
        recorder = _recorder(clock)
        recorder.record(wide_event("query", "search", timestamp=1.0))
        first = json.dumps(recorder.bundle(), sort_keys=True)
        second = json.dumps(recorder.bundle(), sort_keys=True)
        assert first == second
        assert recorder.dumped == 0
        assert recorder._metrics().counter("flight_dumps") == 0

    def test_bundle_carries_events_gauges_counters_and_slo(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        registry.inc("results_emitted", 3)
        registry.gauge_set("inflight", 2)
        engine = SLOEngine(["availability 99.9%"], clock=clock,
                           registry=registry)
        store = TimeSeriesStore(clock=clock, registry=registry,
                                detector=False)
        recorder = _recorder(clock, registry=registry, slo=engine)
        recorder.timeseries = store
        event = wide_event("query", "search", timestamp=5.0)
        recorder.record(event)
        engine.record(event)
        store.scrape()
        bundle = recorder.bundle()
        assert bundle["events"] == [event]
        assert bundle["event_stats"]["recorded"] == 1
        assert bundle["counters"]["results_emitted"] == 3
        (point,) = bundle["gauge_snapshots"]["gauge:inflight"][
            "points"]["raw"]
        assert point["start"] == clock.now
        assert point["last"] == 2
        assert bundle["slo"]["schema"] == 1
        assert bundle["slo"]["recorded"] == 1

    def test_broken_traces_provider_does_not_break_the_bundle(self):
        def explode():
            raise RuntimeError("tracing is down")

        recorder = _recorder(FakeClock(), traces_provider=explode)
        assert recorder.bundle()["traces"] == []

    def test_gauge_snapshot_ring_is_bounded(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        store = TimeSeriesStore(clock=clock, registry=registry,
                                detector=False, capacity={"raw": 4})
        recorder = _recorder(clock, registry=registry)
        recorder.timeseries = store
        for n in range(10):
            registry.gauge_set("n", n)
            store.scrape()
            clock.now += 1.0
        snapshots = recorder.gauge_snapshots()
        # the store's ring bound is the bundle's bound
        assert [point["last"] for point in
                snapshots["gauge:n"]["points"]["raw"]] == [6, 7, 8, 9]
        # exactly /seriesz?name=gauge:&resolution=raw, nothing else
        assert snapshots == store.as_json(
            name="gauge:", resolution="raw")["series"]
        assert all(name.startswith("gauge:") for name in snapshots)


class TestTrigger:
    def test_trigger_counts_and_names_the_reason(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        recorder = _recorder(clock, registry=registry)
        bundle = recorder.trigger("slo_page")
        assert bundle["reason"] == "slo_page"
        assert recorder.dumped == 1
        assert recorder.last_reason == "slo_page"
        assert registry.counters["flight_dumps"] == 1

    def test_automatic_triggers_are_rate_limited(self):
        clock = FakeClock()
        recorder = _recorder(clock, auto_interval=30.0)
        assert recorder.trigger("slo_page") is not None
        assert recorder.trigger("watchdog_breach") is None  # throttled
        clock.now += 31.0
        assert recorder.trigger("watchdog_breach") is not None
        assert recorder.dumped == 2

    def test_on_demand_is_never_throttled(self):
        clock = FakeClock()
        recorder = _recorder(clock, auto_interval=30.0)
        recorder.trigger("slo_page")
        assert recorder.trigger() is not None
        assert recorder.trigger() is not None
        assert recorder.dumped == 3

    def test_dump_dir_persists_counter_named_bundles(self, tmp_path):
        clock = FakeClock()
        recorder = _recorder(clock, dump_dir=tmp_path / "dumps")
        recorder.record(wide_event("query", "search", timestamp=2.0))
        recorder.trigger("slo_page")
        clock.now += 60.0
        recorder.trigger("watchdog_breach")
        paths = sorted((tmp_path / "dumps").glob("flight-*.json"))
        assert [path.name for path in paths] \
            == ["flight-1.json", "flight-2.json"]
        first = json.loads(paths[0].read_text(encoding="utf-8"))
        assert first["reason"] == "slo_page"
        assert first["events"][0]["event"] == "query"

    def test_ring_eviction_survives_into_the_bundle(self):
        recorder = _recorder(FakeClock())  # capacity=8
        for n in range(100):
            recorder.record(wide_event("query", "search",
                                       timestamp=float(n)))
        stats = recorder.bundle()["event_stats"]
        assert stats == {"capacity": 8, "recorded": 100,
                         "retained": 8, "evicted": 92}
