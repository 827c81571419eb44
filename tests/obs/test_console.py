"""The ops console: sparklines, frame rendering, the polling loop."""

from __future__ import annotations

import io

from repro.obs.console import (SPARK_CHARS, render_frame, run_top,
                               sparkline)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesStore


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def tick(self, seconds=1.0):
        self.now += seconds


def _store_with_traffic():
    registry = MetricsRegistry()
    clock = FakeClock()
    store = TimeSeriesStore(1.0, clock=clock, registry=registry,
                            detector=False)
    store.scrape()
    for step in range(5):
        registry.inc("plan_cache_hits", step + 1)
        registry.inc("plan_cache_misses")
        registry.observe("search_seconds", 0.002 * (step + 1))
        registry.gauge_set("session_inflight_queries", step)
        clock.tick(1.0)
        store.scrape()
    return store


class TestSparkline:
    def test_scales_into_the_eight_block_characters(self):
        spark = sparkline([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        assert spark == SPARK_CHARS

    def test_flat_nonzero_renders_mid_flat_zero_renders_floor(self):
        assert sparkline([5.0, 5.0]) == SPARK_CHARS[4] * 2
        assert sparkline([0.0, 0.0]) == SPARK_CHARS[0] * 2

    def test_empty_and_none_values_are_handled(self):
        assert sparkline([]) == ""
        assert sparkline([None, 3.0]) == SPARK_CHARS[4]

    def test_width_keeps_the_newest_values(self):
        spark = sparkline([0.0] * 50 + [7.0], width=4)
        assert len(spark) == 4
        assert spark[-1] == SPARK_CHARS[-1]


class TestRenderFrame:
    def test_frame_shows_vitals_and_cache_hit_rates(self):
        store = _store_with_traffic()
        frame = render_frame(store.as_json(), source="unit test")
        assert frame.startswith("cohesive-search top - unit test")
        assert "searches/s" in frame       # derived session qps
        assert "search p50 ms" in frame
        assert "plan cache hit%" in frame
        assert any(char in frame for char in SPARK_CHARS)

    def test_empty_document_renders_placeholder(self):
        store = TimeSeriesStore(1.0, clock=FakeClock(),
                                registry=MetricsRegistry(),
                                detector=False)
        frame = render_frame(store.as_json())
        assert "no samples yet" in frame

    def test_anomaly_footer_shows_the_newest_finding(self):
        document = {"scrapes": 1, "interval_seconds": 1.0,
                    "series": {}, "anomalies": [
                        {"series": "gauge:x", "timestamp": 1.0,
                         "value": 9.0, "baseline": 1.0, "score": 8.0}]}
        frame = render_frame(document)
        assert "newest anomaly: gauge:x" in frame


class TestRunTop:
    def test_once_prints_one_frame_from_a_local_store(self):
        store = _store_with_traffic()
        out = io.StringIO()
        assert run_top(store, once=True, out=out) == 1
        text = out.getvalue()
        assert text.startswith("cohesive-search top")
        assert "\x1b[" not in text  # --once never clears the screen

    def test_frames_bound_the_rolling_mode(self):
        store = _store_with_traffic()
        out = io.StringIO()
        assert run_top(store, interval=0.0, frames=3, out=out) == 3
        assert out.getvalue().count("\x1b[H\x1b[2J") == 2

    def test_callable_source_is_polled(self):
        calls = []

        def fetch():
            calls.append(1)
            return {"scrapes": 0, "interval_seconds": 1.0,
                    "series": {}, "anomalies": []}

        out = io.StringIO()
        run_top(fetch, once=True, out=out)
        assert calls == [1]
