"""Wide events: the builder's catalogue discipline and the ring."""

import threading

import pytest

from repro.obs import (WIDE_EVENT_FIELDS, WIDE_EVENT_OUTCOMES,
                       EventRing, wide_event)


class TestWideEventBuilder:
    def test_every_catalogue_field_is_present(self):
        event = wide_event("query", "search")
        assert tuple(event) == WIDE_EVENT_FIELDS

    def test_defaults_and_overrides(self):
        event = wide_event(
            "request", "/search", query="(a b)", query_shape="k2t2",
            algorithm="stream-scan", rank="none",
            duration_seconds=0.0123456789012, bytes_decoded=42,
            plan_cache_hit=True, posting_cache_hit=False,
            trace_id="t1", outcome="error", status=500,
            result_count=7, slow=True, timestamp=123.0)
        assert event["event"] == "request"
        assert event["route"] == "/search"
        assert event["duration_seconds"] == pytest.approx(
            0.012345679, abs=1e-9)  # rounded to 9 places
        assert event["timestamp"] == 123.0
        assert event["plan_cache_hit"] is True
        assert event["posting_cache_hit"] is False
        assert event["outcome"] == "error"
        assert event["status"] == 500

    def test_injectable_clock_stamps_timestamp(self):
        event = wide_event("query", "search", clock=lambda: 99.5)
        assert event["timestamp"] == 99.5

    @pytest.mark.parametrize("outcome", WIDE_EVENT_OUTCOMES)
    def test_all_published_outcomes_accepted(self, outcome):
        assert wide_event("query", "search",
                          outcome=outcome)["outcome"] == outcome

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            wide_event("query", "search", outcome="fine")


class TestEventRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventRing(0)

    def test_records_in_order(self):
        ring = EventRing(4)
        for n in range(3):
            ring.record({"n": n})
        assert [event["n"] for event in ring.events()] == [0, 1, 2]
        assert len(ring) == 3
        assert list(ring) == ring.events()

    def test_eviction_under_sustained_load(self):
        """A ring fed far past capacity keeps only the newest events,
        and the lifetime stats still account for every drop."""
        ring = EventRing(8)
        for n in range(1000):
            ring.record({"n": n})
        assert [event["n"] for event in ring.events()] == \
            list(range(992, 1000))
        stats = ring.stats()
        assert stats == {"capacity": 8, "recorded": 1000,
                         "retained": 8, "evicted": 992}
        assert ring.recorded == 1000
        assert ring.evicted == 992

    def test_concurrent_writers_lose_nothing_from_the_counts(self):
        ring = EventRing(16)
        barrier = threading.Barrier(4)

        def hammer(worker):
            barrier.wait()
            for n in range(500):
                ring.record({"worker": worker, "n": n})

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = ring.stats()
        assert stats["recorded"] == 2000
        assert stats["retained"] == 16
        assert stats["evicted"] == 1984

    def test_clear_keeps_lifetime_counts(self):
        ring = EventRing(4)
        for n in range(6):
            ring.record({"n": n})
        ring.clear()
        assert ring.events() == []
        assert ring.recorded == 6
