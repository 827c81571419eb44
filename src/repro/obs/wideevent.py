"""Wide events: one structured record per request, plus the ring.

A **wide event** is the single per-request record that joins what the
other observability layers only show in aggregate: which route ran,
the query's shape, the algorithm and rank mode that evaluated it, how
long it took, how many posting bytes it decoded, whether the plan and
posting caches hit, the trace it belongs to, and how it ended.  Every
:meth:`~repro.runtime.session.SearchSession.search` /
:meth:`~repro.runtime.session.SearchSession.search_batch` call and
every :class:`~repro.server.app.SearchServer` request emits exactly
one (docs/OBSERVABILITY.md, "SLOs, wide events and the flight
recorder").

Wide events flow to up to three consumers per emission:

* the session's :class:`~repro.obs.export.JsonlSink` — the durable
  JSONL log (the event dict is the line's payload);
* an in-memory :class:`EventRing` — the bounded always-on buffer the
  :class:`~repro.obs.flight.FlightRecorder` dumps into ``/debugz``
  diagnostic bundles;
* the :class:`~repro.obs.slo.SLOEngine` — sliding-window burn-rate
  evaluation against declared objectives.

The field catalogue (:data:`WIDE_EVENT_FIELDS`) and the outcome codes
(:data:`WIDE_EVENT_OUTCOMES`) are drift-tested against the docs, the
same discipline as every other catalogue in this repo.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterator, Optional

#: Version of the wide-event record shape; bump on incompatible changes.
WIDE_EVENT_SCHEMA_VERSION = 1

#: Field catalogue of one wide event (docs/OBSERVABILITY.md;
#: drift-tested).  ``event`` is the kind (``query``, ``batch``,
#: ``request``); the sink's line wrapper adds ``schema`` and ``pid``.
WIDE_EVENT_FIELDS = (
    "event",
    "timestamp",
    "route",
    "query",
    "query_shape",
    "queries",
    "algorithm",
    "rank",
    "duration_seconds",
    "bytes_decoded",
    "plan_cache_hit",
    "posting_cache_hit",
    "trace_id",
    "outcome",
    "status",
    "result_count",
    "slow",
)

#: How a request can end (docs/OBSERVABILITY.md; drift-tested).
WIDE_EVENT_OUTCOMES = ("ok", "error", "rejected", "timeout")


def wide_event(kind: str, route: str, *,
               query: Optional[str] = None,
               query_shape: Optional[str] = None,
               queries: int = 1,
               algorithm: Optional[str] = None,
               rank: Optional[str] = None,
               duration_seconds: float = 0.0,
               bytes_decoded: int = 0,
               plan_cache_hit: Optional[bool] = None,
               posting_cache_hit: Optional[bool] = None,
               trace_id: Optional[str] = None,
               outcome: str = "ok",
               status: int = 200,
               result_count: int = 0,
               slow: bool = False,
               timestamp: Optional[float] = None,
               clock: Callable[[], float] = time.time) -> dict:
    """Build one wide-event record (every catalogue field present).

    ``kind`` is ``query``/``batch`` for session-level events and
    ``request`` for server-level ones; ``route`` is ``search`` /
    ``batch`` on the session and the URL path on the server.  A
    ``None`` cache flag means "unknown" (metrics were disabled for the
    run), distinct from an explicit miss.
    """
    if outcome not in WIDE_EVENT_OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}; expected one "
                         f"of {WIDE_EVENT_OUTCOMES}")
    return {
        "event": kind,
        "timestamp": timestamp if timestamp is not None else clock(),
        "route": route,
        "query": query,
        "query_shape": query_shape,
        "queries": queries,
        "algorithm": algorithm,
        "rank": rank,
        "duration_seconds": round(duration_seconds, 9),
        "bytes_decoded": bytes_decoded,
        "plan_cache_hit": plan_cache_hit,
        "posting_cache_hit": posting_cache_hit,
        "trace_id": trace_id,
        "outcome": outcome,
        "status": status,
        "result_count": result_count,
        "slow": slow,
    }


class EventRing:
    """A bounded, thread-safe ring of the newest wide events.

    The same locked-deque pattern as
    :class:`~repro.obs.profile.SlowQueryLog`: writers append under the
    lock, readers snapshot under the same lock, and the lifetime
    ``recorded`` / ``evicted`` counts survive ring eviction — so "how
    much did we drop" is always answerable from a diagnostic bundle.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=capacity)
        self.recorded = 0  # lifetime count, survives ring eviction

    @property
    def evicted(self) -> int:
        """How many events fell off the ring (lifetime)."""
        with self._lock:
            return self.recorded - len(self._events)

    def record(self, event: dict) -> None:
        """Append one wide event (evicting the oldest if full)."""
        with self._lock:
            self._events.append(event)
            self.recorded += 1

    def events(self) -> list[dict]:
        """The retained events, oldest first."""
        with self._lock:
            return list(self._events)

    def stats(self) -> dict:
        """Lifetime statistics (JSON-ready)."""
        with self._lock:
            retained = len(self._events)
            return {"capacity": self.capacity,
                    "recorded": self.recorded,
                    "retained": retained,
                    "evicted": self.recorded - retained}

    def clear(self) -> None:
        """Drop the retained events (lifetime counts survive)."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events())
