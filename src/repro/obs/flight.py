"""The flight recorder: always-on rings, one-shot diagnostic bundles.

A production incident's first question is "what was the system doing
right before it misbehaved".  The :class:`FlightRecorder` answers it
with a **bounded, always-on** record — the newest wide events
(:class:`~repro.obs.wideevent.EventRing`), the gauge history of the
attached :class:`~repro.obs.timeseries.TimeSeriesStore`, and the
tracer's recent trace digests — that :meth:`~FlightRecorder.bundle`
folds into one self-contained, schema-versioned JSON document on
demand.

Bundles are produced four ways (docs/OBSERVABILITY.md, "Diagnostic
bundles"):

* on demand — ``GET /debugz`` on either HTTP surface and the
  ``cohesive-search debugz`` subcommand; both serve
  :meth:`~FlightRecorder.bundle`, which is **pure** (no state
  mutation), so an HTTP fetch and a Python-API call agree
  byte-for-byte;
* on SLO page-state — the :class:`~repro.obs.slo.SLOEngine` wires
  its ``on_page`` hook to :meth:`~FlightRecorder.trigger`;
* on budget breach — the time-series store's scrape triggers a
  ``watchdog_breach`` dump alongside its ``resource_breach`` event;
* on series anomaly — the time-series store's
  :class:`~repro.obs.timeseries.AnomalyDetector` triggers a dump
  alongside its ``series_anomaly`` event.

:meth:`~FlightRecorder.trigger` is the mutating path: it counts, can
persist the bundle under ``dump_dir``, and is rate-limited through
the injectable clock so a flapping SLO cannot flood the disk.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from repro.obs.logconfig import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.wideevent import EventRing

_log = get_logger("obs.flight")

#: Version of the diagnostic-bundle shape; bump on incompatible changes.
FLIGHT_SCHEMA_VERSION = 2

#: Top-level field catalogue of one ``/debugz`` bundle
#: (docs/OBSERVABILITY.md; drift-tested).
FLIGHT_BUNDLE_FIELDS = (
    "schema",
    "generated_at",
    "reason",
    "events",
    "event_stats",
    "gauge_snapshots",
    "traces",
    "counters",
    "slo",
    "dumped",
)

#: Reasons a bundle is produced (the ``reason`` field).
FLIGHT_REASONS = ("on_demand", "slo_page", "watchdog_breach",
                  "series_anomaly")


class FlightRecorder:
    """Bounded always-on diagnostics with one-shot bundle dumps.

    Parameters
    ----------
    capacity:
        Wide-event ring bound (an owned :class:`EventRing`).
    clock:
        Injectable time source (deterministic bundles in tests).
    registry:
        Metrics registry for the ``flight_dumps`` counter and the
        bundle's counter snapshot; ``None`` resolves
        :func:`~repro.obs.metrics.get_metrics` per use.
    traces_provider:
        Zero-arg callable returning recent trace digests; defaults to
        :func:`repro.obs.tracing.recent_traces` (empty when tracing
        is off).
    slo:
        Optional :class:`~repro.obs.slo.SLOEngine` whose ``as_json``
        document is embedded in every bundle.
    dump_dir:
        When set, :meth:`trigger` also writes each bundle to
        ``flight-<n>.json`` under this directory.
    auto_interval:
        Minimum seconds between *automatic* dumps (``slo_page`` /
        ``watchdog_breach``); on-demand triggers are never throttled.

    The serving wiring sets :attr:`timeseries` to its
    :class:`~repro.obs.timeseries.TimeSeriesStore` (the way it sets
    :attr:`slo`); the store's raw ``gauge:*`` series become the
    bundle's ``gauge_snapshots``.
    """

    def __init__(self, capacity: int = 256, *,
                 clock: Callable[[], float] = time.time,
                 registry=None,
                 traces_provider: Optional[Callable[[], list]] = None,
                 slo=None,
                 dump_dir=None,
                 auto_interval: float = 30.0):
        self.ring = EventRing(capacity)
        self._clock = clock
        self._registry = registry
        if traces_provider is None:
            from repro.obs.tracing import recent_traces
            traces_provider = recent_traces
        self._traces_provider = traces_provider
        self.slo = slo
        self.timeseries = None
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.auto_interval = auto_interval
        self._lock = threading.Lock()
        self.dumped = 0  # lifetime trigger() bundles
        self.last_reason: Optional[str] = None
        self._last_auto: Optional[float] = None

    # -- feeding -------------------------------------------------------------

    def _metrics(self):
        return self._registry if self._registry is not None \
            else get_metrics()

    def record(self, event: dict) -> None:
        """Append one wide event to the always-on ring."""
        self.ring.record(event)

    def gauge_snapshots(self, now: Optional[float] = None) -> dict:
        """The attached store's raw ``gauge:*`` series — the
        ``series`` field of ``/seriesz?name=gauge:&resolution=raw`` —
        or ``{}`` without a store."""
        if self.timeseries is None:
            return {}
        return self.timeseries.as_json(now, name="gauge:",
                                       resolution="raw")["series"]

    # -- dumping -------------------------------------------------------------

    def bundle(self, reason: str = "on_demand",
               now: Optional[float] = None) -> dict:
        """Assemble one self-contained diagnostic bundle.

        Pure — no counters move, nothing is written — so ``/debugz``
        responses and direct API calls are byte-for-byte identical
        under a frozen clock.
        """
        if now is None:
            now = self._clock()
        metrics = self._metrics()
        counters = dict(getattr(metrics, "counters", {}))
        try:
            traces = list(self._traces_provider() or [])
        except Exception:  # diagnostics must not take the server down
            _log.exception("flight recorder traces provider failed")
            traces = []
        return {
            "schema": FLIGHT_SCHEMA_VERSION,
            "generated_at": now,
            "reason": reason,
            "events": self.ring.events(),
            "event_stats": self.ring.stats(),
            "gauge_snapshots": self.gauge_snapshots(now),
            "traces": traces,
            "counters": counters,
            "slo": self.slo.as_json(now) if self.slo is not None
            else None,
            "dumped": self.dumped,
        }

    def trigger(self, reason: str = "on_demand") -> Optional[dict]:
        """Produce (and optionally persist) a bundle; the mutating
        path.  Automatic reasons are rate-limited to one per
        ``auto_interval`` seconds; returns ``None`` when throttled."""
        now = self._clock()
        with self._lock:
            if reason != "on_demand" and self._last_auto is not None \
                    and now - self._last_auto < self.auto_interval:
                return None
            if reason != "on_demand":
                self._last_auto = now
        bundle = self.bundle(reason, now)
        with self._lock:
            self.dumped += 1
            self.last_reason = reason
        metrics = self._metrics()
        if metrics.enabled:
            metrics.inc("flight_dumps")
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / f"flight-{self.dumped}.json"
            path.write_text(json.dumps(bundle, sort_keys=True,
                                       default=str) + "\n",
                            encoding="utf-8")
            _log.warning("flight recorder dumped %s (%s)", path, reason)
        else:
            _log.info("flight recorder bundle taken (%s)", reason)
        return bundle

    def stats(self) -> dict:
        """Lifetime statistics (JSON-ready)."""
        with self._lock:
            return {"dumped": self.dumped,
                    "last_reason": self.last_reason,
                    **{f"ring_{key}": value for key, value in
                       self.ring.stats().items()}}
