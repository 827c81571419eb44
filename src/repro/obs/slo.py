"""The SLO engine: declarative objectives and multi-window burn rates.

An **objective** is one sentence of operational intent, parsed from
the declarative syntax of docs/OBSERVABILITY.md ("Objective syntax"):

* ``availability 99.9%`` — at least 99.9% of requests end with
  outcome ``ok``;
* ``latency p99 < 50ms`` — at least 99% of requests finish under
  50 ms (the percentile *is* the target ratio, the Google-SRE
  good-events reading of a latency SLO);
* either form may be scoped to one route by a leading token:
  ``/search latency p99 < 50ms``.

The :class:`SLOEngine` consumes the wide events of
:mod:`repro.obs.wideevent` and evaluates every objective over sliding
windows with the multi-window, multi-burn-rate method of the Google
SRE workbook: the **burn rate** is ``error_rate / error_budget``
(budget = ``1 - target``), and an objective is

* ``page`` when both the long and short page windows (1 h / 5 min by
  default) burn at ≥ ``page_burn`` (14.4 — a 30-day budget gone in
  two days);
* ``warn`` when both warn windows (6 h / 30 min) burn at ≥
  ``warn_burn`` (6.0);
* ``ok`` otherwise.

States surface as gauges on the active registry (so they ride the
existing ``/metrics`` exposition), as the ``/sloz`` JSON document
(:meth:`SLOEngine.as_json`), and — on a transition into ``page`` — as
an ``slo_breach`` event on the attached JSONL sink, an
``slo_breaches`` counter increment, and the ``on_page`` hook (the
flight recorder's dump trigger).  The clock is injectable so every
burn-rate transition is deterministically testable.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.obs.logconfig import get_logger
from repro.obs.metrics import get_metrics

_log = get_logger("obs.slo")

#: Version of the ``/sloz`` document shape; bump on incompatible changes.
SLO_SCHEMA_VERSION = 1

#: Burn-rate states, mildest first (the gauge value is the index).
SLO_STATES = ("ok", "warn", "page")

#: Gauge catalogue of the SLO engine (see docs/OBSERVABILITY.md).
#: Per-objective detail gauges use the dynamic ``slo_state:<name>`` /
#: ``slo_burn_rate:<name>`` scheme documented alongside.
SLO_GAUGES = (
    "slo_worst_burn_rate",
    "slo_objectives_warn",
    "slo_objectives_page",
)

#: The serving default: whole-service availability and latency.
DEFAULT_OBJECTIVES = ("availability 99.9%", "latency p99 < 50ms")

_AVAILABILITY_RE = re.compile(r"^(\d+(?:\.\d+)?)%$")
_LATENCY_RE = re.compile(
    r"^p(\d+(?:\.\d+)?)\s*<\s*(\d+(?:\.\d+)?)\s*ms$")
_SLUG_RE = re.compile(r"[^a-z0-9]+")


@dataclass(frozen=True)
class Objective:
    """One parsed objective (see :func:`parse_objective`)."""

    spec: str
    name: str
    kind: str  # "availability" | "latency"
    target: float  # good-event ratio in (0, 1)
    route: Optional[str] = None  # None matches every route
    threshold_seconds: Optional[float] = None  # latency only

    @property
    def error_budget(self) -> float:
        """The tolerable bad-event ratio (``1 - target``)."""
        return 1.0 - self.target

    def matches(self, event: dict) -> bool:
        """Whether ``event`` counts toward this objective."""
        return self.route is None or event.get("route") == self.route

    def is_good(self, event: dict) -> bool:
        """Whether ``event`` spends none of the error budget."""
        if self.kind == "availability":
            return event.get("outcome") == "ok"
        return event.get("outcome") == "ok" and \
            float(event.get("duration_seconds") or 0.0) \
            <= (self.threshold_seconds or 0.0)

    def as_dict(self) -> dict:
        """JSON-ready form (part of the ``/sloz`` document)."""
        data = {
            "spec": self.spec,
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "route": self.route,
        }
        if self.threshold_seconds is not None:
            data["threshold_ms"] = round(self.threshold_seconds * 1000,
                                         6)
        return data


def _slug(spec: str) -> str:
    return _SLUG_RE.sub("_", spec.lower()).strip("_")


def parse_objective(spec: str) -> Objective:
    """Parse one declarative objective (docs/OBSERVABILITY.md syntax).

    ``availability 99.9%`` | ``latency p99 < 50ms``, optionally
    prefixed with a route token (``/search availability 99.99%``).
    Raises :class:`ValueError` with the offending spec on any other
    shape — a typo'd objective must fail loudly at configuration
    time, not silently never page.
    """
    tokens = spec.split()
    route = None
    if tokens and tokens[0] not in ("availability", "latency"):
        route = tokens[0]
        tokens = tokens[1:]
    if not tokens:
        raise ValueError(f"empty objective {spec!r}")
    kind, rest = tokens[0], " ".join(tokens[1:])
    if kind == "availability":
        match = _AVAILABILITY_RE.match(rest)
        if match is None:
            raise ValueError(
                f"bad availability objective {spec!r}; expected "
                f"'availability <percent>%' (e.g. 'availability 99.9%')")
        target = float(match.group(1)) / 100.0
        threshold = None
    elif kind == "latency":
        match = _LATENCY_RE.match(rest)
        if match is None:
            raise ValueError(
                f"bad latency objective {spec!r}; expected "
                f"'latency p<percentile> < <millis>ms' "
                f"(e.g. 'latency p99 < 50ms')")
        target = float(match.group(1)) / 100.0
        threshold = float(match.group(2)) / 1000.0
    else:
        raise ValueError(
            f"unknown objective kind {kind!r} in {spec!r}; expected "
            f"'availability' or 'latency'")
    if not 0.0 < target < 1.0:
        raise ValueError(
            f"objective target must be strictly between 0% and 100%, "
            f"got {spec!r}")
    return Objective(spec=spec, name=_slug(spec), kind=kind,
                     target=target, route=route,
                     threshold_seconds=threshold)


class _Window:
    """One sliding window: bounded (timestamp, good) pairs + counts.

    ``add``/``advance`` are amortized O(1), so the engine's per-event
    cost stays flat no matter how much history the windows span.
    """

    __slots__ = ("seconds", "capacity", "_events", "total", "bad")

    def __init__(self, seconds: float, capacity: int):
        self.seconds = seconds
        self.capacity = capacity
        self._events: deque[tuple[float, bool]] = deque()
        self.total = 0
        self.bad = 0

    def add(self, timestamp: float, good: bool) -> None:
        self._events.append((timestamp, good))
        self.total += 1
        if not good:
            self.bad += 1
        while len(self._events) > self.capacity:
            self._drop()

    def advance(self, now: float) -> None:
        horizon = now - self.seconds
        while self._events and self._events[0][0] <= horizon:
            self._drop()

    def _drop(self) -> None:
        _, good = self._events.popleft()
        self.total -= 1
        if not good:
            self.bad -= 1

    def burn(self, budget: float) -> float:
        """``error_rate / error_budget`` over the retained window."""
        if self.total == 0:
            return 0.0
        return (self.bad / self.total) / budget


class _Tracker:
    """Per-objective window set (shared lengths deduplicated)."""

    def __init__(self, objective: Objective, lengths: Sequence[float],
                 capacity: int):
        self.objective = objective
        self.windows = {seconds: _Window(seconds, capacity)
                        for seconds in sorted(set(lengths))}
        self.total = 0  # lifetime matched events
        self.bad = 0

    def record(self, timestamp: float, good: bool) -> None:
        self.total += 1
        if not good:
            self.bad += 1
        for window in self.windows.values():
            window.add(timestamp, good)

    def burns(self, now: float) -> dict[float, float]:
        budget = self.objective.error_budget
        rates = {}
        for seconds, window in self.windows.items():
            window.advance(now)
            rates[seconds] = window.burn(budget)
        return rates


class SLOEngine:
    """Evaluate declared objectives over a stream of wide events.

    Parameters
    ----------
    objectives:
        Objective spec strings (:func:`parse_objective`) and/or
        :class:`Objective` values; defaults to
        :data:`DEFAULT_OBJECTIVES`.
    page_windows / warn_windows:
        The (long, short) sliding windows in seconds of each severity,
        per the multi-window method (defaults 1 h / 5 min and
        6 h / 30 min).
    page_burn / warn_burn:
        The burn-rate thresholds both windows of a severity must
        cross (defaults 14.4 and 6.0, the SRE-workbook values for a
        30-day budget).
    capacity:
        Per-window event bound (memory cap under sustained load).
    clock:
        Injectable time source for deterministic tests (defaults to
        :func:`time.time`; wide events carry their own timestamps,
        the clock supplies "now" for window eviction and documents).
    registry:
        The metrics registry to publish gauges / the breach counter
        into; ``None`` resolves :func:`~repro.obs.metrics.get_metrics`
        per use.
    sink:
        Optional :class:`~repro.obs.export.JsonlSink`; every
        transition into ``page`` emits one ``slo_breach`` event (the
        same sink the time-series store reports resource-budget
        breaches to).
    on_page:
        Optional callable ``(objective, info_dict)`` fired on every
        transition into ``page`` — wire the flight recorder's
        :meth:`~repro.obs.flight.FlightRecorder.trigger` here.
    """

    def __init__(self,
                 objectives: Sequence[Union[str, Objective]]
                 = DEFAULT_OBJECTIVES, *,
                 page_windows: tuple[float, float] = (3600.0, 300.0),
                 warn_windows: tuple[float, float] = (21600.0, 1800.0),
                 page_burn: float = 14.4, warn_burn: float = 6.0,
                 capacity: int = 8192,
                 clock: Callable[[], float] = time.time,
                 registry=None, sink=None,
                 on_page: Optional[Callable] = None):
        self.objectives = tuple(
            parse_objective(obj) if isinstance(obj, str) else obj
            for obj in objectives)
        names = [objective.name for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        self.page_windows = (float(page_windows[0]),
                             float(page_windows[1]))
        self.warn_windows = (float(warn_windows[0]),
                             float(warn_windows[1]))
        self.page_burn = float(page_burn)
        self.warn_burn = float(warn_burn)
        self._clock = clock
        self._registry = registry
        self._sink = sink
        self.on_page = on_page
        lengths = (*self.page_windows, *self.warn_windows)
        self._lock = threading.Lock()
        self._trackers = {objective.name:
                          _Tracker(objective, lengths, capacity)
                          for objective in self.objectives}
        self._states = {objective.name: "ok"
                        for objective in self.objectives}
        self.recorded = 0  # lifetime events consumed
        self.breaches = 0  # lifetime transitions into "page"
        self.last_breach: Optional[dict] = None

    # -- recording -----------------------------------------------------------

    def _metrics(self):
        return self._registry if self._registry is not None \
            else get_metrics()

    def record(self, event: dict) -> None:
        """Consume one wide event and re-evaluate the affected
        objectives (state transitions fire inline, not on scrape)."""
        timestamp = event.get("timestamp")
        if timestamp is None:
            timestamp = self._clock()
        transitions = []
        with self._lock:
            self.recorded += 1
            for tracker in self._trackers.values():
                if not tracker.objective.matches(event):
                    continue
                tracker.record(timestamp,
                               tracker.objective.is_good(event))
            transitions = self._refresh(timestamp)
        for objective, previous, state, info in transitions:
            self._announce(objective, previous, state, info)

    def _refresh(self, now: float) -> list:
        """Re-derive every state under the lock; returns transitions.

        Also republishes the engine gauges — per objective on state
        change only, the aggregate levels whenever they move (the
        cost-discipline contract of docs/OBSERVABILITY.md).
        """
        metrics = self._metrics()
        transitions = []
        worst = 0.0
        counts = {"warn": 0, "page": 0}
        for name, tracker in self._trackers.items():
            burns = tracker.burns(now)
            state = self._derive(burns)
            worst = max(worst, burns[self.page_windows[1]])
            if state in counts:
                counts[state] += 1
            previous = self._states[name]
            if state != previous:
                self._states[name] = state
                info = {
                    "objective": tracker.objective.spec,
                    "name": name,
                    "from": previous,
                    "state": state,
                    "timestamp": now,
                    "burn_rates": {str(int(seconds)): round(rate, 6)
                                   for seconds, rate in burns.items()},
                }
                transitions.append((tracker.objective, previous, state,
                                    info))
                if metrics.enabled:
                    metrics.gauge_set(f"slo_state:{name}",
                                      SLO_STATES.index(state))
        if metrics.enabled:
            metrics.gauge_set("slo_worst_burn_rate", round(worst, 6))
            metrics.gauge_set("slo_objectives_warn", counts["warn"])
            metrics.gauge_set("slo_objectives_page", counts["page"])
        return transitions

    def _derive(self, burns: dict[float, float]) -> str:
        page_long, page_short = self.page_windows
        warn_long, warn_short = self.warn_windows
        if burns[page_long] >= self.page_burn and \
                burns[page_short] >= self.page_burn:
            return "page"
        if burns[warn_long] >= self.warn_burn and \
                burns[warn_short] >= self.warn_burn:
            return "warn"
        return "ok"

    def _announce(self, objective: Objective, previous: str,
                  state: str, info: dict) -> None:
        if state == "page":
            self.breaches += 1
            self.last_breach = info
            metrics = self._metrics()
            if metrics.enabled:
                metrics.inc("slo_breaches")
            if self._sink is not None:
                self._sink.emit("slo_breach", info)
            _log.warning("SLO %r burning into page state (%s)",
                         objective.spec, info["burn_rates"])
            if self.on_page is not None:
                self.on_page(objective, info)
        elif state == "warn":
            _log.warning("SLO %r burning into warn state", objective.spec)
        else:
            _log.info("SLO %r recovered to ok (was %s)",
                      objective.spec, previous)

    # -- reading -------------------------------------------------------------

    def state(self, name: Optional[str] = None):
        """The current state of one objective (or the whole map)."""
        with self._lock:
            if name is not None:
                return self._states[name]
            return dict(self._states)

    def evaluate(self, now: Optional[float] = None) -> list[dict]:
        """Advance the windows to ``now`` and return one JSON-ready
        dict per objective (state, per-window burn rates, totals)."""
        if now is None:
            now = self._clock()
        documents = []
        transitions = []
        with self._lock:
            transitions = self._refresh(now)
            for name, tracker in self._trackers.items():
                burns = tracker.burns(now)
                documents.append({
                    **tracker.objective.as_dict(),
                    "state": self._states[name],
                    "burn_rates": {str(int(seconds)): round(rate, 6)
                                   for seconds, rate in
                                   sorted(burns.items())},
                    "events": tracker.total,
                    "bad_events": tracker.bad,
                })
        for objective, previous, state, info in transitions:
            self._announce(objective, previous, state, info)
        return documents

    def as_json(self, now: Optional[float] = None) -> dict:
        """The ``/sloz`` document: configuration, every objective's
        state and burn rates, and the lifetime counts."""
        if now is None:
            now = self._clock()
        return {
            "schema": SLO_SCHEMA_VERSION,
            "generated_at": now,
            "page_windows_seconds": list(self.page_windows),
            "warn_windows_seconds": list(self.warn_windows),
            "page_burn": self.page_burn,
            "warn_burn": self.warn_burn,
            "objectives": self.evaluate(now),
            "recorded": self.recorded,
            "breaches": self.breaches,
            "last_breach": self.last_breach,
        }
