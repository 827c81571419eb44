"""Bounded in-process time series over the metrics registry.

Every other observability surface answers "what is the value *right
now*": ``/metrics`` is the instantaneous registry, ``/sloz`` the
current burn rates.  The :class:`TimeSeriesStore` adds the layer
between raw counters and a dashboard — **history** — without growing
without bound, and it is the process's only sampler:

* a daemon scrape loop samples the active
  :class:`~repro.obs.metrics.MetricsRegistry` at a fixed interval:
  counters become per-second **rates** (``counter:<name>``), gauges
  become **levels** (``gauge:<name>``), histogram quantiles become
  levels (``hist:<name>:p50`` / ``hist:<name>:p99``), and the process
  probes (resident set size, open file descriptors, threads) become
  ``resource:<name>`` levels (SLO burn rates ride along as the
  engine's ``gauge:slo_worst_burn_rate``);
* each scrape republishes the probes as the :data:`WATCHDOG_GAUGES`
  and checks them against optional **soft budgets** (``max_rss_mb``,
  ``max_fds``, ``max_threads``, ``max_cache_bytes`` or
  ``gauge:<name>``).  A breach stops nothing — these are early-warning
  thresholds, not limits — but it bumps the ``watchdog_breaches``
  counter, emits one ``resource_breach`` event into the JSONL sink,
  triggers a ``watchdog_breach`` flight-recorder bundle and logs a
  WARNING;
* every sample lands in **multi-resolution rings** — raw (one bucket
  per scrape), 10-second and 1-minute buckets, each carrying
  ``count``/``min``/``max``/``mean``/``last`` — so a console can show
  the last five minutes at full resolution and the last two hours
  downsampled, from the same bounded store;
* :meth:`TimeSeriesStore.series` and the deterministic
  :meth:`TimeSeriesStore.as_json` document (served on ``/seriesz`` by
  both HTTP surfaces, ``?name=&window=&resolution=`` filtered; a name
  ending in ``:`` selects a whole family such as ``resource:``) are
  the query API; :data:`SERIES_FIELDS` catalogues the document
  (docs/OBSERVABILITY.md, drift-tested).

Memory is strictly bounded.  Every ring is a ``deque(maxlen=...)`` and
the store refuses to track more than ``max_series`` names (excess
names count into the ``dropped`` field instead of allocating), so the
worst case is ``max_series * sum(capacity.values())`` buckets of
:data:`BUCKET_BYTES` each — :meth:`TimeSeriesStore.memory_bound`
computes the figure the size test asserts against.

An optional :class:`AnomalyDetector` (EWMA baseline + robust z-score
against the median absolute deviation of recent samples) marks outlier
raw buckets, bumps the ``timeseries_anomalies`` counter, emits one
``series_anomaly`` event per finding into the JSONL sink and triggers
a ``series_anomaly`` flight-recorder bundle — so a p99 climbing or an
RSS step lands in the same diagnostic pipeline as an SLO page.

The process probes read ``/proc/self`` on Linux and degrade gracefully
elsewhere (no point rather than an error), mirroring the platform
handling of :func:`repro.obs.bench.peak_rss_kb`.
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc
from collections import deque
from typing import Callable, Optional

from repro.obs.logconfig import get_logger
from repro.obs.metrics import get_metrics

_log = get_logger("obs.timeseries")

#: Version of the ``/seriesz`` document shape; bump on incompatible
#: changes.
SERIES_SCHEMA_VERSION = 1

#: Top-level field catalogue of one ``/seriesz`` document
#: (docs/OBSERVABILITY.md; drift-tested).
SERIES_FIELDS = (
    "schema",
    "generated_at",
    "interval_seconds",
    "resolutions",
    "capacity",
    "scrapes",
    "dropped",
    "series",
    "anomalies",
)

#: Payload field catalogue of one ``series_anomaly`` sink event and of
#: each entry in the document's ``anomalies`` ring (drift-tested).
ANOMALY_EVENT_FIELDS = (
    "series",
    "timestamp",
    "value",
    "baseline",
    "score",
)

#: Downsampling levels: resolution name -> bucket width in seconds.
#: ``raw`` keeps one bucket per scrape (width = the scrape interval).
RESOLUTION_SECONDS = {"10s": 10.0, "1m": 60.0}

#: Default ring capacities per resolution: ~5 min of raw samples at a
#: 1 s interval, 30 min of 10 s buckets, 2 h of 1 m buckets.
DEFAULT_CAPACITY = {"raw": 300, "10s": 180, "1m": 120}

#: Conservative worst-case cost of one retained bucket: a 7-slot list
#: of floats (56-byte list header + 7 pointers + up to 7 distinct
#: 24-byte float objects ≈ 180 bytes on CPython 3.12) rounded up.
BUCKET_BYTES = 208

#: Gauge catalogue of the scrape's process probes (see
#: docs/OBSERVABILITY.md): the levels it republishes into the metrics
#: registry, in the order of the :func:`probe_process` fields.
WATCHDOG_GAUGES = (
    "process_rss_bytes",
    "process_open_fds",
    "process_threads",
    "tracemalloc_peak_bytes",
)

#: Budget keys with a built-in meaning; anything else must use the
#: ``gauge:<name>`` form.
BUDGET_KEYS = ("max_rss_mb", "max_fds", "max_threads",
               "max_cache_bytes")

#: Internal bucket slots (rendered as a dict by :func:`_bucket_dict`).
_START, _COUNT, _MIN, _MAX, _MEAN, _LAST, _ANOMALY = range(7)


def current_rss_bytes() -> Optional[int]:
    """The process's *current* resident set size in bytes.

    Reads ``/proc/self/statm`` (Linux); falls back to the normalized
    peak from :func:`~repro.obs.bench.peak_rss_kb` — a monotonic
    over-estimate, but comparable — and ``None`` when neither source
    exists.
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            fields = statm.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    from repro.obs.bench import peak_rss_kb
    peak = peak_rss_kb()
    return peak * 1024 if peak is not None else None


def open_fd_count() -> Optional[int]:
    """How many file descriptors the process holds open (``None``
    where ``/proc/self/fd`` does not exist)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def probe_process() -> dict:
    """One reading of the process levels: ``rss_bytes``,
    ``open_fds``, ``threads`` and ``tracemalloc_peak_bytes`` (``None``
    where a probe is unavailable or tracemalloc is not tracing)."""
    return {
        "rss_bytes": current_rss_bytes(),
        "open_fds": open_fd_count(),
        "threads": threading.active_count(),
        "tracemalloc_peak_bytes": tracemalloc.get_traced_memory()[1]
        if tracemalloc.is_tracing() else None,
    }


def _budget_value(key: str, process: dict,
                  gauges: dict) -> Optional[float]:
    """The level a budget key is checked against (``None``: no
    reading, so no breach)."""
    if key == "max_rss_mb":
        rss = process["rss_bytes"]
        return rss / (1024 * 1024) if rss is not None else None
    if key == "max_fds":
        return process["open_fds"]
    if key == "max_threads":
        return process["threads"]
    if key == "max_cache_bytes":
        return sum(value for name, value in gauges.items()
                   if name.endswith("_cache_bytes"))
    return gauges.get(key[len("gauge:"):])


def counter_rates(current: dict, previous: dict,
                  elapsed: float) -> dict[str, float]:
    """Per-second rates between two counter snapshots.

    The shared delta logic of the scrape loop and
    :func:`repro.obs.report.format_report`: for every counter in
    ``current``, ``(value - previous) / elapsed``, treating a name
    absent from ``previous`` as 0 (the counter was born mid-window).
    Negative deltas (a registry swap or reset) are dropped rather than
    reported as negative rates — counters only go up.
    """
    if elapsed <= 0:
        return {}
    rates: dict[str, float] = {}
    for name, value in current.items():
        delta = value - previous.get(name, 0)
        if delta >= 0:
            rates[name] = delta / elapsed
    return rates


def _selects(name: Optional[str], series_name: str) -> bool:
    """Whether the ``name`` filter keeps ``series_name``: no filter
    keeps everything, a family prefix ending in ``:`` keeps its
    members, any other name only itself."""
    if name is None:
        return True
    if name.endswith(":"):
        return series_name.startswith(name)
    return series_name == name


def _bucket_dict(bucket: list) -> dict:
    """JSON-ready view of one internal bucket."""
    return {
        "start": bucket[_START],
        "count": bucket[_COUNT],
        "min": bucket[_MIN],
        "max": bucket[_MAX],
        "mean": bucket[_MEAN],
        "last": bucket[_LAST],
        "anomaly": bool(bucket[_ANOMALY]),
    }


class _Series:
    """One named series: a ring of buckets per resolution."""

    __slots__ = ("name", "kind", "rings")

    def __init__(self, name: str, kind: str, capacity: dict):
        self.name = name
        self.kind = kind  # "rate" (from a counter) or "level"
        self.rings: dict[str, deque] = {
            resolution: deque(maxlen=size)
            for resolution, size in capacity.items()
        }

    def record(self, timestamp: float, value: float) -> list:
        """Fold one sample into every resolution; returns the raw
        bucket (so the caller can flag it anomalous)."""
        raw = [timestamp, 1, value, value, value, value, 0]
        self.rings["raw"].append(raw)
        for resolution, width in RESOLUTION_SECONDS.items():
            ring = self.rings[resolution]
            start = (timestamp // width) * width
            if ring and ring[-1][_START] == start:
                bucket = ring[-1]
                bucket[_COUNT] += 1
                if value < bucket[_MIN]:
                    bucket[_MIN] = value
                if value > bucket[_MAX]:
                    bucket[_MAX] = value
                bucket[_MEAN] += (value - bucket[_MEAN]) / bucket[_COUNT]
                bucket[_LAST] = value
            elif not ring or ring[-1][_START] < start:
                ring.append([start, 1, value, value, value, value, 0])
            # a sample older than the newest bucket (clock skew) is
            # dropped from the coarse rings; the raw ring keeps it
        return raw

    def mark_anomalous(self, raw_bucket: list) -> None:
        """Flag the raw bucket and the coarse buckets covering it."""
        raw_bucket[_ANOMALY] = 1
        timestamp = raw_bucket[_START]
        for resolution, width in RESOLUTION_SECONDS.items():
            ring = self.rings[resolution]
            start = (timestamp // width) * width
            if ring and ring[-1][_START] == start:
                ring[-1][_ANOMALY] = 1


class AnomalyDetector:
    """EWMA baseline + robust z-score outlier detection, per series.

    For every raw sample the detector keeps an exponentially weighted
    moving average (the *baseline*) and a short window of recent
    values.  A sample is anomalous when its deviation from the
    baseline, scaled by the window's median absolute deviation (the
    robust spread estimator — one outlier cannot inflate it the way it
    inflates a standard deviation), exceeds ``threshold``:

        score = 0.6745 * (value - baseline) / MAD

    Nothing fires before ``min_samples`` observations of a series, so
    the cold-start ramp of a counter rate is not a page.  A zero MAD
    (a perfectly flat window) only flags genuinely new values.
    """

    def __init__(self, alpha: float = 0.3, threshold: float = 6.0,
                 min_samples: int = 30, window: int = 64):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        self.alpha = alpha
        self.threshold = threshold
        self.min_samples = min_samples
        self.window = window
        self._lock = threading.Lock()
        self._state: dict[str, dict] = {}
        self.flagged = 0  # lifetime anomalies across all series

    def check(self, name: str, value: float) -> Optional[dict]:
        """Fold one sample; returns ``{baseline, score}`` when the
        sample is anomalous, else ``None``.  Thread-safe — the scrape
        loop and an out-of-loop :meth:`TimeSeriesStore.record` caller
        may check concurrently."""
        with self._lock:
            return self._check(name, value)

    def _check(self, name: str, value: float) -> Optional[dict]:
        state = self._state.get(name)
        if state is None:
            state = self._state[name] = {
                "ewma": value,
                "values": deque(maxlen=self.window),
                "seen": 0,
            }
        finding = None
        if state["seen"] >= self.min_samples:
            values = sorted(state["values"])
            median = values[len(values) // 2]
            mad = sorted(abs(v - median) for v in values)[len(values) // 2]
            deviation = value - state["ewma"]
            if mad > 0:
                score = 0.6745 * deviation / mad
            else:
                # flat window: any departure from it is infinitely
                # surprising; report the threshold-relative magnitude
                score = 0.0 if deviation == 0 \
                    else self.threshold * (1 if deviation > 0 else -1)
            if abs(score) >= self.threshold:
                self.flagged += 1
                finding = {"baseline": state["ewma"],
                           "score": round(score, 3)}
        state["values"].append(value)
        state["seen"] += 1
        state["ewma"] += self.alpha * (value - state["ewma"])
        return finding


class TimeSeriesStore:
    """Multi-resolution metric history with a daemon scrape loop — the
    process's one sampler of counters, gauges and resource levels.

    Parameters
    ----------
    interval:
        Seconds between scrapes (the first is taken immediately on
        :meth:`start`); also the nominal width of one raw bucket.
    capacity:
        Optional ``{resolution: ring size}`` overriding
        :data:`DEFAULT_CAPACITY` (missing resolutions keep the
        default).
    max_series:
        Hard bound on distinct series names; samples for names beyond
        it are counted into ``dropped`` instead of allocating.
    clock:
        Injectable time source — deterministic documents in tests.
    registry:
        Metrics registry to scrape (and count anomalies into);
        ``None`` resolves :func:`~repro.obs.metrics.get_metrics` at
        each scrape, which on the scrape thread reaches the
        process-global registry.
    detector:
        ``True`` (default) builds an :class:`AnomalyDetector` with
        defaults; a ready-made detector is used as-is;
        ``None``/``False`` disables anomaly detection.
    sink:
        Optional :class:`~repro.obs.export.JsonlSink`; every anomaly
        is emitted as one ``series_anomaly`` event and every budget
        breach as one ``resource_breach`` event.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder`; every
        anomaly triggers a ``series_anomaly`` diagnostic bundle and
        every budget breach a ``watchdog_breach`` one (rate-limited by
        the recorder itself).
    budgets:
        Optional ``{key: limit}`` soft budgets checked on every scrape
        — ``max_rss_mb`` (megabytes), ``max_fds``, ``max_threads``,
        ``max_cache_bytes`` (the summed ``*_cache_bytes`` gauges), or
        ``gauge:<name>`` against any gauge's current value (a gauge
        that is not published never breaches).
    """

    def __init__(self, interval: float = 1.0, *,
                 capacity: Optional[dict] = None,
                 max_series: int = 512,
                 clock: Callable[[], float] = time.time,
                 registry=None, detector=True,
                 sink=None, flight=None,
                 budgets: Optional[dict] = None,
                 anomaly_capacity: int = 256):
        if interval <= 0:
            raise ValueError("interval must be > 0 seconds")
        if max_series < 1:
            raise ValueError("max_series must be >= 1")
        self.interval = float(interval)
        self.capacity = dict(DEFAULT_CAPACITY)
        for resolution, size in (capacity or {}).items():
            if resolution not in self.capacity:
                raise ValueError(f"unknown resolution {resolution!r}")
            if size < 1:
                raise ValueError("ring capacity must be >= 1")
            self.capacity[resolution] = int(size)
        self.max_series = max_series
        self.budgets = dict(budgets or {})
        for key in self.budgets:
            if key not in BUDGET_KEYS and not key.startswith("gauge:"):
                raise ValueError(f"unknown budget {key!r}")
        self._clock = clock
        self._registry = registry
        if detector is True:
            detector = AnomalyDetector()
        elif detector in (None, False):
            detector = None
        self.detector = detector
        self._sink = sink
        self._flight = flight
        self._lock = threading.Lock()
        self._series: dict[str, _Series] = {}
        self._anomalies: deque[dict] = deque(maxlen=anomaly_capacity)
        self._prev_counters: dict[str, int] = {}
        self._prev_time: Optional[float] = None
        self.scrapes = 0  # lifetime scrape-loop passes
        self.dropped = 0  # samples refused by the max_series bound
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the scrape thread is currently alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TimeSeriesStore":
        """Take one scrape now and start the daemon loop."""
        if self.running:
            return self
        self._stop.clear()
        self.scrape()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-timeseries",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "TimeSeriesStore":
        """Stop and join the scrape thread (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        return self

    def __enter__(self) -> "TimeSeriesStore":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.scrape()

    # -- sampling ----------------------------------------------------------

    def _metrics(self):
        return self._registry if self._registry is not None \
            else get_metrics()

    def scrape(self, now: Optional[float] = None) -> int:
        """Take one sample of everything — registry and process
        probes — and check the budgets; returns the number of series
        that received a point."""
        if now is None:
            now = self._clock()
        metrics = self._metrics()
        process = probe_process()
        if metrics.enabled:
            for gauge, value in zip(WATCHDOG_GAUGES, process.values()):
                if value is not None:
                    metrics.gauge_set(gauge, value)
            counters = metrics.counters
            gauges = {name: data["value"]
                      for name, data in metrics.gauges.items()}
            histograms = getattr(metrics, "histograms", {})
        else:
            counters, gauges, histograms = {}, {}, {}
        with self._lock:
            previous, previous_time = \
                self._prev_counters, self._prev_time
            self._prev_counters = dict(counters)
            self._prev_time = now
            self.scrapes += 1
        recorded = 0
        if previous_time is not None:
            rates = counter_rates(counters, previous,
                                  now - previous_time)
            for name, rate in rates.items():
                recorded += self.record(f"counter:{name}", rate,
                                        kind="rate", now=now)
        for name, value in gauges.items():
            recorded += self.record(f"gauge:{name}", value, now=now)
        for name, data in histograms.items():
            for quantile in ("p50", "p99"):
                value = data.get(quantile)
                if value is not None:
                    recorded += self.record(f"hist:{name}:{quantile}",
                                            value, now=now)
        for field in ("rss_bytes", "open_fds", "threads"):
            if process[field] is not None:
                recorded += self.record(f"resource:{field}",
                                        process[field], now=now)
        for key, limit in self.budgets.items():
            value = _budget_value(key, process, gauges)
            if value is not None and value > limit:
                self._breach(key, limit, value, now, metrics)
        return recorded

    def record(self, name: str, value: float, kind: str = "level",
               now: Optional[float] = None) -> int:
        """Record one point of ``name`` at ``now``; returns 1 when the
        point was stored, 0 when the ``max_series`` bound dropped it.

        The scrape loop records through here; so can out-of-loop
        feeders of custom series.
        """
        if now is None:
            now = self._clock()
        value = float(value)
        with self._lock:
            series = self._series.get(name)
            if series is None:
                if len(self._series) >= self.max_series:
                    self.dropped += 1
                    return 0
                series = self._series[name] = _Series(
                    name, kind, self.capacity)
            raw_bucket = series.record(now, value)
        if self.detector is not None:
            finding = self.detector.check(name, value)
            if finding is not None:
                self._flag_anomaly(series, raw_bucket, name, value,
                                   now, finding)
        return 1

    def _breach(self, key: str, limit: float, value: float,
                now: float, metrics) -> None:
        if metrics.enabled:
            metrics.inc("watchdog_breaches")
        if self._sink is not None:
            self._sink.emit("resource_breach",
                            {"timestamp": now, "budget": key,
                             "limit": limit, "value": value})
        if self._flight is not None:
            self._flight.trigger("watchdog_breach")
        _log.warning("resource budget %s breached: %s > %s",
                     key, value, limit)

    def _flag_anomaly(self, series: _Series, raw_bucket: list,
                      name: str, value: float, now: float,
                      finding: dict) -> None:
        with self._lock:
            series.mark_anomalous(raw_bucket)
            anomaly = {"series": name, "timestamp": now,
                       "value": value,
                       "baseline": finding["baseline"],
                       "score": finding["score"]}
            self._anomalies.append(anomaly)
        metrics = self._metrics()
        if metrics.enabled:
            metrics.inc("timeseries_anomalies")
        if self._sink is not None:
            self._sink.emit("series_anomaly", anomaly)
        if self._flight is not None:
            self._flight.trigger("series_anomaly")
        _log.warning("series anomaly: %s=%g (baseline %g, score %g)",
                     name, value, finding["baseline"],
                     finding["score"])

    # -- reading -----------------------------------------------------------

    @property
    def resolutions(self) -> dict[str, float]:
        """Resolution name -> bucket width in seconds."""
        return {"raw": self.interval, **RESOLUTION_SECONDS}

    def names(self) -> list[str]:
        """The tracked series names, sorted."""
        with self._lock:
            return sorted(self._series)

    def series(self, name: str, window: Optional[float] = None,
               resolution: str = "raw",
               now: Optional[float] = None) -> list[dict]:
        """The buckets of ``name`` at ``resolution``, oldest first.

        ``window`` (seconds) keeps only buckets starting at or after
        ``now - window``; an unknown name is an empty list.
        """
        if resolution not in self.resolutions:
            raise ValueError(f"unknown resolution {resolution!r}")
        with self._lock:
            series = self._series.get(name)
            buckets = [list(bucket) for bucket in
                       series.rings[resolution]] \
                if series is not None else []
        if window is not None:
            if now is None:
                now = self._clock()
            horizon = now - window
            buckets = [bucket for bucket in buckets
                       if bucket[_START] >= horizon]
        return [_bucket_dict(bucket) for bucket in buckets]

    def anomalies(self) -> list[dict]:
        """The retained anomaly findings, oldest first."""
        with self._lock:
            return [dict(entry) for entry in self._anomalies]

    def as_json(self, now: Optional[float] = None,
                name: Optional[str] = None,
                window: Optional[float] = None,
                resolution: Optional[str] = None) -> dict:
        """The ``/seriesz`` document (:data:`SERIES_FIELDS`).

        Deterministic: series sorted by name, buckets oldest first, so
        under a frozen clock an HTTP fetch and this call agree
        byte-for-byte once both are rendered with ``sort_keys``.
        ``name``/``window``/``resolution`` mirror the query-string
        filters; a ``name`` ending in ``:`` (``resource:``,
        ``gauge:``) selects every series of that family.
        """
        if now is None:
            now = self._clock()
        if resolution is not None and \
                resolution not in self.resolutions:
            raise ValueError(f"unknown resolution {resolution!r}")
        wanted = (resolution,) if resolution is not None \
            else tuple(self.resolutions)
        with self._lock:
            names = sorted(series_name for series_name in self._series
                           if _selects(name, series_name))
            frozen = {
                series_name: (self._series[series_name].kind,
                              {level: [list(bucket) for bucket in
                                       self._series[series_name]
                                       .rings[level]]
                               for level in wanted})
                for series_name in names
            }
            anomalies = [dict(entry) for entry in self._anomalies]
            scrapes, dropped = self.scrapes, self.dropped
        horizon = now - window if window is not None else None
        document_series = {}
        for series_name, (kind, rings) in frozen.items():
            points = {}
            for level, buckets in rings.items():
                if horizon is not None:
                    buckets = [bucket for bucket in buckets
                               if bucket[_START] >= horizon]
                points[level] = [_bucket_dict(bucket)
                                 for bucket in buckets]
            document_series[series_name] = {"kind": kind,
                                            "points": points}
        if name is not None:
            anomalies = [entry for entry in anomalies
                         if _selects(name, entry["series"])]
        if horizon is not None:
            anomalies = [entry for entry in anomalies
                         if entry["timestamp"] >= horizon]
        return {
            "schema": SERIES_SCHEMA_VERSION,
            "generated_at": now,
            "interval_seconds": self.interval,
            "resolutions": self.resolutions,
            "capacity": dict(self.capacity),
            "scrapes": scrapes,
            "dropped": dropped,
            "series": document_series,
            "anomalies": anomalies,
        }

    # -- memory accounting -------------------------------------------------

    def memory_bound(self) -> int:
        """The documented worst-case bytes of retained bucket storage:
        ``max_series`` series times the summed ring capacities times
        :data:`BUCKET_BYTES` (plus the anomaly ring at the same
        per-entry allowance).  The size test measures the real
        footprint against this figure."""
        buckets_per_series = sum(self.capacity.values())
        return (self.max_series * buckets_per_series +
                (self._anomalies.maxlen or 0)) * BUCKET_BYTES

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)
