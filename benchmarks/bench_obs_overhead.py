"""Observability overhead — the cost discipline, measured.

docs/OBSERVABILITY.md promises that instrumentation "costs near zero
by default": hot paths batch counts into plain integers and flush once
per run, and :func:`repro.obs.get_metrics` hands back the no-op
``NULL_METRICS`` singleton unless a registry is active.  This harness
holds the layer to that promise on a realistic hot loop (a query
workload through one :class:`SearchSession`):

* **stubbed** — ``get_metrics`` monkeypatched to return the null
  singleton directly, i.e. the lookup machinery (context-var scope +
  global fallback) compiled away.  The floor a build with no
  observability layer at all would hit.
* **null** — the shipped default: real ``get_metrics`` resolution,
  no registry active.  Must be within 5% of stubbed.
* **active** — a live :class:`MetricsRegistry` in scope, counters,
  histograms and spans all recording.  Must cost < 15% over null.
* **profiled** — the active configuration with the continuous
  profiling layer on top: a whole-process 50 hz :class:`StackSampler`
  and a 1-second :class:`TimeSeriesStore` (the process's one resource
  sampler) over the active registry, each started directly and
  running on its daemon thread.
  Must cost < 10% over the metrics-only active baseline — the
  always-on-in-production promise of docs/OBSERVABILITY.md's
  "Continuous profiling" section.
* **wide+slo** — the active configuration plus the full per-request
  observability pipeline: one wide event per query fanned out to a
  :class:`JsonlSink`, the :class:`FlightRecorder` ring and a
  default-objective :class:`SLOEngine`.  Must cost < 10% over the
  metrics-only active baseline — the always-on promise of
  docs/OBSERVABILITY.md's "SLOs, wide events and the flight
  recorder" section.
* **scraped** — the active configuration with a 1-second
  :class:`TimeSeriesStore` scrape loop (anomaly detector included)
  running on its daemon thread.  Must cost < 5% over the metrics-only
  active baseline — the scrape loop reads registry snapshots off the
  hot path, so its cost must be noise.

Each comparison runs its two configurations alternately, round by
round (the order flipping every round), and asserts on the median of
the per-round ratios: a load spike on a shared host slows both halves
of a round alike, so the ratio stays steady where the minimum of each
configuration's own rounds does not.  Each round runs the whole
workload once per configuration.
"""

import statistics
import time
from contextlib import contextmanager

import repro.core.engine as engine_mod
import repro.core.kernel as kernel_mod
import repro.core.lattice as lattice_mod
import repro.core.lattice_machine as machine_mod
import repro.index.inverted as inverted_mod
import repro.obs.metrics as metrics_mod
import repro.runtime.session as session_mod
from repro.obs import metrics_scope
from repro.obs.metrics import NULL_METRICS
from repro.obs.sampler import StackSampler
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracing import NULL_TRACER
from repro.runtime import SearchSession
from repro.evaluation.reporting import format_table

from conftest import report

#: Every module whose hot path resolves a registry via get_metrics().
_INSTRUMENTED_MODULES = (engine_mod, kernel_mod, lattice_mod, machine_mod,
                         inverted_mod, session_mod)

PATTERNS = ["(xx)", "(x(xx))", "((xx)(xx))"]
ROUNDS = 21
NULL_TOLERANCE = 0.05
ACTIVE_TOLERANCE = 0.15
PROFILED_TOLERANCE = 0.10
WIDE_TOLERANCE = 0.10
SERIES_TOLERANCE = 0.05
SAMPLER_HZ = 50
SERIES_INTERVAL = 1.0


def _workload(index):
    import random
    from repro.datasets.workloads import instantiate
    rng = random.Random(7)
    return [str(instantiate(pattern, index, rng))
            for pattern in PATTERNS for _ in range(4)]


def _paired_ratio(session, queries, baseline, treatment,
                  rounds=ROUNDS):
    """Median per-round ``treatment / baseline`` wall-time ratio.

    ``baseline`` and ``treatment`` are zero-argument context-manager
    factories; each round enters one, runs every query once, then the
    other, flipping the order every round.  The plan / posting caches
    are warmed first so every round does the same work (the engine
    still evaluates each query; only parsing and posting fetch hit the
    caches).  Returns ``(median ratio, baseline best, treatment
    best)``, the bests being min-of-rounds seconds for the report."""
    for configuration in (baseline, treatment):
        with configuration():
            for query in queries:
                session.search(query)
    ratios = []
    best = {baseline: float("inf"), treatment: float("inf")}
    for round_number in range(rounds):
        order = (baseline, treatment) if round_number % 2 == 0 \
            else (treatment, baseline)
        elapsed = {}
        for configuration in order:
            with configuration():
                start = time.perf_counter()
                for query in queries:
                    session.search(query)
                elapsed[configuration] = time.perf_counter() - start
            best[configuration] = min(best[configuration],
                                      elapsed[configuration])
        ratios.append(elapsed[treatment] / elapsed[baseline])
    return statistics.median(ratios), best[baseline], best[treatment]


class _NoScope:
    """Temporarily deactivate the harness's autouse metrics scope, so
    the null/stubbed configurations measure the true default path."""

    def __enter__(self):
        self._token = metrics_mod._ACTIVE.set(None)
        return self

    def __exit__(self, *exc):
        metrics_mod._ACTIVE.reset(self._token)
        return False


class _Stubbed:
    """Patch get_metrics (and the session's get_tracer) to direct null
    returns in every hot module."""

    def __enter__(self):
        self._saved = [(module, module.get_metrics)
                       for module in _INSTRUMENTED_MODULES]
        for module in _INSTRUMENTED_MODULES:
            module.get_metrics = lambda: NULL_METRICS
        self._saved_tracer = session_mod.get_tracer
        session_mod.get_tracer = lambda: NULL_TRACER
        return self

    def __exit__(self, *exc):
        for module, original in self._saved:
            module.get_metrics = original
        session_mod.get_tracer = self._saved_tracer
        return False


@contextmanager
def _stubbed():
    with _NoScope(), _Stubbed():
        yield


@contextmanager
def _null():
    with _NoScope():
        yield


def _overhead_row(label, seconds, ratio, versus):
    return [label, f"{seconds * 1000:.2f}",
            f"{(ratio - 1.0) * 100:+.1f}% vs {versus}"]


def test_observability_overhead(benchmark, efficiency_indexes):
    _, index = efficiency_indexes["dblp"]
    session = SearchSession(index)
    queries = _workload(index)

    def compute():
        return (_paired_ratio(session, queries, _stubbed, _null),
                _paired_ratio(session, queries, _null, metrics_scope))

    (null_ratio, stubbed, null), (active_ratio, _, active) = \
        benchmark.pedantic(compute, rounds=1, iterations=1)
    null_overhead = null_ratio - 1.0
    active_overhead = active_ratio - 1.0
    report("Observability overhead (hot loop, median per-round ratio "
           f"of {ROUNDS} alternating rounds, {len(queries)} "
           "queries/round; ms = best round)",
           format_table(
               ["configuration", "ms / round", "overhead"],
               [["stubbed (no get_metrics)",
                 f"{stubbed * 1000:.2f}", "--"],
                _overhead_row("null (shipped default)", null,
                              null_ratio, "stubbed"),
                _overhead_row("active registry", active, active_ratio,
                              "null")]))

    # The shipped default must be indistinguishable from a build with
    # no observability layer, and a live registry must stay cheap.
    assert null_ratio <= 1.0 + NULL_TOLERANCE, \
        f"null path {null_overhead * 100:.1f}% over stubbed " \
        f"(allowed {NULL_TOLERANCE * 100:.0f}%)"
    assert active_ratio <= 1.0 + ACTIVE_TOLERANCE, \
        f"active registry {active_overhead * 100:.1f}% over null " \
        f"(allowed {ACTIVE_TOLERANCE * 100:.0f}%)"


def test_continuous_profiling_overhead(benchmark, efficiency_indexes):
    """A 50 hz sampler plus a 1 s time-series store must not slow the
    serving path by more than 10% over the metrics-only baseline — the
    price of leaving continuous profiling on for the life of a
    service."""
    _, index = efficiency_indexes["dblp"]
    session = SearchSession(index)
    queries = _workload(index)
    totals = {"samples": 0, "scrapes": 0}

    @contextmanager
    def profiled():
        with metrics_scope() as registry:
            store = TimeSeriesStore(SERIES_INTERVAL,
                                    registry=registry).start()
            sampler = StackSampler(hz=SAMPLER_HZ).start()
            try:
                yield
            finally:
                store.stop()
                sampler.stop()
        totals["samples"] += sampler.sample_count
        totals["scrapes"] += store.scrapes

    def compute():
        return _paired_ratio(session, queries, metrics_scope, profiled)

    ratio, active, profiled_best = benchmark.pedantic(
        compute, rounds=1, iterations=1)
    overhead = ratio - 1.0
    report("Continuous profiling overhead "
           f"({SAMPLER_HZ} hz sampler + {SERIES_INTERVAL:.0f} s "
           f"time-series store, median ratio of {ROUNDS} alternating "
           "rounds)",
           format_table(
               ["configuration", "ms / round", "overhead"],
               [["active registry", f"{active * 1000:.2f}", "--"],
                _overhead_row(
                    f"+ sampler/store ({totals['samples']} samples, "
                    f"{totals['scrapes']} scrapes)", profiled_best,
                    ratio, "active")]))
    assert totals["scrapes"] >= 1  # the store actually sampled
    assert ratio <= 1.0 + PROFILED_TOLERANCE, \
        f"profiled path {overhead * 100:.1f}% over the metrics-only " \
        f"baseline (allowed {PROFILED_TOLERANCE * 100:.0f}%)"


def test_wide_event_slo_overhead(benchmark, efficiency_indexes,
                                 tmp_path):
    """The full per-request pipeline — wide events fanned out to the
    JSONL sink, the flight-recorder ring and a default-objective SLO
    engine — must not slow the serving path by more than 10% over the
    metrics-only baseline: the price of leaving wide-event logging and
    burn-rate evaluation on for the life of a service."""
    from repro.obs import FlightRecorder, JsonlSink, SLOEngine
    _, index = efficiency_indexes["dblp"]
    session = SearchSession(index)
    queries = _workload(index)
    sink = JsonlSink(tmp_path / "wide.jsonl", max_bytes=64 * 1024 * 1024)
    engine = SLOEngine(sink=sink)
    recorder = FlightRecorder(slo=engine)

    @contextmanager
    def wide():
        with metrics_scope():
            session.attach_event_sink(sink)
            session.attach_flight_recorder(recorder)
            session.attach_slo_engine(engine)
            try:
                yield
            finally:
                session.attach_slo_engine(None)
                session.attach_flight_recorder(None)
                session.attach_event_sink(None)

    def compute():
        try:
            return _paired_ratio(session, queries, metrics_scope, wide)
        finally:
            sink.close()

    ratio, active, wide_best = benchmark.pedantic(
        compute, rounds=1, iterations=1)
    overhead = ratio - 1.0
    evaluated, ringed = engine.recorded, recorder.ring.recorded
    report("Wide-event + SLO pipeline overhead "
           "(sink + ring + burn rates, median ratio of "
           f"{ROUNDS} alternating rounds)",
           format_table(
               ["configuration", "ms / round", "overhead"],
               [["active registry", f"{active * 1000:.2f}", "--"],
                _overhead_row(
                    f"+ wide events/SLO ({evaluated} evaluated, "
                    f"{ringed} ringed)", wide_best, ratio,
                    "active")]))
    assert evaluated == ringed > 0  # every query produced one event
    assert ratio <= 1.0 + WIDE_TOLERANCE, \
        f"wide-event pipeline {overhead * 100:.1f}% over the " \
        f"metrics-only baseline (allowed {WIDE_TOLERANCE * 100:.0f}%)"


def test_timeseries_scrape_overhead(benchmark, efficiency_indexes):
    """A 1-second time-series scrape loop (downsampling + anomaly
    detection included) must not slow the serving path by more than 5%
    over the metrics-only baseline — the scrape runs off the hot path
    on its own daemon thread, so the history behind ``/seriesz`` and
    ``cohesive-search top`` must come at noise-level cost."""
    from repro.obs.timeseries import TimeSeriesStore
    _, index = efficiency_indexes["dblp"]
    session = SearchSession(index)
    queries = _workload(index)
    totals = {"scrapes": 0, "series": 0}

    @contextmanager
    def scraped():
        with metrics_scope() as registry:
            with TimeSeriesStore(SERIES_INTERVAL,
                                 registry=registry) as store:
                yield
        totals["scrapes"] += store.scrapes
        totals["series"] = max(totals["series"], len(store))

    def compute():
        return _paired_ratio(session, queries, metrics_scope, scraped)

    ratio, active, scraped_best = benchmark.pedantic(
        compute, rounds=1, iterations=1)
    overhead = ratio - 1.0
    report("Time-series scrape overhead "
           f"({SERIES_INTERVAL:.0f} s interval, median ratio of "
           f"{ROUNDS} alternating rounds)",
           format_table(
               ["configuration", "ms / round", "overhead"],
               [["active registry", f"{active * 1000:.2f}", "--"],
                _overhead_row(
                    f"+ scrape loop ({totals['scrapes']} scrapes, "
                    f"{totals['series']} series)", scraped_best, ratio,
                    "active")]))
    assert totals["scrapes"] >= 1 and totals["series"] > 0
    assert ratio <= 1.0 + SERIES_TOLERANCE, \
        f"scrape loop {overhead * 100:.1f}% over the metrics-only " \
        f"baseline (allowed {SERIES_TOLERANCE * 100:.0f}%)"
