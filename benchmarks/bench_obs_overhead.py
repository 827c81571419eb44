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
  profiling layer on top: a 50 hz :class:`StackSampler` and a
  1-second :class:`ResourceWatchdog` running on their daemon threads.
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

Timings use min-of-rounds (the standard noise-robust estimator for
"how fast can this go"); each round runs the whole workload.
"""

import time

import repro.core.engine as engine_mod
import repro.core.kernel as kernel_mod
import repro.core.lattice as lattice_mod
import repro.core.lattice_machine as machine_mod
import repro.index.inverted as inverted_mod
import repro.obs.metrics as metrics_mod
import repro.runtime.session as session_mod
from repro.obs import metrics_scope
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracing import NULL_TRACER
from repro.runtime import SearchSession
from repro.evaluation.reporting import format_table

from conftest import report

#: Every module whose hot path resolves a registry via get_metrics().
_INSTRUMENTED_MODULES = (engine_mod, kernel_mod, lattice_mod, machine_mod,
                         inverted_mod, session_mod)

PATTERNS = ["(xx)", "(x(xx))", "((xx)(xx))"]
ROUNDS = 7
NULL_TOLERANCE = 0.05
ACTIVE_TOLERANCE = 0.15
PROFILED_TOLERANCE = 0.10
WIDE_TOLERANCE = 0.10
SERIES_TOLERANCE = 0.05
SAMPLER_HZ = 50
WATCHDOG_INTERVAL = 1.0
SERIES_INTERVAL = 1.0


def _workload(index):
    import random
    from repro.datasets.workloads import instantiate
    rng = random.Random(7)
    return [str(instantiate(pattern, index, rng))
            for pattern in PATTERNS for _ in range(4)]


def _time_workload(session, queries, rounds=ROUNDS):
    """Min-of-rounds wall time of running every query once.

    The plan / posting caches are warmed first so every round does the
    same work (the engine still evaluates each query; only parsing and
    posting fetch hit the caches)."""
    for query in queries:
        session.search(query)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for query in queries:
            session.search(query)
        best = min(best, time.perf_counter() - start)
    return best


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


def test_observability_overhead(benchmark, efficiency_indexes):
    _, index = efficiency_indexes["dblp"]
    session = SearchSession(index)
    queries = _workload(index)

    def compute():
        with _NoScope():
            with _Stubbed():
                stubbed = _time_workload(session, queries)
            null = _time_workload(session, queries)
        with metrics_scope():
            active = _time_workload(session, queries)
        return stubbed, null, active

    stubbed, null, active = benchmark.pedantic(compute, rounds=1,
                                               iterations=1)
    null_overhead = null / stubbed - 1.0
    active_overhead = active / null - 1.0
    report("Observability overhead (hot loop, min of "
           f"{ROUNDS} rounds, {len(queries)} queries/round)",
           format_table(
               ["configuration", "ms / round", "overhead"],
               [["stubbed (no get_metrics)",
                 f"{stubbed * 1000:.2f}", "--"],
                ["null (shipped default)", f"{null * 1000:.2f}",
                 f"{null_overhead * 100:+.1f}% vs stubbed"],
                ["active registry", f"{active * 1000:.2f}",
                 f"{active_overhead * 100:+.1f}% vs null"]]))

    # The shipped default must be indistinguishable from a build with
    # no observability layer, and a live registry must stay cheap.
    assert null <= stubbed * (1.0 + NULL_TOLERANCE), \
        f"null path {null_overhead * 100:.1f}% over stubbed " \
        f"(allowed {NULL_TOLERANCE * 100:.0f}%)"
    assert active <= null * (1.0 + ACTIVE_TOLERANCE), \
        f"active registry {active_overhead * 100:.1f}% over null " \
        f"(allowed {ACTIVE_TOLERANCE * 100:.0f}%)"


def test_continuous_profiling_overhead(benchmark, efficiency_indexes):
    """A 50 hz sampler plus a 1 s watchdog must not slow the serving
    path by more than 10% over the metrics-only baseline — the price
    of leaving continuous profiling on for the life of a service."""
    _, index = efficiency_indexes["dblp"]
    session = SearchSession(index)
    queries = _workload(index)

    def compute():
        with metrics_scope():
            active = _time_workload(session, queries)
        with metrics_scope() as registry:
            session.start_watchdog(interval=WATCHDOG_INTERVAL,
                                   registry=registry)
            session.start_cpu_profiler(hz=SAMPLER_HZ)
            try:
                profiled = _time_workload(session, queries)
            finally:
                profiler = session.stop_cpu_profiler()
                watchdog = session.stop_watchdog()
        return active, profiled, profiler.sample_count, \
            watchdog.sampled

    active, profiled, samples, snaps = benchmark.pedantic(
        compute, rounds=1, iterations=1)
    overhead = profiled / active - 1.0
    report("Continuous profiling overhead "
           f"({SAMPLER_HZ} hz sampler + {WATCHDOG_INTERVAL:.0f} s "
           f"watchdog, min of {ROUNDS} rounds)",
           format_table(
               ["configuration", "ms / round", "overhead"],
               [["active registry", f"{active * 1000:.2f}", "--"],
                [f"+ sampler/watchdog ({samples} samples, "
                 f"{snaps} snapshots)", f"{profiled * 1000:.2f}",
                 f"{overhead * 100:+.1f}% vs active"]]))
    assert profiled <= active * (1.0 + PROFILED_TOLERANCE), \
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

    def compute():
        with metrics_scope():
            active = _time_workload(session, queries)
        sink = JsonlSink(tmp_path / "wide.jsonl",
                         max_bytes=64 * 1024 * 1024)
        with metrics_scope() as registry:
            engine = SLOEngine(registry=registry, sink=sink)
            recorder = FlightRecorder(registry=registry, slo=engine)
            session.attach_event_sink(sink)
            session.attach_flight_recorder(recorder)
            session.attach_slo_engine(engine)
            try:
                wide = _time_workload(session, queries)
            finally:
                session.attach_slo_engine(None)
                session.attach_flight_recorder(None)
                session.attach_event_sink(None)
                sink.close()
        return active, wide, engine.recorded, recorder.ring.recorded

    active, wide, evaluated, ringed = benchmark.pedantic(
        compute, rounds=1, iterations=1)
    overhead = wide / active - 1.0
    report("Wide-event + SLO pipeline overhead "
           f"(sink + ring + burn rates, min of {ROUNDS} rounds)",
           format_table(
               ["configuration", "ms / round", "overhead"],
               [["active registry", f"{active * 1000:.2f}", "--"],
                [f"+ wide events/SLO ({evaluated} evaluated, "
                 f"{ringed} ringed)", f"{wide * 1000:.2f}",
                 f"{overhead * 100:+.1f}% vs active"]]))
    assert evaluated == ringed > 0  # every query produced one event
    assert wide <= active * (1.0 + WIDE_TOLERANCE), \
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

    def compute():
        with metrics_scope():
            active = _time_workload(session, queries)
        with metrics_scope() as registry:
            with TimeSeriesStore(SERIES_INTERVAL,
                                 registry=registry) as store:
                scraped = _time_workload(session, queries)
                tracked = len(store)
        return active, scraped, store.scrapes, tracked

    active, scraped, scrapes, tracked = benchmark.pedantic(
        compute, rounds=1, iterations=1)
    overhead = scraped / active - 1.0
    report("Time-series scrape overhead "
           f"({SERIES_INTERVAL:.0f} s interval, min of {ROUNDS} "
           f"rounds)",
           format_table(
               ["configuration", "ms / round", "overhead"],
               [["active registry", f"{active * 1000:.2f}", "--"],
                [f"+ scrape loop ({scrapes} scrapes, {tracked} "
                 f"series)", f"{scraped * 1000:.2f}",
                 f"{overhead * 100:+.1f}% vs active"]]))
    assert scrapes >= 1 and tracked > 0  # the loop actually sampled
    assert scraped <= active * (1.0 + SERIES_TOLERANCE), \
        f"scrape loop {overhead * 100:.1f}% over the metrics-only " \
        f"baseline (allowed {SERIES_TOLERANCE * 100:.0f}%)"
