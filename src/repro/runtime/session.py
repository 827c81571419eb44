"""The search runtime: compiled-plan caching and a unified facade.

A :class:`SearchSession` owns a loaded :class:`~repro.index.inverted.
InvertedIndex` plus two LRU caches:

* the **plan cache** — normalized query text → parsed
  :class:`~repro.core.query.Query` + compiled signature lattice
  (:class:`~repro.core.signatures.CompiledQuery`), so repeated queries
  skip parsing and lattice compilation entirely;
* the **posting-slice cache** — normalized keyword → the keyword's
  immutable posting tuple, so a workload touching the same keywords
  skips the index round trip (and its per-request accounting).

One :meth:`SearchSession.search` facade routes every evaluation mode —
the CohesiveLCA engine, the literal lattice machine, the four flat
baselines, size/vector/skyline ranking, top-k-size and bounded-size
search — on a :class:`~repro.runtime.options.SearchOptions` value, and
:meth:`SearchSession.search_batch` executes a whole query workload
against **one** shared Dewey-order scan (see :mod:`repro.runtime.batch`).

Cache effectiveness is observable: ``plan_cache_{hits,misses,
evictions}`` and ``posting_cache_{...}`` counters report to the active
metrics registry, and :meth:`SearchSession.cache_stats` exposes
lifetime numbers (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from repro.core.engine import merge_posting_streams
from repro.core.kernel import (ENGINE_COUNTERS, evaluate_compiled_flat,
                               push_evaluation_flat)
from repro.core.parser import parse_query
from repro.core.query import Query
from repro.core.results import Result
from repro.core.signatures import CompiledQuery, compile_query
from repro.index.inverted import InvertedIndex, Posting
from repro.obs import get_logger, get_metrics, metrics_scope
from repro.obs.metrics import AnyMetrics
from repro.obs.profile import QueryProfile, SlowQueryLog
from repro.obs.tracing import get_tracer
from repro.obs.wideevent import wide_event
from repro.runtime.cache import LRUCache
from repro.runtime.options import OptionsError, SearchOptions
from repro.tree.tree import DataTree

_log = get_logger("runtime.session")

#: Counter catalogue of the runtime layer (see docs/OBSERVABILITY.md).
RUNTIME_COUNTERS = (
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_evictions",
    "posting_cache_hits",
    "posting_cache_misses",
    "posting_cache_evictions",
    "batch_queries",
    "batch_distinct_plans",
    "batch_scan_nodes",
    "slow_queries_recorded",
)

#: The counters each wide event snapshots before/after one request to
#: derive its per-request cost fields (bytes decoded, cache hit flags).
_WIDE_COUNTERS = (
    "posting_decode_bytes",
    "plan_cache_hits",
    "plan_cache_misses",
    "posting_cache_hits",
    "posting_cache_misses",
)

#: Gauge catalogue of the runtime layer (see docs/OBSERVABILITY.md).
#: The cache gauges are published by ``LRUCache._publish_gauges`` under
#: its ``{name}_entries`` / ``{name}_bytes`` scheme.
RUNTIME_GAUGES = (
    "plan_cache_entries",
    "plan_cache_bytes",
    "posting_cache_entries",
    "posting_cache_bytes",
    "session_inflight_queries",
)


@dataclass(frozen=True)
class _SessionState:
    """One coherent (index, plan cache, posting cache) triple.

    Searches capture the state once at entry and use it throughout, so
    a concurrent :meth:`SearchSession.swap_index` can never hand a
    request the new index with the old caches (or vice versa): the
    swap builds a whole new state and publishes it with one atomic
    attribute assignment.
    """

    index: InvertedIndex
    plans: "LRUCache"
    postings: "LRUCache"


@dataclass(frozen=True)
class CompiledPlan:
    """A query lowered once, reused across an entire session.

    ``key`` is the canonical query text (the parsed query rendered
    back), which identifies the plan across whitespace variants and is
    the deduplication key of the shared-scan batch executor.
    """

    key: str
    query: Query
    compiled: CompiledQuery

    @property
    def keywords(self) -> tuple[str, ...]:
        """The plan's normalized distinct keywords."""
        return tuple(self.compiled.atoms)


class SearchSession:
    """A long-lived search runtime over one inverted index.

    Example::

        session = SearchSession(index)
        results = session.search("(XML (John Smith) (George Brown))")
        top = session.search(query, SearchOptions(top_k=5))
        all_answers = session.search_batch(workload)   # one shared scan

    Sessions are cheap to construct but meant to persist: the caches
    amortize per-query setup across a workload, which is where the
    paper's cost model says the time goes (§3 — the evaluation is one
    pass over the inverted lists; everything else is overhead that
    repeats identically per query).

    Thread-safety: searches may run concurrently from many threads
    over one session (the search server shares one session across its
    whole worker pool).  Each search captures the session's
    ``(index, caches)`` state once at entry, the caches lock their
    structural mutations, and :meth:`swap_index` publishes a whole new
    state atomically — so a hot swap mid-request can never produce a
    torn read.
    """

    def __init__(self, index: InvertedIndex,
                 plan_cache_size: int = 128,
                 posting_cache_size: int = 512,
                 slow_query_threshold: Optional[float] = None,
                 slow_log_capacity: int = 32,
                 event_sink=None):
        self._state = _SessionState(
            index,
            LRUCache("plan_cache", plan_cache_size),
            LRUCache("posting_cache", posting_cache_size))
        self._swap_lock = threading.Lock()
        self._slow_log: Optional[SlowQueryLog] = None
        if slow_query_threshold is not None:
            self._slow_log = SlowQueryLog(slow_query_threshold,
                                          slow_log_capacity)
        self._event_sink = event_sink
        self._profiler = None
        self._slo = None
        self._flight = None
        self._generation = 0

    # -- index ownership ----------------------------------------------------

    @classmethod
    def from_store(cls, path, tokenizer=None, **sizes) -> "SearchSession":
        """A session over an on-disk posting store (format autodetected).

        CKSIDX2 stores open lazily — the session is ready after reading
        only the store's directory, and each keyword's posting block is
        decoded the first time the posting cache misses on it.  Legacy
        CKSIDX1 stores load eagerly, as before.
        """
        from repro.index.store_v2 import open_index
        return cls(open_index(path, tokenizer), **sizes)

    @property
    def index(self) -> InvertedIndex:
        """The index this session searches."""
        return self._state.index

    @property
    def generation(self) -> int:
        """How many times the index has been hot-swapped (0 = the
        index the session was constructed with)."""
        return self._generation

    @property
    def _index(self) -> InvertedIndex:
        return self._state.index

    @property
    def _plans(self) -> LRUCache:
        return self._state.plans

    @property
    def _postings_cache(self) -> LRUCache:
        return self._state.postings

    def swap_index(self, index: InvertedIndex) -> None:
        """Point the session at a different index, atomically.

        Both caches are flushed (their lifetime statistics carry
        over): plans embed the old tokenizer's normalization and
        posting slices belong to the old index, so a stale hit could
        silently search the wrong data.  The new (index, caches)
        triple is published as one state assignment, so a search
        running concurrently on another thread either completes
        entirely on the old state or starts entirely on the new one —
        never a mix.  The old index object is left open: in-flight
        requests may still be decoding from it (the caller that wants
        to ``close()`` a retired mmap store must wait for its
        requests to drain, as the search server does).
        """
        with self._swap_lock:
            state = self._state
            self._state = _SessionState(index,
                                        state.plans.successor(),
                                        state.postings.successor())
            self._generation += 1
        metrics = get_metrics()
        if metrics.enabled:
            state.plans.clear(metrics)  # re-publish occupancy gauges
            state.postings.clear(metrics)
        _log.info("index swapped: %d keywords", len(index))

    def rebuild_index(self, tree: DataTree) -> None:
        """Re-index ``tree`` and swap the result in (caches flushed)."""
        self.swap_index(InvertedIndex.from_tree(tree))

    def invalidate(self) -> None:
        """Flush both caches (lifetime statistics survive)."""
        metrics = get_metrics()
        state = self._state
        state.plans.clear(metrics)
        state.postings.clear(metrics)
        _log.debug("session caches invalidated")

    # -- cache plumbing -----------------------------------------------------

    def plan(self, query: Union[str, Query],
             metrics: Optional[AnyMetrics] = None,
             state: Optional[_SessionState] = None) -> CompiledPlan:
        """The compiled plan of ``query``, from the plan cache.

        String queries are keyed by whitespace-normalized text first
        (the common repeated-workload hit costs one ``str.split``), and
        the resulting plan is also registered under its canonical text
        so equivalent spellings converge on one entry.
        """
        if metrics is None:
            metrics = get_metrics()
        if state is None:
            state = self._state
        if isinstance(query, str):
            key = " ".join(query.split())
            return state.plans.lookup(
                key, lambda: self._compile_text(key, metrics, state),
                metrics)
        return state.plans.lookup(
            str(query),
            lambda: self._compile_parsed(query, metrics, state),
            metrics)

    def _compile_text(self, text: str, metrics: AnyMetrics,
                      state: _SessionState) -> CompiledPlan:
        with metrics.span("parse"):
            query = parse_query(text)
        return self._compile_parsed(query, metrics, state)

    def _compile_parsed(self, query: Query, metrics: AnyMetrics,
                        state: _SessionState) -> CompiledPlan:
        with metrics.span("lattice-build"):
            compiled = compile_query(query,
                                     state.index.tokenizer.normalize)
        plan = CompiledPlan(str(query), query, compiled)
        # Register the canonical spelling too: "(a  B)" and "(a b)"
        # share this plan object from now on.
        if plan.key not in state.plans:
            state.plans.insert(plan.key, plan, metrics)
        return plan

    def postings(self, keyword: str, list_limit: Optional[int] = None,
                 metrics: Optional[AnyMetrics] = None,
                 state: Optional[_SessionState] = None
                 ) -> tuple[Posting, ...]:
        """The posting slice of a normalized keyword, from the cache.

        The cache stores each keyword's **full immutable tuple**;
        ``list_limit`` slices the cached value, so every limit shares
        one entry.  Tuples make a cache hit mutation-proof: no caller
        can corrupt what a later query observes.
        """
        if metrics is None:
            metrics = get_metrics()
        if state is None:
            state = self._state
        plist: tuple[Posting, ...] = state.postings.lookup(
            keyword, lambda: tuple(state.index.postings(keyword)),
            metrics)
        if list_limit is not None:
            plist = plist[:list_limit]
        return plist

    def cache_stats(self) -> dict:
        """Lifetime statistics of both caches (JSON-ready)."""
        state = self._state
        return {
            "plan_cache": state.plans.stats(),
            "posting_cache": state.postings.stats(),
        }

    # -- the facade ---------------------------------------------------------

    def search(self, query: Union[str, Query],
               options: Optional[SearchOptions] = None,
               **changes) -> list:
        """Evaluate one query under ``options`` (default settings if
        omitted); keyword arguments override individual options::

            session.search(q)                         # CohesiveLCA, Def. 3
            session.search(q, algorithm="slca")       # a flat baseline
            session.search(q, top_k=10)               # one-scan top-k
            session.search(q, rank="skyline")         # §6 semantics

        Returns :class:`~repro.core.results.Result` rows for every
        algorithm (``slca``/``elca`` report bare LCA nodes, so their
        rows carry size 0 and no term vector), except
        ``rank="vector"``, which returns scored
        :class:`~repro.core.ranking.RankedResult` rows.
        """
        options = self._resolve(options, changes)
        metrics = get_metrics()
        tracer = get_tracer()
        state = self._state  # one coherent snapshot for this request
        profiling = self._profiling
        if not (metrics.enabled or profiling or tracer.enabled):
            return self._execute(query, options, metrics, state)
        # Observed path: time the query, feed the latency histogram,
        # and hand the run to the slow-query log / event sink / SLO
        # engine / flight recorder.  When no ambient registry is
        # active, a private scope captures the phases and counters the
        # captured QueryProfile needs.
        # ``inflight`` pins the *ambient* registry: the body may rebind
        # ``metrics`` to a private scope, and the gauge must dec on the
        # same registry it inc'd.
        inflight = metrics if metrics.enabled else None
        if inflight is not None:
            inflight.gauge_inc("session_inflight_queries")
        base = self._counter_base(metrics)
        trace_id = None
        start = time.perf_counter()
        try:
            if tracer.enabled:
                results, metrics, trace_id = self._execute_traced(
                    query, options, metrics, tracer, "search", state)
            elif metrics.enabled:
                results = self._execute(query, options, metrics, state)
            else:
                with metrics_scope() as metrics:
                    results = self._execute(query, options, metrics,
                                            state)
        except Exception:
            if profiling:
                self._record_error("query", "search", options,
                                   time.perf_counter() - start,
                                   metrics, base, trace_id,
                                   query=query)
            raise
        finally:
            if inflight is not None:
                inflight.gauge_dec("session_inflight_queries")
        duration = time.perf_counter() - start
        metrics.observe("search_seconds", duration)
        if profiling:
            self._record_query(query, options, results, duration,
                               metrics, base, trace_id)
        return results

    def _execute(self, query: Union[str, Query],
                 options: SearchOptions, metrics: AnyMetrics,
                 state: Optional[_SessionState] = None) -> list:
        """Route one resolved query (the pre-profiler ``search`` body)."""
        if state is None:
            state = self._state
        if metrics.enabled:
            metrics.declare(*RUNTIME_COUNTERS)
        plan = self.plan(query, metrics, state)
        if options.algorithm == "cohesive":
            return self._search_cohesive(plan, options, metrics, state)
        if options.algorithm == "machine":
            return self._search_machine(plan, options, metrics, state)
        return self._search_baseline(plan, options, state)

    def _execute_traced(self, target, options: SearchOptions,
                        metrics: AnyMetrics, tracer, kind: str,
                        state: Optional[_SessionState] = None):
        """Run one query (``kind="search"``) or workload
        (``kind="search-batch"``) inside a trace span.

        The span roots a new trace — or joins the ambient one, e.g. a
        corpus fan-out worker that re-entered the parent's serialized
        context — and the registry phase spans recorded during the
        run are adopted into the trace as its children, so the
        timeline shows parse / lattice-build / stream-scan detail
        with no extra instrumentation.  Returns ``(results, the
        registry that observed the run, the trace id)``.
        """
        if state is None:
            state = self._state
        if kind == "search":
            runner = self._execute
            attrs = {"query": " ".join(str(target).split()),
                     "algorithm": options.algorithm}
        else:
            runner = self._execute_batch
            attrs = {"queries": len(target),
                     "algorithm": options.algorithm}
        with tracer.span(kind, **attrs) as span:
            if metrics.enabled:
                before = len(metrics.spans)
                results = runner(target, options, metrics, state)
                phase_spans = metrics.spans[before:]
            else:
                with metrics_scope() as metrics:
                    results = runner(target, options, metrics, state)
                phase_spans = metrics.spans
                # A private scope starts from zero, so the final
                # counter values ARE this span's deltas.
                for counter in ("posting_decode_bytes",
                                "plan_cache_hits",
                                "posting_cache_hits"):
                    span.set_attr(counter, metrics.counter(counter))
            if kind == "search":
                span.set_attr("result_count", len(results))
            else:
                span.set_attr("result_count",
                              sum(len(rows) for rows in results))
            tracer.adopt_phases(phase_spans, parent=span)
            trace_id = span.trace_id
        return results, metrics, trace_id

    def stream(self, query: Union[str, Query],
               options: Optional[SearchOptions] = None,
               **changes) -> Iterator[Result]:
        """Yield engine results lazily as their nodes finalize.

        The streaming analogue of :meth:`search` (``cohesive``
        algorithm, no ranking): same answer set, post-order yield
        discipline — sort by :meth:`Result.sort_key` for Def. 3 order.
        """
        options = self._resolve(options, changes)
        if options.algorithm != "cohesive" or options.rank != "size" \
                or options.top_k is not None:
            raise OptionsError(
                "stream() supports algorithm='cohesive' with "
                "rank='size' and no top_k")
        tracer = get_tracer()
        if tracer.enabled:
            yield from self._stream_traced(query, options, tracer)
            return
        yield from self._stream_results(query, options)

    def _stream_results(self, query: Union[str, Query],
                        options: SearchOptions) -> Iterator[Result]:
        """The untraced streaming body (post-validation)."""
        metrics = get_metrics()
        state = self._state
        if metrics.enabled:
            metrics.declare(*RUNTIME_COUNTERS)
        plan = self.plan(query, metrics, state)
        lists = self._plan_lists(plan, options, metrics, state)
        if lists is None:
            return
        evaluation = push_evaluation_flat(
            plan.compiled, size_budget=options.max_size,
            impenetrability=options.impenetrability)
        yield from evaluation.stream(merge_posting_streams(lists))

    def _stream_traced(self, query: Union[str, Query],
                       options: SearchOptions,
                       tracer) -> Iterator[Result]:
        """Streaming under a trace span: the span closes when the
        stream is exhausted (or closed early) and carries the yielded
        result count."""
        with tracer.span("stream",
                         query=" ".join(str(query).split()),
                         algorithm=options.algorithm) as span:
            count = 0
            for result in self._stream_results(query, options):
                count += 1
                yield result
            span.set_attr("result_count", count)

    def search_batch(self, queries: Sequence[Union[str, Query]],
                     options: Optional[SearchOptions] = None,
                     **changes) -> list[list]:
        """Evaluate a whole workload against one shared Dewey scan.

        Returns one ranked result list per input query, in input
        order, byte-identical to ``[self.search(q, options) for q in
        queries]`` (property-tested).  Identical queries (after
        canonicalization) are evaluated once and fanned out; distinct
        queries share a single merged heap scan over the union of
        their posting lists — each query's path-stack machine is fed
        only its own keywords' events, so results cannot differ from a
        private scan.

        ``cohesive`` and ``machine`` runs share the scan; ``top_k``,
        the flat baselines and ``rank`` post-processing fall back to
        per-query evaluation of the (already deduplicated) plans.
        """
        options = self._resolve(options, changes)
        metrics = get_metrics()
        tracer = get_tracer()
        state = self._state
        profiling = self._profiling
        if not (metrics.enabled or profiling or tracer.enabled):
            return self._execute_batch(queries, options, metrics, state)
        inflight = metrics if metrics.enabled else None
        if inflight is not None:
            inflight.gauge_inc("session_inflight_queries")
        base = self._counter_base(metrics)
        trace_id = None
        start = time.perf_counter()
        try:
            if tracer.enabled:
                answers, metrics, trace_id = self._execute_traced(
                    queries, options, metrics, tracer, "search-batch",
                    state)
            elif metrics.enabled:
                answers = self._execute_batch(queries, options, metrics,
                                              state)
            else:
                with metrics_scope() as metrics:
                    answers = self._execute_batch(queries, options,
                                                  metrics, state)
        except Exception:
            if profiling:
                self._record_error("batch", "batch", options,
                                   time.perf_counter() - start,
                                   metrics, base, trace_id,
                                   queries=len(queries))
            raise
        finally:
            if inflight is not None:
                inflight.gauge_dec("session_inflight_queries")
        duration = time.perf_counter() - start
        metrics.observe("batch_seconds", duration)
        if profiling:
            self._record_batch(queries, options, answers, duration,
                               metrics, base, trace_id)
        return answers

    def _execute_batch(self, queries: Sequence[Union[str, Query]],
                       options: SearchOptions, metrics: AnyMetrics,
                       state: Optional[_SessionState] = None
                       ) -> list[list]:
        """The shared-scan batch body (pre-profiler ``search_batch``)."""
        if state is None:
            state = self._state
        if metrics.enabled:
            metrics.declare(*RUNTIME_COUNTERS)
            metrics.inc("batch_queries", len(queries))
        plans = [self.plan(query, metrics, state) for query in queries]
        distinct: dict[str, CompiledPlan] = {}
        for plan in plans:
            distinct.setdefault(plan.key, plan)
        if metrics.enabled:
            metrics.inc("batch_distinct_plans", len(distinct))
        shareable = options.algorithm in ("cohesive", "machine") \
            and options.top_k is None
        if shareable:
            from repro.runtime.batch import shared_scan
            answers = shared_scan(self, list(distinct.values()), options,
                                  metrics, state)
            if options.rank != "size":
                answers = {key: self._apply_rank(distinct[key], results,
                                                 options, state)
                           for key, results in answers.items()}
        else:
            answers = {key: self._execute(plan.query, options, metrics,
                                          state)
                       for key, plan in distinct.items()}
        # Fan out per workload position; copy so callers that mutate
        # one answer list cannot corrupt a duplicate query's answer.
        return [list(answers[plan.key]) for plan in plans]

    # -- the query profiler (EXPLAIN) ---------------------------------------

    def explain(self, query: Union[str, Query],
                options: Optional[SearchOptions] = None,
                **changes) -> QueryProfile:
        """Run ``query`` under a private registry and return its full
        :class:`~repro.obs.profile.QueryProfile`: compiled-plan and
        lattice dimensions, per-keyword posting-list lengths and bytes
        decoded, per-layer cache hits, per-phase wall times, result
        count and top scores.  The run is real (results are computed,
        caches are warmed), so a second ``explain`` of the same query
        shows the cache-hit profile of a repeated query.
        """
        options = self._resolve(options, changes)
        with metrics_scope() as registry:
            start = time.perf_counter()
            results = self._execute(query, options, registry)
            duration = time.perf_counter() - start
            registry.observe("search_seconds", duration)
            snapshot = registry.snapshot()
        return self._build_profile(query, options, results, duration,
                                   snapshot)

    @property
    def _profiling(self) -> bool:
        """Whether any per-request consumer needs the observed path."""
        return self._slow_log is not None or \
            self._event_sink is not None or \
            self._slo is not None or self._flight is not None

    def _counter_base(self, metrics: AnyMetrics) -> Optional[dict]:
        """The pre-request values of the wide-event counters on an
        ambient registry (``None`` when the run gets a private scope,
        whose counters start at zero and so ARE the deltas)."""
        if not metrics.enabled:
            return None
        return {name: metrics.counter(name) for name in _WIDE_COUNTERS}

    @staticmethod
    def _counter_deltas(metrics: AnyMetrics,
                        base: Optional[dict]) -> dict:
        """Per-request counter deltas (best-effort on a shared ambient
        registry: concurrent requests' increments may interleave)."""
        return {name: metrics.counter(name) -
                (base[name] if base is not None else 0)
                for name in _WIDE_COUNTERS}

    @staticmethod
    def _cache_flag(deltas: dict, layer: str) -> Optional[bool]:
        """A tri-state hit flag from one layer's hit/miss deltas:
        ``True`` = served entirely from cache, ``False`` = at least
        one miss, ``None`` = the layer was not exercised."""
        hits = deltas.get(f"{layer}_hits", 0)
        misses = deltas.get(f"{layer}_misses", 0)
        if misses > 0:
            return False
        if hits > 0:
            return True
        return None

    def _query_shape(self, query: Union[str, Query]) -> Optional[str]:
        """The query's ``k<keywords>t<terms>`` shape from its cached
        plan (``None`` when the query does not even parse)."""
        try:
            parsed = self.plan(query).query
        except Exception:
            return None
        return f"k{parsed.keyword_count}t{parsed.term_count}"

    def _build_wide(self, kind: str, route: str,
                    options: SearchOptions, duration: float,
                    metrics: AnyMetrics, base: Optional[dict],
                    trace_id: Optional[str], *,
                    query: Optional[str] = None,
                    query_shape: Optional[str] = None,
                    queries: int = 1, outcome: str = "ok",
                    status: int = 200, result_count: int = 0,
                    slow: bool = False) -> dict:
        deltas = self._counter_deltas(metrics, base)
        return wide_event(
            kind, route, query=query, query_shape=query_shape,
            queries=queries, algorithm=options.algorithm,
            rank=options.rank,
            duration_seconds=duration,
            bytes_decoded=deltas["posting_decode_bytes"],
            plan_cache_hit=self._cache_flag(deltas, "plan_cache"),
            posting_cache_hit=self._cache_flag(deltas, "posting_cache"),
            trace_id=trace_id, outcome=outcome, status=status,
            result_count=result_count, slow=slow)

    def _emit_wide(self, event: dict) -> None:
        """Fan one wide event out to every attached consumer."""
        if self._event_sink is not None:
            payload = {key: value for key, value in event.items()
                       if key != "event"}
            self._event_sink.emit(event["event"], payload)
        if self._flight is not None:
            self._flight.record(event)
        if self._slo is not None:
            self._slo.record(event)

    def _record_error(self, kind: str, route: str,
                      options: SearchOptions, duration: float,
                      metrics: AnyMetrics, base: Optional[dict],
                      trace_id: Optional[str],
                      query: Union[str, Query, None] = None,
                      queries: int = 1) -> None:
        """Emit the wide event of a request that raised."""
        self._emit_wide(self._build_wide(
            kind, route, options, duration, metrics, base, trace_id,
            query=" ".join(str(query).split()) if query is not None
            else None,
            queries=queries, outcome="error", status=500))

    def _record_query(self, query: Union[str, Query],
                      options: SearchOptions, results: list,
                      duration: float, metrics: AnyMetrics,
                      base: Optional[dict] = None,
                      trace_id: Optional[str] = None) -> None:
        """Slow-log capture + wide-event emission after an observed
        query."""
        slow = self._slow_log is not None and \
            self._slow_log.is_slow(duration)
        if slow:
            profile = self._build_profile(query, options, results,
                                          duration, metrics.snapshot())
            self._slow_log.record(profile)
            if metrics.enabled:
                metrics.inc("slow_queries_recorded")
            _log.warning("slow query (%.1f ms >= %.1f ms): %s",
                         duration * 1000,
                         self._slow_log.threshold * 1000, profile.query)
        self._emit_wide(self._build_wide(
            "query", "search", options, duration, metrics, base,
            trace_id, query=" ".join(str(query).split()),
            query_shape=self._query_shape(query),
            result_count=len(results), slow=slow))

    def _record_batch(self, queries: Sequence[Union[str, Query]],
                      options: SearchOptions, answers: list[list],
                      duration: float, metrics: AnyMetrics,
                      base: Optional[dict] = None,
                      trace_id: Optional[str] = None) -> None:
        """Slow-log capture + wide-event emission after an observed
        batch.

        Per-query attribution inside the one shared scan is not
        meaningful, so the profile covers the whole workload (``kind=
        "batch"``) with the union of its keywords.
        """
        slow = self._slow_log is not None and \
            self._slow_log.is_slow(duration)
        result_count = sum(len(results) for results in answers)
        if slow:
            snapshot = metrics.snapshot()
            profile = QueryProfile(
                query=f"<batch of {len(queries)} queries>",
                kind="batch", algorithm=options.algorithm,
                options=self._options_dict(options),
                keywords=self._keyword_stats(
                    {keyword
                     for query in queries
                     for keyword in self.plan(query).keywords}),
                phases=snapshot["phases"],
                counters=snapshot["counters"],
                caches=self._cache_layers(snapshot["counters"]),
                bytes_decoded=snapshot["counters"].get(
                    "posting_decode_bytes", 0),
                result_count=result_count,
                duration_seconds=duration)
            self._slow_log.record(profile)
            if metrics.enabled:
                metrics.inc("slow_queries_recorded")
            _log.warning("slow batch (%.1f ms >= %.1f ms): %d queries",
                         duration * 1000,
                         self._slow_log.threshold * 1000, len(queries))
        self._emit_wide(self._build_wide(
            "batch", "batch", options, duration, metrics, base,
            trace_id, queries=len(queries),
            result_count=result_count, slow=slow))

    def _build_profile(self, query: Union[str, Query],
                       options: SearchOptions, results: list,
                       duration: float, snapshot: dict) -> QueryProfile:
        from repro.core.lattice import (bell_number,
                                        largest_sublattice_size,
                                        lattice_node_count, stack_count)
        plan = self.plan(query)
        parsed = plan.query
        if options.rank == "vector":
            top_scores = [round(item.score, 6) for item in results[:5]]
        else:
            top_scores = [item.size for item in results[:5]]
        return QueryProfile(
            query=plan.key,
            algorithm=options.algorithm,
            options=self._options_dict(options),
            keywords={
                keyword: {"occurrences": len(slots),
                          "postings": self._index.frequency(keyword),
                          "bytes": self._list_bytes(keyword)}
                for keyword, slots in plan.compiled.atoms.items()},
            lattice={
                "full_lattice": bell_number(parsed.keyword_count),
                "reduced_nodes": lattice_node_count(parsed),
                "stacks": stack_count(parsed),
                "largest_sublattice": largest_sublattice_size(parsed),
                "max_term_cardinality": parsed.max_term_cardinality,
                "signatures": plan.compiled.signature_count(),
            },
            phases=snapshot["phases"],
            counters=snapshot["counters"],
            caches=self._cache_layers(snapshot["counters"]),
            bytes_decoded=snapshot["counters"].get(
                "posting_decode_bytes", 0),
            result_count=len(results),
            top_scores=top_scores,
            duration_seconds=duration)

    @staticmethod
    def _options_dict(options: SearchOptions) -> dict:
        return {name: value
                for name, value in vars(options).items()
                if value is not None}

    def _keyword_stats(self, keywords) -> dict:
        return {keyword: {"occurrences": 1,
                          "postings": self._index.frequency(keyword),
                          "bytes": self._list_bytes(keyword)}
                for keyword in sorted(keywords)}

    def _list_bytes(self, keyword: str) -> int:
        """On-disk bytes of the keyword's posting blocks (0 when the
        index is not a lazy store)."""
        list_bytes = getattr(self._index, "list_bytes", None)
        return list_bytes(keyword) if list_bytes is not None else 0

    @staticmethod
    def _cache_layers(counters: dict) -> dict:
        """Per-layer hit/miss pairs from a counter snapshot."""
        return {
            "plan_cache": {
                "hits": counters.get("plan_cache_hits", 0),
                "misses": counters.get("plan_cache_misses", 0)},
            "posting_cache": {
                "hits": counters.get("posting_cache_hits", 0),
                "misses": counters.get("posting_cache_misses", 0)},
            "posting_decode": {
                "hits": counters.get("posting_decode_cache_hits", 0),
                "misses": counters.get("posting_decode_blocks", 0)},
        }

    # -- continuous profiling -----------------------------------------------

    @contextmanager
    def profile_cpu(self, hz: Optional[float] = None):
        """Sample this thread's stacks for the duration of the block.

        Yields the running
        :class:`~repro.obs.sampler.StackSampler`, restricted to the
        calling thread, so the folded profile covers exactly the
        searches issued inside the block::

            with session.profile_cpu(hz=200) as sampler:
                for query in workload:
                    session.search(query)
            sampler.write_collapsed("profile.folded")
        """
        from repro.obs.sampler import DEFAULT_HZ, StackSampler
        sampler = StackSampler(hz=hz or DEFAULT_HZ,
                               thread_ids=(threading.get_ident(),))
        # the search server's /flamez serves it during and after
        self._profiler = sampler
        with sampler:
            yield sampler

    # -- slow-query log / event sink / SLO / flight recorder ----------------

    @property
    def slow_query_log(self) -> Optional[SlowQueryLog]:
        """The configured slow-query log, or ``None``."""
        return self._slow_log

    def configure_slow_query_log(self, threshold: float,
                                 capacity: int = 32) -> SlowQueryLog:
        """Enable (or reconfigure) the slow-query log.

        ``threshold`` is wall seconds; a ``search``/``search_batch``
        call at or above it has its full profile captured into a ring
        of the newest ``capacity`` entries, served on ``/profilez``.
        """
        self._slow_log = SlowQueryLog(threshold, capacity)
        return self._slow_log

    def attach_event_sink(self, sink) -> None:
        """Emit one JSONL event per ``search``/``search_batch`` to
        ``sink`` (a :class:`repro.obs.export.JsonlSink`); ``None``
        detaches."""
        self._event_sink = sink

    @property
    def slo_engine(self):
        """The attached SLO engine, or ``None``."""
        return self._slo

    @property
    def flight_recorder(self):
        """The attached flight recorder, or ``None``."""
        return self._flight

    def attach_slo_engine(self, slo) -> None:
        """Feed every search/batch wide event to ``slo`` (a
        :class:`repro.obs.slo.SLOEngine`); ``None`` detaches."""
        self._slo = slo

    def attach_flight_recorder(self, flight) -> None:
        """Feed every search/batch wide event to ``flight`` (a
        :class:`repro.obs.flight.FlightRecorder`); ``None`` detaches."""
        self._flight = flight

    # -- routing ------------------------------------------------------------

    @staticmethod
    def _resolve(options: Optional[SearchOptions],
                 changes: dict) -> SearchOptions:
        if options is None:
            return SearchOptions(**changes)
        return options.with_(**changes) if changes else options

    def _plan_lists(self, plan: CompiledPlan, options: SearchOptions,
                    metrics: AnyMetrics,
                    state: Optional[_SessionState] = None
                    ) -> Optional[dict[str, tuple[Posting, ...]]]:
        """Posting slices for every plan keyword, or ``None`` if some
        keyword has no instances (then the query has no results)."""
        if state is None:
            state = self._state
        lists: dict[str, tuple[Posting, ...]] = {}
        for keyword in plan.compiled.atoms:
            plist = self.postings(keyword, options.list_limit, metrics,
                                  state)
            if not plist:
                return None
            lists[keyword] = plist
        return lists

    def _search_cohesive(self, plan: CompiledPlan, options: SearchOptions,
                         metrics: AnyMetrics,
                         state: _SessionState) -> list:
        lists = self._plan_lists(plan, options, metrics, state)
        if lists is None:
            if metrics.enabled:  # the catalogue still shows zeros
                metrics.declare(*ENGINE_COUNTERS)
            return []
        results = evaluate_compiled_flat(
            plan.compiled, lists, size_budget=options.max_size,
            impenetrability=options.impenetrability, top_k=options.top_k)
        return self._apply_rank(plan, results, options, state)

    def _apply_rank(self, plan: CompiledPlan, results: list[Result],
                    options: SearchOptions,
                    state: Optional[_SessionState] = None) -> list:
        if state is None:
            state = self._state
        if options.rank == "vector":
            from repro.core.ranking import rank_results
            # Unbounded, untruncated and impenetrable, the results are
            # the query's whole answer: term 0's weight comes from them.
            complete = options.top_k is None \
                and options.max_size is None and options.impenetrability
            return rank_results(plan.query, state.index, results=results,
                                list_limit=options.list_limit,
                                complete=complete)
        if options.rank == "skyline":
            from repro.core.skyline import skyline
            return skyline(results)
        return results

    def _search_machine(self, plan: CompiledPlan, options: SearchOptions,
                        metrics: AnyMetrics,
                        state: Optional[_SessionState] = None
                        ) -> list[Result]:
        from repro.core.lattice_machine import LatticeMachine
        if state is None:
            state = self._state
        machine = LatticeMachine(plan.query,
                                 state.index.tokenizer.normalize)
        lists = {keyword: self.postings(keyword, options.list_limit,
                                        metrics, state)
                 for keyword in machine.keywords}
        return machine.run(lists)

    def _search_baseline(self, plan: CompiledPlan,
                         options: SearchOptions,
                         state: Optional[_SessionState] = None
                         ) -> list[Result]:
        """Route to a flat baseline (cohesiveness structure ignored)."""
        from repro.baselines import elca, lcasz, sa_one, slca
        if state is None:
            state = self._state
        keywords = plan.query.distinct_keywords()
        if options.algorithm == "slca":
            codes = slca(keywords, state.index,
                         list_limit=options.list_limit)
            return [Result(code, 0) for code in codes]
        if options.algorithm == "elca":
            codes = elca(keywords, state.index,
                         list_limit=options.list_limit)
            return [Result(code, 0) for code in codes]
        if options.algorithm == "lcasz":
            return lcasz(keywords, state.index,
                         list_limit=options.list_limit)
        return sa_one(keywords, state.index,
                      list_limit=options.list_limit)
