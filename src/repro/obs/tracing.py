"""Query-scoped distributed tracing: one span tree per logical query.

The phase timers of :mod:`repro.obs.metrics` answer "where does the
time go *in aggregate*"; this module answers "what did *this query*
do, end to end" — including across the process boundary of a
``Corpus.search(workers=N)`` fan-out.  The pieces:

* :class:`TraceSpan` — one timed region tagged with ``trace_id`` /
  ``span_id`` / ``parent_id``, the recording pid and thread id, and a
  structured attribute dict.  Every span automatically carries
  ``mem_alloc_delta`` / ``mem_peak`` (``tracemalloc`` deltas when
  memory accounting is on) and ``posting_decode_bytes`` (the delta of
  the LazyIndex byte counter over the span), so a timeline shows
  *what was paid where*, not just when.
* :class:`Tracer` — collects finished spans.  :meth:`Tracer.span`
  opens a child of the current trace context (a
  :class:`contextvars.ContextVar`), or roots a fresh trace when none
  is active; :meth:`Tracer.adopt` re-parents spans recorded by a pool
  worker into the caller's trace, and :meth:`Tracer.adopt_phases`
  lifts the per-phase :class:`~repro.obs.trace.Span` trees a
  :class:`~repro.obs.metrics.MetricsRegistry` recorded into trace
  spans, so the existing phase instrumentation feeds the timeline
  with no changes at the call sites.
* **Context propagation** — :func:`current_trace_wire` serializes the
  active context into a plain dict the parent ships inside a
  ``ProcessPoolExecutor`` task payload; the worker re-enters it with
  :func:`activate_wire`, so its spans join the parent's trace with
  the worker's own pid on every span.
* **Activation** mirrors the metrics layer: :func:`get_tracer`
  returns the scope-local tracer, else the process-global one, else
  the no-op :data:`NULL_TRACER` — the tracing-off path costs one
  ``ContextVar`` read per query.

Completed traces export to Chrome trace-event JSON
(:func:`repro.obs.export.to_chrome_trace`), loadable in Perfetto /
``chrome://tracing``; the CLI wires this to ``trace QUERY --out
trace.json`` and ``search --trace-dir DIR``.
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Sequence

from repro.obs.metrics import get_metrics
from repro.obs.trace import Span

#: Attribute catalogue every exporter / dashboard can rely on; the
#: docs-drift test keeps docs/OBSERVABILITY.md's table in sync with it.
TRACE_ATTRIBUTES = (
    "query",
    "algorithm",
    "queries",
    "workers",
    "shard",
    "result_count",
    "mem_alloc_delta",
    "mem_peak",
    "posting_decode_bytes",
    "plan_cache_hits",
    "posting_cache_hits",
)

#: Gauge catalogue of the tracing layer (see docs/OBSERVABILITY.md).
TRACING_GAUGES = (
    "trace_ring_depth",
)

#: The counters whose per-span deltas become span attributes.
_DELTA_COUNTERS = (
    ("posting_decode_bytes", "posting_decode_bytes"),
    ("plan_cache_hits", "plan_cache_hits"),
    ("posting_cache_hits", "posting_cache_hits"),
)


def _new_id() -> str:
    """A fresh 16-hex-digit identifier (random, collision-safe)."""
    return uuid.uuid4().hex[:16]


class TraceSpan:
    """One finished-or-open region of a trace.

    ``start_wall`` is seconds since the epoch (derived from the
    tracer's wall/perf anchor pair, so sibling spans of one process
    order exactly as ``perf_counter`` saw them); ``duration`` is
    seconds.  ``attrs`` is the structured attribute dict (see
    :data:`TRACE_ATTRIBUTES`).
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name",
                 "start_wall", "duration", "pid", "tid", "attrs")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str], start_wall: float,
                 duration: float = 0.0, pid: Optional[int] = None,
                 tid: Optional[int] = None,
                 attrs: Optional[dict] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall = start_wall
        self.duration = duration
        self.pid = os.getpid() if pid is None else pid
        self.tid = threading.get_native_id() if tid is None else tid
        self.attrs = {} if attrs is None else attrs

    @property
    def end_wall(self) -> float:
        return self.start_wall + self.duration

    @property
    def is_root(self) -> bool:
        """Whether this span roots its trace (no parent)."""
        return self.parent_id is None

    def set_attr(self, name: str, value) -> None:
        """Attach one structured attribute to the span."""
        self.attrs[name] = value

    def as_dict(self) -> dict:
        """The wire/JSON form (also what pool workers ship back)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSpan":
        return cls(data["name"], data["trace_id"], data["span_id"],
                   data.get("parent_id"), data["start_wall"],
                   data.get("duration", 0.0), data.get("pid"),
                   data.get("tid"), dict(data.get("attrs", {})))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceSpan({self.name!r}, trace={self.trace_id}, "
                f"{self.duration * 1000:.3f} ms, pid={self.pid})")


class _TraceContext:
    """The (trace_id, span_id) pair the ContextVar carries."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id


_CURRENT: ContextVar[Optional[_TraceContext]] = ContextVar(
    "repro_obs_trace_context", default=None)


class _NullSpanContext:
    """The disabled span: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    __slots__ = ()

    enabled = False
    memory = False

    def span(self, name: str, **attrs):
        return _NULL_SPAN

    def adopt(self, span_dicts) -> None:
        pass

    def adopt_phases(self, phase_spans, parent=None) -> None:
        pass

    def spans(self, trace_id: Optional[str] = None) -> list:
        return []

    def trace_ids(self) -> list:
        return []

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Collects the spans of one-or-more traces (thread-safe).

    ``memory=True`` turns on :mod:`tracemalloc` for the tracer's
    lifetime (if it was not already tracing), so every span's
    ``mem_alloc_delta`` / ``mem_peak`` attributes carry real
    allocation numbers; :meth:`close` stops it again.  ``capacity``
    bounds the retained spans (oldest evicted first) so a long-lived
    traced service cannot grow without bound.
    """

    enabled = True

    def __init__(self, memory: bool = False, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.memory = memory
        self._capacity = capacity
        self._lock = threading.Lock()
        self._spans: list[TraceSpan] = []
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()
        self._owns_tracemalloc = False
        if memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    # -- recording -----------------------------------------------------------

    def _wall(self, perf: float) -> float:
        """Map a ``perf_counter`` instant onto the wall clock."""
        return self._anchor_wall + (perf - self._anchor_perf)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[TraceSpan]:
        """Open a span as a child of the current trace context.

        With no active context the span roots a **new** trace.  The
        span becomes the current context for the block, so nested
        ``span`` calls (same tracer or a pool worker re-entering the
        serialized context) chain into one tree.  On exit the span is
        stamped with its memory and counter-delta attributes and
        recorded.
        """
        context = _CURRENT.get()
        if context is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = context.trace_id, context.span_id
        span = TraceSpan(name, trace_id, _new_id(), parent_id,
                         0.0, attrs=attrs)
        token = _CURRENT.set(_TraceContext(trace_id, span.span_id))
        metrics = get_metrics()
        counters0 = [metrics.counter(counter)
                     for counter, _ in _DELTA_COUNTERS] \
            if metrics.enabled else None
        tracing_memory = tracemalloc.is_tracing()
        if tracing_memory:
            memory0, _ = tracemalloc.get_traced_memory()
        start_perf = time.perf_counter()
        span.start_wall = self._wall(start_perf)
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - start_perf
            if tracing_memory and tracemalloc.is_tracing():
                memory1, peak1 = tracemalloc.get_traced_memory()
                span.attrs.setdefault("mem_alloc_delta",
                                      memory1 - memory0)
                span.attrs.setdefault("mem_peak", peak1)
            else:
                span.attrs.setdefault("mem_alloc_delta", 0)
                span.attrs.setdefault("mem_peak", 0)
            if counters0 is not None:
                for (counter, attr), before in zip(_DELTA_COUNTERS,
                                                   counters0):
                    span.attrs.setdefault(
                        attr, metrics.counter(counter) - before)
                metrics.inc("trace_spans_recorded")
            else:
                for _, attr in _DELTA_COUNTERS:
                    span.attrs.setdefault(attr, 0)
            try:
                _CURRENT.reset(token)
            except ValueError:  # generator resumed in another context
                _CURRENT.set(None)
            self._record(span)

    def _record(self, span: TraceSpan) -> None:
        with self._lock:
            self._spans.append(span)
            overflow = len(self._spans) - self._capacity
            if overflow > 0:
                del self._spans[:overflow]
            depth = len(self._spans)
        metrics = get_metrics()
        if metrics.enabled:
            if overflow > 0:
                # Silent truncation made visible: these spans left the
                # ring before any exporter could read them.
                metrics.inc("trace_spans_dropped", overflow)
            metrics.gauge_set("trace_ring_depth", depth)

    def adopt(self, span_dicts: Sequence[dict]) -> None:
        """Fold spans recorded elsewhere (a pool worker) into this
        tracer.  The dicts keep their own trace/span ids and pids —
        a worker that entered the parent's serialized context is
        already parented correctly."""
        for data in span_dicts:
            self._record(TraceSpan.from_dict(data))

    def adopt_phases(self, phase_spans: Sequence[Span],
                     parent: Optional[TraceSpan] = None) -> None:
        """Lift registry phase :class:`~repro.obs.trace.Span` trees
        into this trace.

        The registry measures with ``perf_counter``; the tracer's
        anchor pair maps those instants onto the wall clock, so the
        phases land inside ``parent``'s interval exactly where they
        ran.  Phase spans carry zeroed memory/byte attributes (their
        cost was attributed when they closed) plus whatever
        ``attrs`` the instrumented site set on them.
        """
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            context = _CURRENT.get()
            if context is None:
                trace_id, parent_id = _new_id(), None
            else:
                trace_id, parent_id = context.trace_id, context.span_id

        def walk(span: Span, parent_id: Optional[str]) -> None:
            if span.end is None:  # still open: not adoptable
                return
            lifted = TraceSpan(span.name, trace_id, _new_id(),
                               parent_id, self._wall(span.start),
                               span.duration,
                               attrs=dict(getattr(span, "attrs", None)
                                          or {}))
            lifted.attrs.setdefault("mem_alloc_delta", 0)
            lifted.attrs.setdefault("mem_peak", 0)
            for _, attr in _DELTA_COUNTERS:
                lifted.attrs.setdefault(attr, 0)
            self._record(lifted)
            for child in span.children:
                walk(child, lifted.span_id)

        for span in phase_spans:
            walk(span, parent_id)

    # -- reading -------------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None) -> list[TraceSpan]:
        """Recorded spans, oldest first (optionally one trace's)."""
        with self._lock:
            spans = list(self._spans)
        if trace_id is None:
            return spans
        return [span for span in spans if span.trace_id == trace_id]

    def trace(self, trace_id: str) -> list[TraceSpan]:
        """The spans of one trace (alias of ``spans(trace_id)``)."""
        return self.spans(trace_id)

    def trace_ids(self) -> list[str]:
        """Completed trace ids, newest first.

        A trace is *completed* once its root span (no parent) has been
        recorded — roots close last, so their presence means the whole
        tree is in."""
        with self._lock:
            roots = [span for span in self._spans if span.is_root]
        roots.sort(key=lambda span: span.end_wall, reverse=True)
        seen: list[str] = []
        for root in roots:
            if root.trace_id not in seen:
                seen.append(root.trace_id)
        return seen

    def summaries(self, limit: int = 32) -> list[dict]:
        """JSON-ready digests of the newest completed traces — what
        the search server serves on ``/tracez``."""
        digests = []
        for trace_id in self.trace_ids()[:limit]:
            spans = self.spans(trace_id)
            root = next((span for span in spans if span.is_root), None)
            digests.append({
                "trace_id": trace_id,
                "root": root.name if root is not None else None,
                "spans": len(spans),
                "pids": sorted({span.pid for span in spans}),
                "duration_seconds": root.duration if root is not None
                else None,
            })
        return digests

    def clear(self) -> None:
        """Drop every recorded span."""
        with self._lock:
            self._spans.clear()

    def close(self) -> None:
        """Stop tracemalloc if this tracer started it (idempotent)."""
        if self._owns_tracemalloc:
            self._owns_tracemalloc = False
            if tracemalloc.is_tracing():
                tracemalloc.stop()


AnyTracer = object  # Tracer | NullTracer (kept loose for typing-light code)

_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_obs_active_tracer", default=None)
_GLOBAL: Optional[Tracer] = None


def get_tracer():
    """The tracer instrumented code should record to, right now.

    Lookup order mirrors :func:`repro.obs.metrics.get_metrics`: the
    innermost :func:`trace_scope` tracer, then the process-global one
    from :func:`set_global_tracer`, then the no-op
    :data:`NULL_TRACER`.  Never ``None``; check ``.enabled`` once on
    hot paths.
    """
    active = _ACTIVE.get()
    if active is not None:
        return active
    if _GLOBAL is not None:
        return _GLOBAL
    return NULL_TRACER


@contextmanager
def trace_scope(tracer: Optional[Tracer] = None,
                memory: bool = False) -> Iterator[Tracer]:
    """Activate a tracer for the block (a fresh one unless given).

    A tracer constructed by the scope is :meth:`~Tracer.close`\\ d on
    exit (its recorded spans stay readable); a caller-supplied tracer
    is left open.
    """
    owned = tracer is None
    tracer = tracer if tracer is not None else Tracer(memory=memory)
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
        if owned:
            tracer.close()


def set_global_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or, with ``None``, remove) the process-global tracer;
    returns the previous one.  Scoped tracers take precedence."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = tracer
    return previous


# -- cross-process propagation ----------------------------------------------

def current_trace_wire(tracer=None) -> Optional[dict]:
    """Serialize the active trace context for a task payload.

    Returns ``None`` when no context is active (then the worker runs
    untraced).  The dict is plain-picklable: ``trace_id`` /
    ``span_id`` of the span the worker's spans should hang under,
    plus whether memory accounting is on.
    """
    context = _CURRENT.get()
    if context is None:
        return None
    if tracer is None:
        tracer = get_tracer()
    return {
        "trace_id": context.trace_id,
        "span_id": context.span_id,
        "memory": bool(getattr(tracer, "memory", False)),
    }


@contextmanager
def activate_wire(wire: dict) -> Iterator[None]:
    """Re-enter a serialized trace context (the worker side).

    Spans opened inside the block join ``wire["trace_id"]`` as
    children of ``wire["span_id"]``."""
    token = _CURRENT.set(_TraceContext(wire["trace_id"],
                                       wire["span_id"]))
    try:
        yield
    finally:
        _CURRENT.reset(token)


def recent_traces(limit: int = 32) -> list[dict]:
    """Digests of the active-or-global tracer's completed traces
    (what ``/tracez`` serves); empty when tracing is off."""
    tracer = get_tracer()
    if not tracer.enabled:
        return []
    return tracer.summaries(limit)
