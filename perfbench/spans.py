"""Traced runs: spans around calls into the program's public functions.

The wrappers live here, outside the program.  Each one is installed
where the caller looks the function up (``repro.runtime.session``
imports ``evaluate_compiled_flat`` by name, so that module's attribute
is the one patched), records a span — name, start, end, parent span,
operation id — and keeps it in memory.  The spans are written out when
the run ends and self times are computed from them: a span's self time
is its duration minus the durations of its direct children.

Start and end come from ``time.perf_counter``, which on Linux reads
``CLOCK_MONOTONIC``, so spans recorded in the server child can be
filtered against the client's timed window.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        # (span_id, parent_id, op_id, name, start, end, attrs)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, op_id) -> Iterator[None]:
        """Stamp spans opened by this thread with ``op_id``.  Root spans
        outside any operation (the server's worker threads) use their
        own span id as the operation id."""
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code that calls
        into a layer (used where the layer's entry point is a per-event
        method too fine-grained to wrap)."""
        token = self._enter()
        try:
            yield
        finally:
            self._exit(token, name, None)

    def _enter(self) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if parent is not None:
            op_id = parent[1]
        else:
            op_id = getattr(self._local, "op", None) or span_id
        stack.append((span_id, op_id))
        return span_id, parent[0] if parent else None, op_id, \
            time.perf_counter()

    def _exit(self, token: tuple, name: str, attrs: Optional[dict]) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span_id, parent_id, op_id, start = token
        self.spans.append((span_id, parent_id, op_id, name, start, end,
                           attrs))

    def wrap(self, owner, attr: str, name: str,
             measure: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``measure(args, kwargs, result)`` returns numeric span
        attributes (counts) recorded with the span.
        """
        original = owner.__dict__[attr]
        recorder = self

        def wrapper(*args, **kwargs):
            token = recorder._enter()
            attrs = None
            try:
                result = original(*args, **kwargs)
                if measure is not None:
                    attrs = measure(args, kwargs, result)
                return result
            finally:
                recorder._exit(token, name, attrs)

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[tuple]:
    with open(path, encoding="utf-8") as source:
        return [tuple(json.loads(line)) for line in source if line.strip()]


#: Spans under a span of this name are part of its work: a merge
#: decodes the whole store, and that time is the merge's, not a read's.
FOLDED_INTO = "index.store_v2.merge"
#: Spans of these names count only under a span of the mapped name:
#: decodes are a read's cost only when a search caused them.
COUNTED_UNDER = {"index.store_v2.decode": "runtime.search"}


def summarize(spans: list, window: Optional[tuple] = None) -> dict:
    """Per span name: count, total and self seconds, summed attributes.

    ``window`` (start, end) keeps spans that started inside it.  A span
    under a ``FOLDED_INTO`` span is left out, so that span's self time
    includes it; a ``COUNTED_UNDER`` span outside its search is left
    out as well.
    """
    parents = {span[0]: (span[1], span[3]) for span in spans}

    def ancestors(parent_id):
        while parent_id is not None:
            parent_id, name = parents.get(parent_id, (None, None))
            if name is not None:
                yield name

    kept = []
    for span in spans:
        above = set(ancestors(span[1]))
        if FOLDED_INTO in above or (
                span[3] in COUNTED_UNDER
                and COUNTED_UNDER[span[3]] not in above):
            continue
        kept.append(span)
    child_seconds: dict = defaultdict(float)
    for span_id, parent_id, _, _, start, end, _ in kept:
        if parent_id is not None:
            child_seconds[parent_id] += end - start
    table: dict = defaultdict(lambda: {"count": 0, "total": 0.0,
                                       "self": 0.0, "attrs": {}})
    for span_id, _, _, name, start, end, attrs in kept:
        if window is not None and not window[0] <= start < window[1]:
            continue
        row = table[name]
        row["count"] += 1
        row["total"] += end - start
        row["self"] += end - start - child_seconds[span_id]
        for key, value in (attrs or {}).items():
            row["attrs"][key] = row["attrs"].get(key, 0) + value
    return table


def install_program_wrappers(recorder: SpanRecorder) -> None:
    """Wrap every public function a per-layer metric reads.

    Names follow ``<module>.<what>`` of the per-layer catalogue.
    """
    from importlib import import_module
    # ``repro.core`` re-exports functions named like their modules
    # (``skyline``), so the modules are fetched by their full names.
    ranking = import_module("repro.core.ranking")
    skyline = import_module("repro.core.skyline")
    store_v2 = import_module("repro.index.store_v2")
    session = import_module("repro.runtime.session")
    wire = import_module("repro.server.wire")
    from repro.obs import flight, slo, timeseries, tracing

    def search_attrs(args, kwargs, result):
        index = args[0].index
        return {"returned": len(result),
                "segments": getattr(index, "segment_count", 1)}

    def kernel_attrs(args, kwargs, result):
        lists = args[1] if len(args) > 1 else kwargs["lists"]
        return {"postings": sum(len(plist) for plist in lists.values()),
                "produced": len(result)}

    recorder.wrap(session.SearchSession, "search", "runtime.search",
                  search_attrs)
    recorder.wrap(session, "evaluate_compiled_flat", "core.kernel",
                  kernel_attrs)
    recorder.wrap(session, "parse_query", "core.parser")
    recorder.wrap(session, "compile_query", "core.signatures")
    recorder.wrap(ranking, "rank_results", "core.ranking")
    recorder.wrap(skyline, "skyline", "core.ranking")
    recorder.wrap(wire, "parse_search_request", "server.wire.parse")
    recorder.wrap(wire, "search_response", "server.wire.encode")
    recorder.wrap(flight.FlightRecorder, "record", "obs.record")
    recorder.wrap(slo.SLOEngine, "record", "obs.record")
    recorder.wrap(tracing.Tracer, "adopt_phases", "obs.record")
    recorder.wrap(timeseries.TimeSeriesStore, "scrape", "obs.scrape")
    def block_bytes(args, kwargs, result):
        return {"bytes": kwargs["length"] if "length" in kwargs
                else args[2]}

    recorder.wrap(store_v2, "decode_posting_block",
                  "index.store_v2.decode", block_bytes)
    recorder.wrap(store_v2, "decode_dedup_block", "index.store_v2.decode",
                  block_bytes)
    recorder.wrap(store_v2, "open_index", "index.store_v2.open")
    recorder.wrap(store_v2, "append_segment", "index.store_v2.append")
    recorder.wrap(store_v2, "merge_index", "index.store_v2.merge")


def counter_deltas(before: dict, after: dict) -> dict:
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in set(before) | set(after)}


def layer_metrics(table: dict, counters: dict, ops: int, writes: int,
                  seconds: float, warning_lines: int = 0,
                  input_bytes: int = 0) -> dict:
    """Every per-layer catalogue value the spans and counters give.

    ``ops`` are the searches (the per-op denominator), ``writes`` the
    documents written and ``input_bytes`` their XML bytes; ``seconds``
    is the traced window's length.  Values a workload measures itself
    (``server.overhead_ms_per_op``, the write percentiles,
    ``trace.overhead_ratio``) start at 0 and are set by the caller.
    """
    def row(name: str) -> dict:
        return table.get(name, {"count": 0, "total": 0.0, "self": 0.0,
                                "attrs": {}})

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    def ratio(hits: int, misses: int) -> float:
        return per(hits, hits + misses)

    search = row("runtime.search")
    kernel = row("core.kernel")
    decode = row("index.store_v2.decode")
    produced = kernel["attrs"].get("produced", 0)
    returned = search["attrs"].get("returned", 0)
    return {
        "core.kernel.scan_ms_per_op": per(kernel["self"] * 1e3, ops),
        "core.kernel.postings_per_op":
            per(kernel["attrs"].get("postings", 0), ops),
        "core.kernel.calls_per_op": per(kernel["count"], ops),
        "runtime.topk.useful_ratio":
            per(returned, produced) if produced else 1.0,
        "runtime.plan_cache.hit_ratio":
            ratio(counters.get("plan_cache_hits", 0),
                  counters.get("plan_cache_misses", 0)),
        "core.parser.parse_ms_per_op":
            per(row("core.parser")["self"] * 1e3, ops),
        "core.signatures.compile_ms_per_op":
            per(row("core.signatures")["self"] * 1e3, ops),
        "core.ranking.rank_ms_per_op":
            per(row("core.ranking")["self"] * 1e3, ops),
        "server.wire.parse_ms_per_op":
            per(row("server.wire.parse")["self"] * 1e3, ops),
        "server.wire.encode_ms_per_op":
            per(row("server.wire.encode")["self"] * 1e3, ops),
        "server.rejections": counters.get("server_rejections", 0),
        "server.timeouts": counters.get("server_timeouts", 0),
        "obs.record_ms_per_op": per(row("obs.record")["self"] * 1e3, ops),
        "obs.scrape_ms_per_s":
            per(row("obs.scrape")["self"] * 1e3, seconds),
        "runtime.posting_cache.hit_ratio":
            ratio(counters.get("posting_cache_hits", 0),
                  counters.get("posting_cache_misses", 0)),
        "index.store_v2.decode_ms_per_op":
            per(decode["self"] * 1e3, ops),
        "index.store_v2.decoded_bytes_per_op":
            per(decode["attrs"].get("bytes", 0), ops),
        "index.segments_per_read":
            per(search["attrs"].get("segments", 0), search["count"]),
        "index.streaming.index_ms_per_write":
            per(row("index.streaming")["self"] * 1e3, writes),
        "index.store_v2.append_ms_per_write":
            per(row("index.store_v2.append")["self"] * 1e3, writes),
        "index.store_v2.open_ms":
            per(row("index.store_v2.open")["self"] * 1e3,
                row("index.store_v2.open")["count"]),
        "index.store_v2.merge_ms_per_merge":
            per(row("index.store_v2.merge")["self"] * 1e3,
                row("index.store_v2.merge")["count"]),
        "index.store_v2.bytes_written_per_input_byte":
            per(counters.get("store_bytes_written", 0), input_bytes),
        "obs.warning_lines_per_s": per(warning_lines, seconds),
        "server.overhead_ms_per_op": 0.0,
        "index.write_p50_ms": 0.0,
        "index.write_p90_ms": 0.0,
    }


def format_table(table: dict, ops: int) -> list[str]:
    """Human-readable per-span-name lines for the workload record."""
    lines = [f"{'span':28s} {'calls':>8s} {'total ms':>10s} "
             f"{'self ms':>10s} {'self ms/op':>10s}"]
    for name in sorted(table):
        row = table[name]
        lines.append(f"{name:28s} {row['count']:8d} "
                     f"{row['total'] * 1e3:10.1f} {row['self'] * 1e3:10.1f} "
                     f"{row['self'] * 1e3 / max(ops, 1):10.3f}")
    return lines
