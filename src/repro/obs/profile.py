"""Query profiles (the EXPLAIN artifact) and the slow-query log.

A :class:`QueryProfile` is the per-query diagnostic record the paper's
evaluation reasons over (§5: lattice size vs. max term cardinality,
stack pushes, input list lengths) plus everything the serving layers
add — per-phase wall times, cache hits per layer, bytes decoded from
the lazy store, result count and top scores.  It is produced by
:meth:`repro.runtime.session.SearchSession.explain` and by the
slow-query capture inside ``search``/``search_batch``; the CLI renders
it with ``cohesive-search explain ... --format tree|json``.

The :class:`SlowQueryLog` is a bounded ring buffer of the profiles of
queries whose wall time crossed a threshold — the ``/profilez`` route
of the search server (:mod:`repro.server.app`) serves its contents as
JSON, so a long-lived session's outliers are observable
without stopping it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

#: Version of the profile schema; bump on incompatible changes.
PROFILE_SCHEMA_VERSION = 1


@dataclass
class QueryProfile:
    """One query's full diagnostic record (JSON-ready via
    :meth:`to_dict`, human-readable via :meth:`format_tree`).

    ``kind`` is ``"query"`` for a single search and ``"batch"`` for a
    shared-scan workload (where per-query attribution inside the one
    merged scan is not meaningful, so the profile covers the batch).
    """

    query: str
    kind: str = "query"
    algorithm: str = "cohesive"
    options: dict = field(default_factory=dict)
    #: keyword → {"occurrences": int, "postings": int, "bytes": int}
    keywords: dict = field(default_factory=dict)
    #: full/reduced lattice sizes, stacks, max term cardinality, ...
    lattice: dict = field(default_factory=dict)
    #: phase name → seconds (the snapshot's ``phases`` section)
    phases: dict = field(default_factory=dict)
    #: every counter the run incremented (snapshot ``counters``)
    counters: dict = field(default_factory=dict)
    #: cache layer → {"hits": int, "misses": int}
    caches: dict = field(default_factory=dict)
    bytes_decoded: int = 0
    result_count: int = 0
    #: scores (vector rank) or LCA sizes (size rank) of the top results
    top_scores: list = field(default_factory=list)
    duration_seconds: float = 0.0
    timestamp: float = field(default_factory=time.time)

    @property
    def total_instances(self) -> int:
        """Total keyword instances the query's input lists hold."""
        return sum(stats.get("postings", 0)
                   for stats in self.keywords.values())

    def to_dict(self) -> dict:
        """JSON-ready representation, tagged with ``schema``."""
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "kind": self.kind,
            "query": self.query,
            "algorithm": self.algorithm,
            "options": dict(self.options),
            "keywords": {keyword: dict(stats)
                         for keyword, stats in self.keywords.items()},
            "total_instances": self.total_instances,
            "lattice": dict(self.lattice),
            "phases": dict(self.phases),
            "counters": dict(self.counters),
            "caches": {layer: dict(stats)
                       for layer, stats in self.caches.items()},
            "bytes_decoded": self.bytes_decoded,
            "result_count": self.result_count,
            "top_scores": list(self.top_scores),
            "duration_seconds": self.duration_seconds,
            "timestamp": self.timestamp,
        }

    def format_tree(self) -> str:
        """Render the profile as an indented human-readable tree."""
        lines = [
            f"{self.kind}  {self.query}",
            f"  algorithm           {self.algorithm}"
            + (f"  {self.options}" if self.options else ""),
            f"  duration            {self.duration_seconds * 1000:.3f} ms",
            f"  results             {self.result_count}"
            + (f"  top={self.top_scores}" if self.top_scores else ""),
        ]
        if self.lattice:
            lines.append("  lattice")
            for name, value in self.lattice.items():
                lines.append(f"    {name:<22s}{value}")
        if self.keywords:
            lines.append(f"  input               "
                         f"{self.total_instances} keyword instance(s), "
                         f"{self.bytes_decoded} byte(s) decoded")
            for keyword, stats in self.keywords.items():
                lines.append(
                    f"    {keyword:<18s}x{stats.get('occurrences', 1)}  "
                    f"{stats.get('postings', 0)} instance(s)  "
                    f"{stats.get('bytes', 0)} byte(s)")
        if self.phases:
            lines.append("  phases")
            for name, seconds in sorted(self.phases.items(),
                                        key=lambda kv: -kv[1]):
                lines.append(f"    {name:<20s}{seconds * 1000:10.3f} ms")
        if self.caches:
            lines.append("  caches")
            for layer, stats in self.caches.items():
                hits = stats.get("hits", 0)
                misses = stats.get("misses", 0)
                total = hits + misses
                rate = f"{hits / total:.2f}" if total else "-"
                lines.append(f"    {layer:<20s}{hits} hit(s), "
                             f"{misses} miss(es), rate {rate}")
        if self.counters:
            lines.append("  counters")
            width = max(len(name) for name in self.counters)
            for name, value in sorted(self.counters.items()):
                lines.append(f"    {name:<{width}s}  {value}")
        return "\n".join(lines)


class SlowQueryLog:
    """A bounded, thread-safe ring buffer of slow-query profiles.

    ``threshold`` is in seconds: a query (or batch) whose wall time
    reaches it gets its full :class:`QueryProfile` captured.  The
    newest ``capacity`` profiles are retained; older ones fall off the
    ring.  Reads (:meth:`entries`, :meth:`as_json`) take a snapshot
    under the same lock the recording side uses, so an HTTP handler
    thread can serve ``/profilez`` while the search thread
    keeps recording.
    """

    def __init__(self, threshold: float, capacity: int = 32):
        if threshold < 0:
            raise ValueError("threshold must be >= 0 seconds")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold = float(threshold)
        self.capacity = capacity
        self._entries: deque[QueryProfile] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0  # lifetime count, survives ring eviction

    def is_slow(self, duration: float) -> bool:
        """Whether ``duration`` (seconds) crosses the threshold."""
        return duration >= self.threshold

    def record(self, profile: QueryProfile) -> None:
        """Add one profile to the ring (evicting the oldest if full)."""
        with self._lock:
            self._entries.append(profile)
            self.recorded += 1

    def entries(self) -> list[QueryProfile]:
        """The retained profiles, newest first."""
        with self._lock:
            return list(reversed(self._entries))

    def as_json(self) -> list[dict]:
        """The retained profiles as JSON-ready dicts, newest first."""
        return [profile.to_dict() for profile in self.entries()]

    def clear(self) -> None:
        """Drop every retained profile (lifetime count survives)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[QueryProfile]:
        return iter(self.entries())
