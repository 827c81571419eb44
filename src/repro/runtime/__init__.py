"""The search runtime: sessions, compiled-plan caching, batch scans.

This package is the serving layer over the single-query machinery of
:mod:`repro.core`:

* :class:`SearchSession` — owns an index plus a compiled-query **plan
  cache** and a per-keyword **posting-slice cache**, and exposes the
  unified :meth:`~SearchSession.search` facade every legacy entry
  point now delegates to;
* :class:`SearchOptions` — one immutable value for every evaluation
  knob (algorithm, rank mode, top-k, size bound, list limit);
* :meth:`SearchSession.search_batch` — executes a query workload
  against **one** shared Dewey-order scan (:mod:`repro.runtime.batch`),
  the amortization the ROADMAP's heavy-traffic north star requires;
* :class:`LRUCache` — the obs-instrumented cache primitive (hit /
  miss / eviction counters, see docs/OBSERVABILITY.md).

See docs/API.md for the surface and the migration table from the five
legacy entry points.
"""

from repro.runtime.cache import LRUCache
from repro.runtime.options import (ALGORITHMS, RANK_MODES, OptionsError,
                                   SearchOptions)
from repro.runtime.session import (RUNTIME_COUNTERS, RUNTIME_GAUGES,
                                   CompiledPlan, SearchSession)

__all__ = [
    "ALGORITHMS",
    "RANK_MODES",
    "OptionsError",
    "SearchOptions",
    "SearchSession",
    "CompiledPlan",
    "LRUCache",
    "RUNTIME_COUNTERS",
    "RUNTIME_GAUGES",
]
