"""The CohesiveLCA front door (paper §3).

The algorithm itself — one Dewey-order pass over the query keywords'
inverted lists through a path stack of partial-LCA tables — lives in
:mod:`repro.core.kernel`; this module holds the entry points over an
index or explicit lists, and the merged Dewey-order event stream an
external scan driver (streaming, shared-scan batches) feeds it from.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Mapping, Optional, Sequence, Union

from repro.core.kernel import evaluate_compiled_flat
from repro.core.query import Query
from repro.core.results import Result
from repro.core.signatures import compile_query
from repro.index.inverted import InvertedIndex, Posting
from repro.obs import get_metrics
from repro.tree import dewey


def merge_posting_streams(
        posting_lists: Mapping[str, Sequence[Posting]]
) -> Iterator[tuple[dewey.Code, dict[str, int]]]:
    """Merge per-keyword posting lists into one Dewey-ordered node stream.

    Yields ``(code, {keyword: frequency})`` with one event per instance
    node, the access pattern of the paper's ``getNextNodeFromInvertedLists``.
    """
    def labeled(keyword: str, plist: Sequence[Posting]):
        for posting in plist:
            yield posting.code, keyword, posting.frequency

    streams = [labeled(keyword, plist)
               for keyword, plist in posting_lists.items()]
    pending_code: Optional[dewey.Code] = None
    pending: dict[str, int] = {}
    for code, keyword, frequency in heapq.merge(*streams):
        if code != pending_code:
            if pending_code is not None:
                yield pending_code, pending
            pending_code = code
            pending = {}
        pending[keyword] = pending.get(keyword, 0) + frequency
    if pending_code is not None:
        yield pending_code, pending


def evaluate_on_lists(query: Query,
                      posting_lists: Mapping[str, Sequence[Posting]],
                      normalize=None, size_budget: Optional[int] = None,
                      impenetrability: bool = True) -> list[Result]:
    """Run CohesiveLCA on explicit inverted lists.

    ``posting_lists`` must have one entry per distinct query keyword
    (after normalization); a missing or empty list means the query has no
    results, since every keyword occurrence must be embedded.
    ``size_budget`` prunes partial LCAs above the bound (lossless for
    the results within it); ``impenetrability=False`` disables Def.
    2(b)(ii) for ablation studies.
    """
    metrics = get_metrics()
    with metrics.span("lattice-build"):
        compiled = compile_query(query, normalize)
    return evaluate_compiled_flat(compiled, posting_lists,
                                  size_budget=size_budget,
                                  impenetrability=impenetrability)


class CohesiveLCA:
    """Front door: evaluate cohesive keyword queries against an index.

    Example::

        index = InvertedIndex.from_tree(tree)
        searcher = CohesiveLCA(index)
        results = searcher.search("(XML (John Smith) (George Brown))")

    A thin wrapper around a private :class:`repro.runtime.SearchSession`,
    so a long-lived searcher amortizes parsing, lattice compilation and
    posting lookups across repeated queries.  Construct a session
    directly for the full surface (batch execution, baselines, rank
    modes — see docs/API.md).
    """

    def __init__(self, index: InvertedIndex):
        from repro.runtime import SearchSession
        self._index = index
        self._session = SearchSession(index)

    def search(self, query: Union[str, Query],
               list_limit: Optional[int] = None,
               size_budget: Optional[int] = None,
               impenetrability: bool = True) -> list[Result]:
        """All results of ``query``, ranked by ascending LCA size.

        ``list_limit`` truncates every inverted list to its first
        ``list_limit`` postings (the device of the paper's efficiency
        experiments, §4.3).  ``size_budget`` restricts the answer to
        results of at most that LCA size, pruning larger partial LCAs
        during the run.  ``impenetrability=False`` evaluates with Def.
        2(b)(ii) disabled (ablation only).
        """
        return self._session.search(query, list_limit=list_limit,
                                    max_size=size_budget,
                                    impenetrability=impenetrability)


def stream_evaluate(query: Union[str, Query], index: InvertedIndex,
                    list_limit: Optional[int] = None,
                    size_budget: Optional[int] = None
                    ) -> Iterator[Result]:
    """Yield results lazily as the engine finalizes them (post-order).

    Same answer set as :func:`evaluate` (property-tested), but a pipeline
    can consume results while the inverted lists are still streaming —
    no Def. 3 ordering until you sort.  Delegates to
    :meth:`repro.runtime.SearchSession.stream`.
    """
    from repro.runtime import SearchSession
    yield from SearchSession(index).stream(query, list_limit=list_limit,
                                           max_size=size_budget)


def evaluate(query: Union[str, Query], index: InvertedIndex,
             list_limit: Optional[int] = None) -> list[Result]:
    """Convenience wrapper: ``CohesiveLCA(index).search(query)``."""
    return CohesiveLCA(index).search(query, list_limit=list_limit)
