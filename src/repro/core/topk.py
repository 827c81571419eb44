"""Top-k-size evaluation of cohesive keyword queries.

Users rarely want *all* LCAs: Def. 3 ranks by LCA size, so the useful
prefix of the answer is the results of the k smallest sizes.  Following
the top-k-size idea of the LCAsz line of work (Dimitriou, Theodoratos &
Sellis, Inf. Syst. 2015), the kernel evaluates top-k in one scan with a
**running size budget**: it keeps the k smallest final result sizes
seen so far and prunes every partial LCA whose size already exceeds the
k-th of them.  Sizes only grow as partial LCAs merge upward, so the
pruning is lossless for the first k results, ties included.

On large inputs most partial LCAs belong to results far down the
ranking, so the bound saves most of the combination work once k small
results are in hand.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.query import Query
from repro.core.results import Result
from repro.index.inverted import InvertedIndex


def search_top_k(query: Union[str, Query], index: InvertedIndex, k: int,
                 list_limit: Optional[int] = None) -> list[Result]:
    """The first ``k`` results of the Def. 3 ranking, from one scan.

    Thin wrapper over :meth:`repro.runtime.SearchSession.search` with
    ``top_k`` — a long-lived session additionally amortizes the plan
    and posting lookups across queries.
    """
    from repro.runtime import SearchSession
    return SearchSession(index).search(query, top_k=k,
                                       list_limit=list_limit)


def search_within_size(query: Union[str, Query], index: InvertedIndex,
                       size_budget: int,
                       list_limit: Optional[int] = None) -> list[Result]:
    """All results with LCA size at most ``size_budget`` (exact).

    Thin wrapper over :meth:`repro.runtime.SearchSession.search` with
    ``max_size``.
    """
    from repro.runtime import SearchSession
    return SearchSession(index).search(query, max_size=size_budget,
                                       list_limit=list_limit)
