"""Result ranking (paper Def. 3 and §2.2).

Two ranking schemes:

* **LCA-size ranking** (Def. 3) — results in ascending order of LCA size.
  This is what :class:`~repro.core.engine.CohesiveLCA` already returns;
  :func:`rank_by_size` re-sorts an arbitrary result list.

* **Cohesive-term vector ranking** (§2.2) — each result ``lj`` becomes a
  vector ``(C1·s1j, …, Cm·smj)`` in the *cohesive term space*: one
  coordinate per query term (term 0 is the whole query), where ``sij`` is
  the partial-LCA size of term ``Ti`` inside ``lj`` and ``Ci`` is the
  dataset-wide compactness weight

      ``Ci = |Pi| / (1 + Σ_{p in Pi} size(p))``

  over the LCAs ``Pi`` of term ``Ti`` evaluated standalone on the data.
  Results are ranked by ascending Euclidean norm of their vectors: the
  weight rewards small sizes for terms that are *not* compact in the
  dataset and penalizes large sizes for terms expected to be compact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.engine import CohesiveLCA
from repro.core.parser import parse_query
from repro.core.query import Query, term_to_query
from repro.core.results import Result
from repro.index.inverted import InvertedIndex


def rank_by_size(results: Sequence[Result]) -> list[Result]:
    """Def. 3: ascending LCA size, ties in document order."""
    return sorted(results, key=Result.sort_key)


def top_size_results(results: Sequence[Result]) -> list[Result]:
    """The top *layer* of the answer: all results of minimum LCA size.

    The paper's effectiveness comparison restricts CohesiveLCA to this
    layer ("top-1-size results", §4.2) when comparing against filtering
    semantics.
    """
    if not results:
        return []
    minimum = min(result.size for result in results)
    return [result for result in results if result.size == minimum]


def term_weights(query: Query, index: InvertedIndex,
                 list_limit: Optional[int] = None,
                 answer: Optional[Sequence[Result]] = None
                 ) -> tuple[float, ...]:
    """The compactness weights ``Ci`` of every term of ``query``.

    Each term (including the query itself, term 0) is evaluated standalone
    with CohesiveLCA; ``Ci = |Pi| / (1 + Σ size(p))``.  A term with no
    LCAs in the data gets weight 0 (it can never contribute a partial
    LCA to any result either).  ``answer``, when given, must be the
    query's complete answer under ``list_limit``; term 0's weight is
    then computed from it instead of a second evaluation.
    """
    searcher = CohesiveLCA(index)
    weights: list[float] = []
    for term_id, term in enumerate(query.terms):
        if term_id == 0 and answer is not None:
            lcas = answer
        else:
            lcas = searcher.search(term_to_query(term),
                                   list_limit=list_limit)
        weights.append(len(lcas) / (1 + sum(result.size for result in lcas))
                       if lcas else 0.0)
    return tuple(weights)


@dataclass(frozen=True)
class RankedResult:
    """A result with its cohesive-term vector and score."""

    result: Result
    vector: tuple[float, ...]
    score: float

    @property
    def code(self):
        return self.result.code

    @property
    def size(self) -> int:
        return self.result.size


def score_results(results: Sequence[Result],
                  weights: Sequence[float]) -> list[RankedResult]:
    """Attach §2.2 vectors and scores, sorted by ascending score.

    ``results`` must carry per-term breakdowns (CohesiveLCA results do).
    """
    ranked: list[RankedResult] = []
    for result in results:
        sizes = result.term_sizes or ()
        vector = tuple(
            weight * (size if size is not None else 0)
            for weight, size in zip(weights, sizes))
        score = math.sqrt(sum(component * component for component in vector))
        ranked.append(RankedResult(result, vector, score))
    ranked.sort(key=lambda r: (r.score, r.result.size, r.result.code))
    return ranked


def rank_results(query: Union[str, Query], index: InvertedIndex,
                 results: Optional[Sequence[Result]] = None,
                 list_limit: Optional[int] = None,
                 complete: bool = False) -> list[RankedResult]:
    """Evaluate (if needed) and rank ``query`` with the §2.2 scheme.

    ``complete=True`` says ``results`` are the query's whole answer
    under ``list_limit`` — no size bound, no top-k cut, impenetrability
    on — so the query's own weight comes from them.  Results evaluated
    here are complete by construction.
    """
    if isinstance(query, str):
        query = parse_query(query)
    if results is None:
        results = CohesiveLCA(index).search(query, list_limit=list_limit)
        complete = True
    weights = term_weights(query, index, list_limit=list_limit,
                           answer=results if complete else None)
    return score_results(results, weights)
