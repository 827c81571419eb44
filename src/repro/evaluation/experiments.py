"""Experiment drivers — one per table/figure of the paper's §4.

Effectiveness (Tables 3–5, Fig. 4) runs the five semantics over a
generated dataset's Table-2 queries and scores them against the planted
ground truth.  Efficiency (Figs. 5–8) helpers time the algorithms over
frequent-keyword workloads with truncated inverted lists; the benchmark
harness under ``benchmarks/`` drives them through pytest-benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.baselines import elca, mlca, slca, vlca
from repro.core.engine import CohesiveLCA
from repro.core.parser import parse_query
from repro.core.query import Query
from repro.core.ranking import rank_results, top_size_results
from repro.datasets.ground_truth import GeneratedDataset
from repro.evaluation.metrics import (average_precision, f_measure, ndcg,
                                      precision, recall)
from repro.evaluation.relevance import Assessor
from repro.index.inverted import InvertedIndex
from repro.tree import dewey

SEMANTICS = ("CohesiveLCA", "top-1-size CohesiveLCA", "SLCA", "ELCA",
             "VLCA", "MLCA")


def _index_for(dataset: GeneratedDataset,
               index: Optional[InvertedIndex]) -> InvertedIndex:
    return index if index is not None else \
        InvertedIndex.from_tree(dataset.tree)


def _result_sets(dataset: GeneratedDataset, index: InvertedIndex,
                 query_text: str) -> dict[str, list[dewey.Code]]:
    """Result lists of every semantics for one query, ranked where the
    semantics ranks (cohesive: by size) and in document order otherwise."""
    query = parse_query(query_text)
    flat_keywords = query.distinct_keywords()
    searcher = CohesiveLCA(index)
    cohesive = searcher.search(query)
    return {
        "CohesiveLCA": [result.code for result in cohesive],
        "top-1-size CohesiveLCA":
            [result.code for result in top_size_results(cohesive)],
        "SLCA": slca(flat_keywords, index),
        "ELCA": elca(flat_keywords, index),
        "VLCA": vlca(flat_keywords, index, dataset.tree),
        "MLCA": mlca(flat_keywords, index, dataset.tree),
    }


# ---------------------------------------------------------------------------
# Table 3: number of results per query and semantics
# ---------------------------------------------------------------------------


def result_count_table(dataset: GeneratedDataset,
                       index: Optional[InvertedIndex] = None
                       ) -> list[dict[str, object]]:
    """Rows of the Table-3 reproduction for one dataset."""
    index = _index_for(dataset, index)
    rows: list[dict[str, object]] = []
    for query_id, query_text in dataset.queries.items():
        sets = _result_sets(dataset, index, query_text)
        row: dict[str, object] = {"query": query_id, "text": query_text}
        for semantics in ("CohesiveLCA", "SLCA", "ELCA", "VLCA", "MLCA"):
            row[semantics] = len(sets[semantics])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 / Table 4: precision, recall, F-measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectivenessRow:
    """P/R/F of one semantics on one query."""

    dataset: str
    query_id: str
    semantics: str
    precision: float
    recall: float
    f_measure: float


def effectiveness_table(dataset: GeneratedDataset,
                        index: Optional[InvertedIndex] = None
                        ) -> list[EffectivenessRow]:
    """The Fig. 4 data: per-query P/R/F for all semantics; averaging the
    rows per semantics reproduces Table 4."""
    index = _index_for(dataset, index)
    rows: list[EffectivenessRow] = []
    for query_id, query_text in dataset.queries.items():
        assessor = Assessor(dataset, query_id)
        sets = _result_sets(dataset, index, query_text)
        for semantics in SEMANTICS:
            returned = sets[semantics]
            rows.append(EffectivenessRow(
                dataset=dataset.name,
                query_id=query_id,
                semantics=semantics,
                precision=precision(returned, assessor.relevant),
                recall=recall(returned, assessor.relevant),
                f_measure=f_measure(returned, assessor.relevant),
            ))
    return rows


def average_effectiveness(rows: Sequence[EffectivenessRow]
                          ) -> dict[str, dict[str, float]]:
    """Table 4: per-semantics averages over all queries and datasets."""
    sums: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for row in rows:
        bucket = sums.setdefault(row.semantics, [0.0, 0.0, 0.0])
        bucket[0] += row.precision
        bucket[1] += row.recall
        bucket[2] += row.f_measure
        counts[row.semantics] = counts.get(row.semantics, 0) + 1
    return {
        semantics: {
            "precision": bucket[0] / counts[semantics],
            "recall": bucket[1] / counts[semantics],
            "f_measure": bucket[2] / counts[semantics],
        }
        for semantics, bucket in sums.items()
    }


# ---------------------------------------------------------------------------
# Table 5: MAP and NDCG of the cohesive-term vector ranking
# ---------------------------------------------------------------------------


def ranking_quality_table(dataset: GeneratedDataset,
                          index: Optional[InvertedIndex] = None
                          ) -> dict[str, dict[str, float]]:
    """Per-query MAP and NDCG of the §2.2 ranking on one dataset."""
    index = _index_for(dataset, index)
    table: dict[str, dict[str, float]] = {}
    for query_id, query_text in dataset.queries.items():
        assessor = Assessor(dataset, query_id)
        ranked = rank_results(query_text, index)
        ranking = [item.code for item in ranked]
        table[query_id] = {
            "map": average_precision(ranking, assessor.relevant),
            "ndcg": ndcg(ranking, assessor.grades),
        }
    return table


def dataset_ranking_quality(dataset: GeneratedDataset,
                            index: Optional[InvertedIndex] = None
                            ) -> dict[str, float]:
    """Dataset-level MAP/NDCG averages (the Table 5 cells)."""
    table = ranking_quality_table(dataset, index)
    if not table:
        return {"map": 1.0, "ndcg": 1.0}
    return {
        "map": sum(row["map"] for row in table.values()) / len(table),
        "ndcg": sum(row["ndcg"] for row in table.values()) / len(table),
    }


def ranking_comparison(dataset: GeneratedDataset,
                       index: Optional[InvertedIndex] = None
                       ) -> dict[str, dict[str, float]]:
    """NDCG of three ranking schemes per query (extension experiment).

    * ``size`` — Def. 3: ascending LCA size (the engine's native order);
    * ``vector`` — §2.2: the weighted cohesive-term vector norm;
    * ``skyline`` — §6 future work: skyline layers, flattened (within a
      layer, Def. 3 order).
    """
    from repro.core.skyline import skyline_layers
    index = _index_for(dataset, index)
    searcher = CohesiveLCA(index)
    table: dict[str, dict[str, float]] = {}
    for query_id, query_text in dataset.queries.items():
        assessor = Assessor(dataset, query_id)
        results = searcher.search(query_text)
        size_order = [result.code for result in results]
        vector_order = [item.code for item in
                        rank_results(query_text, index, results=results,
                                     complete=True)]
        skyline_order = [result.code
                         for layer in skyline_layers(results)
                         for result in layer]
        table[query_id] = {
            "size": ndcg(size_order, assessor.grades),
            "vector": ndcg(vector_order, assessor.grades),
            "skyline": ndcg(skyline_order, assessor.grades),
        }
    return table


# ---------------------------------------------------------------------------
# Efficiency helpers (Figs. 5–8)
# ---------------------------------------------------------------------------


def total_instances(query: Query, index: InvertedIndex,
                    list_limit: Optional[int]) -> int:
    """Total number of keyword instances a query run will consume."""
    normalize = index.tokenizer.normalize
    return sum(
        len(index.postings(normalize(keyword), limit=list_limit))
        for keyword in query.distinct_keywords())


def timed(function: Callable[[], object]) -> tuple[object, float]:
    """Run ``function`` once and return (result, seconds)."""
    start = time.perf_counter()
    value = function()
    return value, time.perf_counter() - start


def time_cohesive(query: Query, index: InvertedIndex,
                  list_limit: Optional[int]) -> float:
    """Seconds for one CohesiveLCA evaluation (Fig. 5/6/7/8 subject)."""
    searcher = CohesiveLCA(index)
    _, seconds = timed(lambda: searcher.search(query,
                                               list_limit=list_limit))
    return seconds
