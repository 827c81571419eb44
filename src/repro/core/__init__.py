"""The paper's primary contribution: cohesive keyword search.

* :mod:`repro.core.query` / :mod:`repro.core.parser` — the cohesive
  keyword query language (terms, nesting, keyword repetition; paper §2.1);
* :mod:`repro.core.semantics` — a literal, brute-force implementation of
  the embedding semantics of Def. 2 (the testing oracle);
* :mod:`repro.core.lattice` — the lattice of keyword partitions and its
  cohesiveness-driven dimensionality reduction (paper §3, Figs. 2–3);
* :mod:`repro.core.kernel` — the CohesiveLCA evaluation algorithm, and
  :mod:`repro.core.engine` its front door;
* :mod:`repro.core.ranking` — LCA-size ranking (Def. 3) and the
  cohesive-term vector ranking (paper §2.2).
"""

from repro.core.engine import CohesiveLCA, evaluate, stream_evaluate
from repro.core.lattice_machine import (LatticeMachine,
                                        lattice_machine_evaluate)
from repro.core.parser import parse_query
from repro.core.query import Occurrence, Query, Term
from repro.core.ranking import RankedResult, rank_results
from repro.core.results import Result
from repro.core.skyline import skyline, skyline_layers, skyline_search
from repro.core.topk import search_top_k, search_within_size
from repro.core.witness import Witness, reconstruct_witness

__all__ = [
    "Query",
    "Term",
    "Occurrence",
    "parse_query",
    "CohesiveLCA",
    "evaluate",
    "stream_evaluate",
    "LatticeMachine",
    "lattice_machine_evaluate",
    "Result",
    "RankedResult",
    "rank_results",
    "skyline",
    "skyline_layers",
    "skyline_search",
    "search_top_k",
    "search_within_size",
    "Witness",
    "reconstruct_witness",
]
