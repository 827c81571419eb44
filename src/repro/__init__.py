"""Cohesive keyword search on tree data.

A full reproduction of A. Dimitriou, A. Dass, D. Theodoratos and
Y. Vassiliou, *Cohesive Keyword Search on Tree Data*, EDBT 2016.

Quickstart::

    from repro import InvertedIndex, SearchSession, load_tree

    tree = load_tree(open("bib.xml").read())
    session = SearchSession(InvertedIndex.from_tree(tree))
    for result in session.search("(XML (John Smith) (George Brown))"):
        node = tree.node(result.code)
        print(node.label_path(), "size", result.size)

:class:`SearchSession` is the unified runtime: one ``search(query,
options)`` facade over every evaluation mode, compiled-plan and
posting-slice caching across a workload, and ``search_batch`` for
shared-scan execution of many queries at once (see docs/API.md).  The
classic entry points (``CohesiveLCA``, ``evaluate``, ``search_top_k``,
``skyline_search``, ...) remain as thin wrappers.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.core.engine import CohesiveLCA, evaluate, stream_evaluate
from repro.core.explain import QueryExplanation, explain
from repro.corpus import Corpus, DocumentResult
from repro.core.lattice_machine import (LatticeMachine,
                                        lattice_machine_evaluate)
from repro.core.parser import parse_pattern, parse_query
from repro.core.query import Query, Term
from repro.core.ranking import (RankedResult, rank_by_size, rank_results,
                                top_size_results)
from repro.core.results import Result
from repro.core.skyline import skyline, skyline_layers, skyline_search
from repro.core.topk import search_top_k, search_within_size
from repro.core.witness import Witness, reconstruct_witness
from repro.errors import (QuerySyntaxError, ReproError, TreeError,
                          XMLSyntaxError)
from repro.index.inverted import InvertedIndex
from repro.obs import (JsonlSink, MetricsRegistry, QueryProfile,
                       SlowQueryLog, TraceSpan, Tracer,
                       configure_logging, get_metrics, get_tracer,
                       metrics_scope, to_chrome_trace, to_openmetrics,
                       trace_scope, write_chrome_trace)
from repro.index.segmented import SegmentedIndex
from repro.index.store import load_index, save_index
from repro.index.store_v2 import (LazyIndex, merge_index, open_index,
                                  save_index_v2)
from repro.index.streaming import index_xml, index_xml_path
from repro.runtime import (ALGORITHMS, CompiledPlan, OptionsError,
                           RANK_MODES, SearchOptions, SearchSession)
from repro.server import (SearchServer, WIRE_SCHEMA_VERSION, WireError,
                          serve)
from repro.tree.builder import TreeBuilder, build_tree
from repro.tree.stats import compute_statistics
from repro.tree.tree import DataTree
from repro.xmlio.loader import load_tree, load_tree_from_path
from repro.xmlio.writer import dump_tree

__version__ = "1.0.0"

__all__ = [
    "SearchSession",
    "SearchOptions",
    "SearchServer",
    "serve",
    "WireError",
    "WIRE_SCHEMA_VERSION",
    "CompiledPlan",
    "OptionsError",
    "ALGORITHMS",
    "RANK_MODES",
    "CohesiveLCA",
    "Corpus",
    "DocumentResult",
    "explain",
    "QueryExplanation",
    "evaluate",
    "stream_evaluate",
    "LatticeMachine",
    "lattice_machine_evaluate",
    "parse_query",
    "parse_pattern",
    "Query",
    "Term",
    "Result",
    "RankedResult",
    "rank_results",
    "rank_by_size",
    "top_size_results",
    "InvertedIndex",
    "index_xml",
    "index_xml_path",
    "search_top_k",
    "search_within_size",
    "skyline",
    "skyline_layers",
    "skyline_search",
    "Witness",
    "reconstruct_witness",
    "save_index",
    "load_index",
    "save_index_v2",
    "open_index",
    "merge_index",
    "LazyIndex",
    "SegmentedIndex",
    "DataTree",
    "TreeBuilder",
    "build_tree",
    "compute_statistics",
    "load_tree",
    "load_tree_from_path",
    "dump_tree",
    "ReproError",
    "QuerySyntaxError",
    "XMLSyntaxError",
    "TreeError",
    "MetricsRegistry",
    "metrics_scope",
    "get_metrics",
    "configure_logging",
    "JsonlSink",
    "QueryProfile",
    "SlowQueryLog",
    "Tracer",
    "TraceSpan",
    "get_tracer",
    "trace_scope",
    "to_chrome_trace",
    "to_openmetrics",
    "write_chrome_trace",
    "__version__",
]
