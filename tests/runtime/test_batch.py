"""Shared-scan batch execution: byte-identical to sequential search.

The core guarantee of ``SearchSession.search_batch`` is that sharing one
Dewey-order scan across a workload changes *nothing* about any query's
answer — codes, sizes, term vectors and order all match a private
evaluation.  These tests check that on the paper's Figure 1 tree, on
small generated Table-2 datasets (both the engine and the literal
lattice machine), and property-based over random workloads.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import merge_posting_streams
from repro.core.parser import parse_query
from repro.core.signatures import compile_query
from repro.datasets import generate_baseball, generate_dblp
from repro.index.inverted import InvertedIndex
from repro.obs import metrics_scope
from repro.runtime import SearchOptions, SearchSession

from tests.conftest import Q1
from tests.reference_engine import push_evaluation


@pytest.fixture(scope="module")
def table2_workloads():
    """Two small generated datasets with their Table 2 queries."""
    datasets = [generate_dblp(scale=12, seed=3),
                generate_baseball(scale=4, seed=5)]
    return [(dataset.name, InvertedIndex.from_tree(dataset.tree),
             list(dataset.queries.values()))
            for dataset in datasets]


def assert_identical(batch, sequential):
    """Full structural equality: codes, sizes, term vectors, order."""
    assert len(batch) == len(sequential)
    for got, expected in zip(batch, sequential):
        assert got == expected


class TestFigure1:
    @pytest.fixture()
    def session(self, figure1_index):
        return SearchSession(figure1_index)

    WORKLOAD = [Q1, "(xml keyword)", Q1, "(paul  cooper)",
                "(mary davis)", "(xml (paul cooper))"]

    @pytest.mark.parametrize("algorithm", ["cohesive", "machine"])
    def test_batch_equals_sequential(self, session, algorithm):
        options = SearchOptions(algorithm=algorithm)
        batch = session.search_batch(self.WORKLOAD, options)
        sequential = [session.search(query, options)
                      for query in self.WORKLOAD]
        assert_identical(batch, sequential)

    def test_duplicates_dedup_to_one_plan(self, session):
        with metrics_scope() as registry:
            session.search_batch(self.WORKLOAD)
            counters = registry.snapshot()["counters"]
        assert counters["batch_queries"] == len(self.WORKLOAD)
        assert counters["batch_distinct_plans"] == 5  # Q1 twice
        assert counters["batch_scan_nodes"] > 0

    def test_duplicate_answers_are_independent_lists(self, session):
        answers = session.search_batch([Q1, Q1])
        assert answers[0] == answers[1]
        answers[0].append("sentinel")
        assert answers[1][-1] != "sentinel"

    def test_empty_workload(self, session):
        assert session.search_batch([]) == []

    def test_unknown_keyword_query_in_batch(self, session):
        batch = session.search_batch([Q1, "(xml zzzznothing)"])
        assert batch[0] == session.search(Q1)
        assert batch[1] == []

    def test_batch_with_skyline_rank(self, session):
        options = SearchOptions(rank="skyline")
        batch = session.search_batch(self.WORKLOAD, options)
        sequential = [session.search(query, options)
                      for query in self.WORKLOAD]
        assert_identical(batch, sequential)

    def test_batch_with_vector_rank(self, session):
        options = SearchOptions(rank="vector")
        batch = session.search_batch(self.WORKLOAD, options)
        sequential = [session.search(query, options)
                      for query in self.WORKLOAD]
        assert_identical(batch, sequential)

    def test_batch_with_max_size(self, session):
        options = SearchOptions(max_size=4)
        assert_identical(
            session.search_batch(self.WORKLOAD, options),
            [session.search(query, options) for query in self.WORKLOAD])

    def test_top_k_falls_back_per_query(self, session):
        options = SearchOptions(top_k=2)
        assert_identical(
            session.search_batch(self.WORKLOAD, options),
            [session.search(query, options) for query in self.WORKLOAD])

    def test_baseline_batch_falls_back_per_query(self, session):
        options = SearchOptions(algorithm="slca")
        assert_identical(
            session.search_batch(self.WORKLOAD, options),
            [session.search(query, options) for query in self.WORKLOAD])


class TestTable2Workloads:
    """The paper's effectiveness queries, engine and machine."""

    @pytest.mark.parametrize("algorithm", ["cohesive", "machine"])
    def test_batch_equals_sequential(self, table2_workloads, algorithm):
        options = SearchOptions(algorithm=algorithm)
        for name, index, queries in table2_workloads:
            session = SearchSession(index)
            batch = session.search_batch(queries, options)
            sequential = [session.search(query, options)
                          for query in queries]
            assert_identical(batch, sequential)

    def test_whole_workload_at_once(self, table2_workloads):
        # All five queries of a dataset plus duplicates in one batch.
        for name, index, queries in table2_workloads:
            workload = queries + queries[:2]
            session = SearchSession(index)
            assert_identical(
                session.search_batch(workload),
                [session.search(query) for query in workload])


KEYWORDS = ["xml", "keyword", "search", "paul", "cooper",
            "mary", "davis", "data", "retrieval"]


@st.composite
def _queries(draw):
    count = draw(st.integers(min_value=2, max_value=4))
    picked = draw(st.lists(st.sampled_from(KEYWORDS), min_size=count,
                           max_size=count, unique=True))
    if draw(st.booleans()) and count >= 3:
        inner = " ".join(picked[1:])
        return f"({picked[0]} ({inner}))"
    return "(" + " ".join(picked) + ")"


class TestPropertyBased:
    @given(workload=st.lists(_queries(), min_size=1, max_size=6),
           algorithm=st.sampled_from(["cohesive", "machine"]))
    def test_batch_equals_sequential(self, figure1_index, workload,
                                     algorithm):
        session = SearchSession(figure1_index)
        options = SearchOptions(algorithm=algorithm)
        assert_identical(
            session.search_batch(workload, options),
            [session.search(query, options) for query in workload])


class TestKernelParity:
    """The kernel's push path (the shared-scan consumer feeds
    ``push_evaluation_flat``) must answer like its replaying scan
    under every cohesive option, and like the reference engine on
    ``(code, size)``."""

    @given(workload=st.lists(_queries(), min_size=1, max_size=6),
           max_size=st.sampled_from([None, 2, 4]),
           impenetrability=st.booleans())
    def test_batch_equals_sequential_under_kernel(self, figure1_index,
                                                  workload, max_size,
                                                  impenetrability):
        session = SearchSession(figure1_index)
        options = SearchOptions(max_size=max_size,
                                impenetrability=impenetrability)
        assert_identical(
            session.search_batch(workload, options),
            [session.search(query, options) for query in workload])

    @given(workload=st.lists(_queries(), min_size=1, max_size=6))
    def test_batch_kernels_agree(self, figure1_index, workload):
        """The kernel's shared scan against the reference engine's push
        path fed the same merged stream, on ``(code, size)``."""
        session = SearchSession(figure1_index)
        normalize = figure1_index.tokenizer.normalize
        for query, answer in zip(workload, session.search_batch(workload)):
            compiled = compile_query(parse_query(query), normalize)
            lists = {keyword: figure1_index.postings(keyword)
                     for keyword in compiled.atoms}
            reference = push_evaluation(compiled)
            if all(lists.values()):
                for code, frequencies in merge_posting_streams(lists):
                    reference.feed(code, frequencies)
            assert [(r.code, r.size) for r in answer] == \
                [(r.code, r.size) for r in reference.finish()]

    def test_table2_workloads_under_flat_kernel(self, table2_workloads):
        options = SearchOptions(impenetrability=False)
        for name, index, queries in table2_workloads:
            session = SearchSession(index)
            assert_identical(
                session.search_batch(queries, options),
                [session.search(query, options) for query in queries])
