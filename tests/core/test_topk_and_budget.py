"""Tests for size-budgeted evaluation and top-k-size search.

Every comparison is on whole :class:`Result` values, so a bound that
changed which equal-size embedding wins a slot would show up in
``term_sizes``.
"""

import pytest
from hypothesis import given, settings

from repro.core.engine import CohesiveLCA, evaluate
from repro.core.kernel import _FlatEvaluation
from repro.core.parser import parse_query
from repro.core.signatures import compile_query
from repro.core.topk import search_top_k, search_within_size
from repro.index.inverted import InvertedIndex
from repro.runtime import SearchSession
from repro.runtime.options import OptionsError, SearchOptions
from repro.tree.builder import build_tree

from tests.conftest import Q1
from tests.core.test_engine_oracle import queries, trees

KS = (1, 2, 3, 10)

#: Article shapes of one query, ``((paul cooper) (mary davis))``, with
#: LCA sizes 0, 2, 4 and 6.  Each shape repeats, so the kernel's subtree
#: templates replay; the order interleaves large and small results, so
#: the k-th-size bound tightens while templates built under a looser
#: bound are still being replayed.
TIGHT_QUERY = "((paul cooper) (mary davis))"
ARTICLES = {
    0: ("article", None, [("author", "paul cooper mary davis")]),
    2: ("article", None, [("author", "paul cooper"),
                          ("author", "mary davis")]),
    4: ("article", None, [("a", None, [("author", "paul cooper")]),
                          ("b", None, [("author", "mary davis")])]),
    6: ("article", None, [
        ("author", None, [("first", "paul"), ("last", "cooper")]),
        ("x", None, [("y", None, [("author", "mary davis")])])]),
}
ORDER = (6, 6, 4, 6, 4, 2, 6, 2, 4, 0, 6, 0, 2, 6, 4, 0, 6, 6) * 2


def _articles_index(order):
    tree = build_tree(("bib", None, [ARTICLES[size] for size in order]))
    return InvertedIndex.from_tree(tree)


@pytest.fixture(scope="module")
def repeated_index():
    return _articles_index(ORDER)


class TestSizeBudget:
    def test_budget_filters_exactly(self, figure1_index):
        full = evaluate(Q1, figure1_index)
        searcher = CohesiveLCA(figure1_index)
        for budget in range(0, 9):
            bounded = searcher.search(Q1, size_budget=budget)
            assert bounded == [r for r in full if r.size <= budget]

    def test_zero_budget(self, figure1_index):
        searcher = CohesiveLCA(figure1_index)
        assert searcher.search("(smith)", size_budget=0)[0].size == 0

    @given(trees(), queries())
    @settings(max_examples=60)
    def test_budget_is_lossless_within_bound(self, tree, query):
        index = InvertedIndex.from_tree(tree)
        full = evaluate(query, index)
        searcher = CohesiveLCA(index)
        for budget in (0, 1, 3):
            bounded = searcher.search(query, size_budget=budget)
            assert bounded == [r for r in full if r.size <= budget]


class TestTopK:
    def test_prefix_of_full_answer(self, figure1_index):
        full = evaluate(Q1, figure1_index)
        for k in range(1, len(full) + 2):
            assert search_top_k(Q1, figure1_index, k) == full[:k]

    def test_k_zero(self, figure1_index):
        assert search_top_k(Q1, figure1_index, 0) == []

    def test_no_results(self, figure1_index):
        assert search_top_k("(zzznothere xml)", figure1_index, 3) == []

    def test_initial_budget_option_is_rejected(self):
        # Top-k is one pass with a running bound; the starting budget
        # of the old doubling loop is gone from the wire too.
        with pytest.raises(OptionsError, match="unknown option"):
            SearchOptions.from_dict({"initial_budget": 1})

    @given(trees(), queries())
    @settings(max_examples=40)
    def test_topk_matches_full_prefix(self, tree, query):
        index = InvertedIndex.from_tree(tree)
        session = SearchSession(index)
        full = session.search(query)
        ablation = session.search(query, impenetrability=False)
        for k in KS:
            assert session.search(query, top_k=k) == full[:k]
            assert session.search(query, top_k=k,
                                  impenetrability=False) == ablation[:k]

    @given(trees(), queries())
    @settings(max_examples=40)
    def test_topk_within_max_size(self, tree, query):
        index = InvertedIndex.from_tree(tree)
        session = SearchSession(index)
        full = session.search(query)
        for bound in (0, 1, 3):
            within = [r for r in full if r.size <= bound]
            for k in KS:
                assert session.search(query, top_k=k,
                                      max_size=bound) == within[:k]

    def test_templates_replay_while_bound_tightens(self, repeated_index):
        session = SearchSession(repeated_index)
        full = session.search(TIGHT_QUERY)
        assert sorted({r.size for r in full if r.code}) == [0, 2, 4, 6]
        for k in KS + (len(full), len(full) + 1):
            assert session.search(TIGHT_QUERY, top_k=k) == full[:k]
            for bound in (2, 4):
                within = [r for r in full if r.size <= bound]
                assert session.search(TIGHT_QUERY, top_k=k,
                                      max_size=bound) == within[:k]

    def test_unit_internal_result_counts_once(self):
        # The one size-0 result sits below the root of its subtree unit,
        # so it is final both at its pop inside the unit and when the
        # scan stores the unit's results.  Counted at both, it alone
        # would fill k=2, and a bound of 0 would prune the size-2
        # runner-up.
        session = SearchSession(_articles_index((6, 4, 0, 2, 2, 4, 6)))
        full = session.search(TIGHT_QUERY)
        assert [r.size for r in full[:2]] == [0, 2]
        for k in KS:
            assert session.search(TIGHT_QUERY, top_k=k) == full[:k]

    def test_bound_is_the_kth_final_size(self, repeated_index):
        # The scenario above really happens: a few templates serve the
        # 36 articles, and the bound ends at the k-th smallest size.
        query = parse_query(TIGHT_QUERY)
        compiled = compile_query(query, repeated_index.tokenizer.normalize)
        lists = {keyword: repeated_index.postings(keyword)
                 for keyword in compiled.atoms}
        full = evaluate(query, repeated_index)
        for k in (3, 10):
            evaluation = _FlatEvaluation(compiled, top_k=k)
            assert evaluation.run_lists(lists) == full[:k]
            assert evaluation._budget_limit == full[k - 1].size
            assert len(evaluation._unit_cache) < len(ORDER)


class TestSearchWithinSize:
    def test_matches_budgeted_search(self, figure1_index):
        direct = search_within_size(Q1, figure1_index, 4)
        searcher = CohesiveLCA(figure1_index)
        assert direct == searcher.search(Q1, size_budget=4)
