"""Tests for result ranking: Def. 3 size ranking and the §2.2 cohesive-
term vector ranking."""

import math

import pytest

from repro.core.engine import evaluate
from repro.core.ranking import (RankedResult, rank_by_size, rank_results,
                                score_results, term_weights,
                                top_size_results)
from repro.core.parser import parse_query
from repro.core.results import Result
from repro.index.inverted import InvertedIndex
from repro.runtime import SearchSession
from repro.tree.builder import build_tree
from tests.conftest import Q1


class TestSizeRanking:
    def test_rank_by_size(self):
        results = [Result((1,), 5), Result((0,), 2), Result((2,), 2)]
        ranked = rank_by_size(results)
        assert [r.code for r in ranked] == [(0,), (2,), (1,)]

    def test_top_size_layer(self):
        results = [Result((0,), 2), Result((2,), 2), Result((1,), 5)]
        assert {r.code for r in top_size_results(results)} == {(0,), (2,)}

    def test_top_size_empty(self):
        assert top_size_results([]) == []


class TestTermWeights:
    @pytest.fixture
    def tree(self):
        # (paul cooper) is compact (always one node); (mary davis) is
        # spread out (always two nodes far apart).
        return build_tree(("bib", None, [
            ("article", None, [
                ("author", "paul cooper"),
                ("x", None, [("y", "mary")]),
                ("z", None, [("w", "davis")]),
            ]),
            ("article", None, [
                ("author", "paul cooper"),
                ("x", None, [("y", "mary")]),
                ("z", None, [("w", "davis")]),
            ]),
        ]))

    def test_compact_terms_get_higher_weight(self, tree):
        index = InvertedIndex.from_tree(tree)
        query = parse_query("((paul cooper) (mary davis))")
        weights = term_weights(query, index)
        assert len(weights) == 3  # query itself + two nested terms
        # (paul cooper): two single-node LCAs (size 0) plus the root LCA
        # mixing the two articles (size 4) -> C = 3 / (1 + 4) = 0.6.
        assert weights[1] == pytest.approx(0.6)
        # (mary davis): LCAs at both articles (size 4) and the root
        # (size 6) -> C = 3 / (1 + 14) = 0.2, smaller: less compact.
        assert weights[2] == pytest.approx(0.2)
        assert weights[2] < weights[1]

    def test_unmatched_term_weight_zero(self, tree):
        index = InvertedIndex.from_tree(tree)
        query = parse_query("((paul cooper) (zz qq))")
        weights = term_weights(query, index)
        assert weights[2] == 0.0


class TestVectorScoring:
    def test_score_is_euclidean_norm(self):
        results = [Result((0,), 3, (3, 1, 2))]
        ranked = score_results(results, (1.0, 2.0, 0.5))
        vector = ranked[0].vector
        assert vector == (3.0, 2.0, 1.0)
        assert ranked[0].score == pytest.approx(
            math.sqrt(9 + 4 + 1))

    def test_sorted_ascending_score(self):
        results = [Result((0,), 5, (5,)), Result((1,), 1, (1,))]
        ranked = score_results(results, (1.0,))
        assert [r.code for r in ranked] == [(1,), (0,)]

    def test_rank_results_end_to_end(self, figure1_index):
        ranked = rank_results(Q1, figure1_index)
        assert isinstance(ranked[0], RankedResult)
        # The compact article (paper's node 2) outranks node 11.
        assert ranked[0].code == (0,)
        assert ranked[0].score < ranked[-1].score

    def test_rank_results_accepts_precomputed(self, figure1_index):
        results = evaluate(Q1, figure1_index)
        ranked = rank_results(Q1, figure1_index, results=results)
        assert [r.code for r in ranked] == \
            [r.code for r in rank_results(Q1, figure1_index)]


class TestVectorWeightSource:
    """Term 0's weight comes from the answer in hand only when that
    answer is complete; a cut or bounded answer keeps the standalone
    evaluation."""

    #: Each option below drops or adds a result of this query on
    #: Figure 1 (the ablation admits the second article).
    QUERY = "((Paul Cooper) (Mary Davis))"

    def test_complete_answer_gives_the_standalone_weight(self,
                                                         figure1_index):
        query = parse_query(Q1)
        full = evaluate(query, figure1_index)
        assert term_weights(query, figure1_index, answer=full) == \
            term_weights(query, figure1_index)
        assert rank_results(query, figure1_index, results=full,
                            complete=True) == \
            rank_results(query, figure1_index, results=full)

    @pytest.mark.parametrize("options", [
        {"top_k": 1}, {"max_size": 3}, {"impenetrability": False},
    ])
    def test_partial_answer_keeps_the_standalone_weight(self, options,
                                                        figure1_index):
        session = SearchSession(figure1_index)
        query = parse_query(self.QUERY)
        partial = session.search(query, **options)
        weights = term_weights(query, figure1_index)
        # The guard: weighting by the partial answer would differ.
        assert term_weights(query, figure1_index,
                            answer=partial)[0] != weights[0]
        ranked = session.search(query, rank="vector", **options)
        assert ranked == score_results(partial, weights)
