"""Edge-case regressions for the evaluation kernel.

The differential-oracle and entry-point parity suites cover the random
bulk; this file pins the corners that random trees rarely hit —
single-node documents, empty-result queries, keywords whose postings
arrive from several store segments, store-side list limits, and the
corners of the kernel's table keys (member masks wider than ten bits,
pure entries and non-zero usage ids meeting lifted entries).  Each is
asserted against the reference engine on ``(code, size)`` and, over
stores or across entry points, on full Result equality.
"""

import random

import pytest

from repro.core.kernel import evaluate_compiled_flat
from repro.core.parser import parse_query
from repro.core.results import Result
from repro.core.signatures import compile_query
from repro.index.inverted import InvertedIndex, Posting
from repro.index.store_v2 import (append_segment, load_index_v2,
                                  save_index_v2, save_index_v2_dedup)
from repro.runtime import SearchSession

from tests.reference_engine import evaluate_compiled


def _pairs(results):
    return [(r.code, r.size) for r in results]


def _both(index, text, **kwargs):
    """(kernel, reference) result lists for one query on one index."""
    compiled = compile_query(parse_query(text),
                             index.tokenizer.normalize)
    lists = {kw: index.postings(kw) for kw in compiled.atoms}
    return (evaluate_compiled_flat(compiled, lists, **kwargs),
            evaluate_compiled(compiled, lists, **kwargs))


def _store_matches_lists(lazy, text, list_limit=None):
    """A session over the store answers like the kernel over the
    store's decoded lists, and like the reference engine."""
    compiled = compile_query(parse_query(text), lazy.tokenizer.normalize)
    lists = {kw: lazy.postings(kw)[:list_limit] for kw in compiled.atoms}
    searched = SearchSession(lazy).search(text, list_limit=list_limit)
    assert searched == evaluate_compiled_flat(compiled, lists)
    assert _pairs(searched) == _pairs(evaluate_compiled(compiled, lists))
    return searched


class TestSingleNodeDocuments:
    def test_root_only_document(self):
        # One node, Dewey code () — the LCA is the root itself,
        # so every instance path has length 0.
        index = InvertedIndex({"a": [Posting((), 1)],
                               "b": [Posting((), 2)]})
        flat, obj = _both(index, "(a b)")
        assert _pairs(flat) == _pairs(obj) == [((), 0)]

    def test_single_keyword_single_node(self):
        index = InvertedIndex({"a": [Posting((0,), 1)]})
        flat, obj = _both(index, "(a)")
        assert _pairs(flat) == _pairs(obj) == [((0,), 0)]

    def test_single_node_store_roundtrip(self, tmp_path):
        index = InvertedIndex({"a": [Posting((), 1)]})
        path = tmp_path / "one.idx2"
        save_index_v2(index, path)
        with load_index_v2(path) as lazy:
            assert _pairs(_store_matches_lists(lazy, "(a)")) == [((), 0)]


class TestEmptyResults:
    def test_missing_keyword_short_circuits(self, figure1_index):
        flat, obj = _both(figure1_index, "(xml notinthetree)")
        assert flat == obj == []

    def test_empty_index(self):
        index = InvertedIndex({})
        flat, obj = _both(index, "(a b)")
        assert flat == obj == []

    def test_impossible_cohesion(self):
        # Two keywords in disjoint subtrees cohere only at the root;
        # a size budget of 1 empties the answer on both paths.
        index = InvertedIndex({"a": [Posting((0, 0), 1)],
                               "b": [Posting((1, 0), 1)]})
        flat, obj = _both(index, "(a b)", size_budget=1)
        assert flat == obj == []

    def test_empty_result_on_store(self, figure1_index, tmp_path):
        path = tmp_path / "empty.idx2"
        save_index_v2(figure1_index, path)
        with load_index_v2(path) as lazy:
            assert _store_matches_lists(lazy, "(xml notinthetree)") == []


class TestMultiBlockPostings:
    """A keyword whose postings span several on-disk blocks: the lazy
    mapping merges the per-segment blocks before the kernel sees
    them."""

    @pytest.fixture()
    def multi_segment(self, tmp_path):
        path = tmp_path / "multi.idx2"
        save_index_v2(InvertedIndex({
            "a": [Posting((0, 0), 1), Posting((2,), 1)],
            "b": [Posting((0, 1), 1)],
        }), path)
        append_segment(path, InvertedIndex({
            "a": [Posting((0, 0), 2), Posting((1, 0), 1)],
        }))
        append_segment(path, InvertedIndex({
            "a": [Posting((3,), 4)],
            "b": [Posting((1, 1), 1)],
        }))
        return path

    def test_store_evaluation_merges_blocks(self, multi_segment):
        with load_index_v2(multi_segment) as lazy:
            # Same-code frequencies summed across segments first.
            assert dict((p.code, p.frequency)
                        for p in lazy.postings("a"))[(0, 0)] == 3
            assert _store_matches_lists(lazy, "(a b)")

    def test_list_limit_applies_after_merge(self, multi_segment):
        with load_index_v2(multi_segment) as lazy:
            for limit in (1, 2, 3, 10):
                _store_matches_lists(lazy, "(a b)", list_limit=limit)

    def test_session_parity_on_multi_segment_store(self, multi_segment):
        with load_index_v2(multi_segment) as lazy:
            session = SearchSession(lazy)
            searched = session.search("(a b)")
            assert session.search_batch(["(a b)"]) == [searched]
            assert sorted(session.stream("(a b)"),
                          key=Result.sort_key) == searched

    def test_dedup_base_plus_appends(self, tmp_path):
        # Dedup first segment, plain appends on top: mixed flags.
        path = tmp_path / "mixed.idx2"
        base = InvertedIndex({
            "a": [Posting((r, 0), 1) for r in range(6)],
            "b": [Posting((r, 1), 1) for r in range(6)],
        })
        save_index_v2_dedup(base, path)
        append_segment(path, InvertedIndex({"a": [Posting((9,), 2)]}))
        with load_index_v2(path) as lazy:
            assert _store_matches_lists(lazy, "(a b)")


# -- table-key corners -------------------------------------------------------

def _random_index(keywords, seed):
    """A seeded three-level tree whose every node, internal nodes too,
    holds up to two keywords at frequency 1-3."""
    rng = random.Random(seed)
    lists: dict[str, list] = {}
    level = [()]
    for _ in range(3):
        level = [code + (step,) for code in level for step in range(3)]
        for code in level:
            for keyword in rng.sample(keywords, rng.randint(0, 2)):
                lists.setdefault(keyword, [])
                lists[keyword].append(Posting(code, rng.randint(1, 3)))
    return InvertedIndex({keyword: sorted(plist)
                          for keyword, plist in lists.items()})


def _wide_index(seed):
    """Subtree ``(0,)`` holds every keyword of ``WIDE`` once and subtree
    ``(1,)`` four of them, at seeded internal and leaf nodes; ``w9``
    and ``w10`` always share a node.  (A second complete subtree would
    make the root join two tables of 2**12 masks: seconds per query.)"""
    rng = random.Random(seed)
    groups = [[keyword] for keyword in WIDE[:9]] + [WIDE[9:11], WIDE[11:]]
    lists: dict[str, list] = {}
    for top, count in ((0, len(groups)), (1, 4)):
        nodes = [(top, mid) for mid in range(2)] + \
            [(top, mid, leaf) for mid in range(2) for leaf in range(2)]
        for group in rng.sample(groups, count):
            code = rng.choice(nodes)
            for keyword in group:
                lists.setdefault(keyword, []).append(Posting(code, 1))
    return InvertedIndex({keyword: sorted(plist)
                          for keyword, plist in lists.items()})


def _checked(index, text, **options):
    """``search``, after checking it against ``search_batch``, the
    sorted ``stream`` (full rows) and the reference engine (``(code,
    size)``)."""
    session = SearchSession(index)
    searched = session.search(text, **options)
    assert session.search_batch([text], **options) == [searched]
    assert sorted(session.stream(text, **options),
                  key=Result.sort_key) == searched
    compiled = compile_query(parse_query(text), index.tokenizer.normalize)
    lists = {kw: index.postings(kw) for kw in compiled.atoms}
    assert _pairs(searched) == _pairs(evaluate_compiled(compiled, lists,
                                                        **options))
    return searched


WIDE = [f"w{number}" for number in range(12)]
#: 11 root members: nine keywords, the term (w9 w10) and w11.
WIDE_NESTED = f"({' '.join(WIDE[:9])} ({WIDE[9]} {WIDE[10]}) {WIDE[11]})"


class TestWideMasks:
    """Terms of 11 and 12 members: member masks reach bits 10 and 11,
    so the pure flag and the usage id sit above them in a key."""

    @pytest.mark.parametrize("seed", range(3, 9))
    @pytest.mark.parametrize("impenetrability", [True, False])
    def test_twelve_member_term(self, seed, impenetrability):
        results = _checked(_wide_index(seed), f"({' '.join(WIDE)})",
                           impenetrability=impenetrability)
        assert [row.code for row in results][-1] == ()

    @pytest.mark.parametrize("seed", range(3, 9))
    @pytest.mark.parametrize("impenetrability", [True, False])
    def test_eleven_member_root_with_subterm(self, seed, impenetrability):
        assert parse_query(WIDE_NESTED).max_term_cardinality == 11
        results = _checked(_wide_index(seed), WIDE_NESTED,
                           impenetrability=impenetrability)
        assert results

    def test_all_member_bits_meet_at_one_parent(self):
        # Every keyword on its own leaf under one parent: the answer
        # needs the union of all twelve member bits at the parent.
        index = InvertedIndex({
            keyword: [Posting((0, number), 1)]
            for number, keyword in enumerate(WIDE)})
        results = _checked(index, f"({' '.join(WIDE)})")
        assert _pairs(results) == [((0,), 12)]


class TestUsageIdsMeetLiftedEntries:
    """Repeated keywords on internal nodes: the node's own instances
    make pure entries with non-zero usage ids, which the join combines
    with the entries its children lift."""

    KEYWORDS = ["a", "b", "c"]
    QUERIES = ["((a b) (a c) a)", "(a a b)", "((a a) (b c) a)",
               "(a (a b) (a c))"]

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("impenetrability", [True, False])
    def test_repeated_keywords(self, text, seed, impenetrability):
        index = _random_index(self.KEYWORDS, seed)
        _checked(index, text, impenetrability=impenetrability)

    def test_internal_node_budget(self):
        # (0,) holds "a" twice itself, so "(a a b)" needs only one more
        # instance of "b" below it; (1,) holds "a" once and cannot.
        index = InvertedIndex({
            "a": [Posting((0,), 2), Posting((0, 1), 1), Posting((1,), 1),
                  Posting((1, 0), 1)],
            "b": [Posting((0, 0), 1), Posting((1, 1), 1)],
        })
        results = _checked(index, "(a a b)")
        assert ((0,), 1) in _pairs(results)
        assert ((1,), 2) in _pairs(results)
