"""Differential testing: engine == lattice machine == brute-force oracle.

The oracle (:mod:`tests.oracle`) re-implements Def. 1-3 by literal
enumeration, sharing no evaluation machinery with the production paths.
On random small trees and random cohesive queries, all three must agree
on the result set *and* on every LCA's size; any divergence pinpoints a
semantics bug in exactly one layer.

The kernel half holds the evaluation kernel (:mod:`repro.core.kernel`)
to the reference engine (:mod:`tests.reference_engine`) and the oracle
on ``(code, size)`` — on materialized lists, through the session under
every algorithm × rank-mode combination, and over CKSIDX2 stores,
including DAG-deduped ones whose posting blocks fan back out on decode.
Across the kernel's own entry points the answer is the full Result
row (see also tests/test_entry_point_parity.py).

This suite is also wired as a dedicated CI job (see
.github/workflows/ci.yml) so it cannot be skipped silently.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import evaluate
from repro.core.kernel import evaluate_compiled_flat
from repro.core.lattice_machine import lattice_machine_evaluate
from repro.core.semantics import brute_force_evaluate
from repro.core.signatures import compile_query
from repro.index.inverted import InvertedIndex
from repro.index.store_v2 import (load_index_v2, save_index_v2,
                                  save_index_v2_dedup)
from repro.runtime import ALGORITHMS, RANK_MODES, SearchSession

from tests.core.test_engine_oracle import queries, trees
from tests.oracle import oracle_search
from tests.reference_engine import evaluate_compiled


def _pairs(results):
    return [(r.code, r.size) for r in results]


@given(trees(), queries())
@settings(max_examples=120)
def test_engine_matches_oracle(tree, query):
    index = InvertedIndex.from_tree(tree)
    fast = [(r.code, r.size) for r in evaluate(query, index)]
    assert fast == oracle_search(tree, query)


@given(trees(), queries())
@settings(max_examples=60)
def test_lattice_machine_matches_oracle(tree, query):
    index = InvertedIndex.from_tree(tree)
    machine = [(r.code, r.size)
               for r in lattice_machine_evaluate(query, index)]
    assert machine == oracle_search(tree, query)


@given(trees(), queries())
@settings(max_examples=60)
def test_all_four_implementations_agree(tree, query):
    """engine == machine == repro.core.semantics == tests.oracle.

    Two independent oracles guard each other: repro.core.semantics is
    the package's own reference implementation, tests.oracle re-derives
    everything (including the Dewey algebra) from the paper's text.
    """
    index = InvertedIndex.from_tree(tree)
    expected = oracle_search(tree, query)
    engine = [(r.code, r.size) for r in evaluate(query, index)]
    machine = [(r.code, r.size)
               for r in lattice_machine_evaluate(query, index)]
    semantics = [(r.code, r.size)
                 for r in brute_force_evaluate(query, index)]
    assert engine == expected
    assert machine == expected
    assert semantics == expected


@given(trees(), queries())
@settings(max_examples=40)
def test_lazy_store_roundtrip_preserves_results(tmp_path_factory, tree,
                                                query):
    """Searching a CKSIDX2-persisted index lazily must not change the
    answer: the full pipeline (save → mmap open → lazy decode → session
    search) agrees with the oracle."""
    index = InvertedIndex.from_tree(tree)
    path = tmp_path_factory.mktemp("oracle-store") / "t.idx2"
    save_index_v2(index, path)
    with load_index_v2(path) as lazy:
        session = SearchSession(lazy)
        lazy_results = [(r.code, r.size) for r in session.search(query)]
    assert lazy_results == oracle_search(tree, query)


# -- the kernel-differential suite ------------------------------------------

@given(trees(), queries())
@settings(max_examples=120)
def test_flat_kernel_matches_reference_and_oracle(tree, query):
    """Kernel == reference engine == oracle on ``(code, size)``, with
    and without a size budget; the budgeted answer is the unbudgeted
    one filtered, row for row."""
    index = InvertedIndex.from_tree(tree)
    compiled = compile_query(query, index.tokenizer.normalize)
    lists = {kw: index.postings(kw) for kw in compiled.atoms}
    flat_results = evaluate_compiled_flat(compiled, lists)
    assert _pairs(flat_results) == \
        _pairs(evaluate_compiled(compiled, lists)) == \
        oracle_search(tree, query)
    if flat_results:
        budget = flat_results[len(flat_results) // 2].size
        budgeted = evaluate_compiled_flat(compiled, lists,
                                          size_budget=budget)
        assert budgeted == [r for r in flat_results if r.size <= budget]
        assert _pairs(budgeted) == _pairs(
            evaluate_compiled(compiled, lists, size_budget=budget))


@given(trees(), queries())
@settings(max_examples=30, deadline=None)
def test_kernel_parity_across_algorithms_and_rank_modes(tree, query):
    """``search`` == ``search_batch`` through the session facade for
    every algorithm and, for the cohesive engine, every rank mode;
    the top-k loop returns the ranking's head."""
    index = InvertedIndex.from_tree(tree)
    session = SearchSession(index)
    for algorithm in ALGORITHMS:
        assert session.search_batch([query], algorithm=algorithm) == \
            [session.search(query, algorithm=algorithm)]
    for rank in RANK_MODES:
        assert session.search_batch([query], rank=rank) == \
            [session.search(query, rank=rank)]
    assert session.search(query, top_k=2) == session.search(query)[:2]


@given(trees(), queries())
@settings(max_examples=40)
def test_dedup_store_evaluates_byte_identically(tmp_path_factory, tree,
                                                query):
    """The DAG-deduped store changes bytes on disk, never answers:
    its lazy mapping decodes the plain index's postings, so a session
    over it returns the plain session's rows exactly — and the
    reference engine's and the oracle's ``(code, size)``."""
    index = InvertedIndex.from_tree(tree)
    path = tmp_path_factory.mktemp("dedup-store") / "t.idx2"
    save_index_v2_dedup(index, path)
    compiled = compile_query(query, index.tokenizer.normalize)
    lists = {kw: index.postings(kw) for kw in compiled.atoms}
    with load_index_v2(path) as lazy:
        for kw in index.raw_postings():
            assert lazy.postings(kw) == index.postings(kw)
        session_results = SearchSession(lazy).search(query)
    assert session_results == SearchSession(index).search(query)
    assert _pairs(session_results) == \
        _pairs(evaluate_compiled(compiled, lists)) == \
        oracle_search(tree, query)
