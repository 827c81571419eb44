"""End-to-end robustness on trees deeper than Python's recursion limit.

Every pipeline stage is iterative (parser, builder, writer, indexer,
engine, baselines), so a 5000-level chain must flow through the whole
system without RecursionError.
"""

import sys

import pytest

from repro.core.engine import evaluate
from repro.baselines import slca
from repro.index.inverted import InvertedIndex
from repro.index.streaming import index_xml
from repro.tree.builder import TreeBuilder
from repro.xmlio.loader import load_tree
from repro.xmlio.writer import dump_tree

DEPTH = max(5000, sys.getrecursionlimit() + 2000)


@pytest.fixture(scope="module")
def deep_tree():
    builder = TreeBuilder()
    for level in range(DEPTH):
        builder.start("n", "alpha" if level == DEPTH - 2 else None)
    builder.leaf("leaf", "omega")
    for _ in range(DEPTH):
        builder.end()
    return builder.finish()


def test_build_and_stats(deep_tree):
    assert deep_tree.max_depth == DEPTH
    assert len(deep_tree) == DEPTH + 1


def test_writer_and_loader_survive(deep_tree):
    text = dump_tree(deep_tree, indent=0)
    reloaded = load_tree(text)
    assert len(reloaded) == len(deep_tree)
    assert reloaded.max_depth == deep_tree.max_depth


def test_streaming_index_survives(deep_tree):
    index = index_xml(dump_tree(deep_tree, indent=0))
    assert index.frequency("omega") == 1


def test_engine_survives(deep_tree):
    index = InvertedIndex.from_tree(deep_tree)
    results = evaluate("(alpha omega)", index)
    assert results
    # alpha sits just above the leaf's parent: the LCA is the alpha node.
    assert results[0].size == 2


def test_baseline_survives(deep_tree):
    index = InvertedIndex.from_tree(deep_tree)
    assert slca(["alpha", "omega"], index)


def test_flat_kernel_survives_and_matches(deep_tree):
    """Max-depth Dewey codes through the kernel: the ranked scan and
    its subtree-template cache must handle ~5000-component codes,
    answer like the push path, and match the reference engine."""
    from repro.core.kernel import evaluate_compiled_flat
    from repro.core.parser import parse_query
    from repro.core.signatures import compile_query
    from repro.runtime import SearchSession

    from tests.reference_engine import evaluate_compiled

    index = InvertedIndex.from_tree(deep_tree)
    compiled = compile_query(parse_query("(alpha omega)"),
                             index.tokenizer.normalize)
    lists = {kw: index.postings(kw) for kw in compiled.atoms}
    flat = evaluate_compiled_flat(compiled, lists)
    assert SearchSession(index).search_batch(["(alpha omega)"]) == [flat]
    assert [(r.code, r.size) for r in flat] == \
        [(r.code, r.size) for r in evaluate_compiled(compiled, lists)]
    assert flat and flat[0].size == 2


def test_dedup_store_survives(deep_tree, tmp_path):
    """The dedup builder walks the full posting trie iteratively; a
    deeper-than-recursion-limit chain must round-trip unchanged."""
    from repro.index.store_v2 import load_index_v2, save_index_v2_dedup

    index = InvertedIndex.from_tree(deep_tree)
    path = tmp_path / "deep.idx2"
    save_index_v2_dedup(index, path)
    with load_index_v2(path) as lazy:
        assert lazy.raw_postings() == index.raw_postings()
