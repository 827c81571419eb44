"""One answer per input, whatever drives the evaluation.

CohesiveLCA runs on one kernel (:mod:`repro.core.kernel`), reached
through several entry points: ``search`` (the ranked scan with
subtree-template replay), ``search_batch`` (the shared-scan push path),
``stream`` (post-order yields), the size budget of ``top_k`` and
``max_size``, and the ``POST /search`` route of a live server.  They
must agree on full :class:`~repro.core.results.Result` rows — codes,
sizes and per-term breakdowns — because ``rank="vector"`` and
``rank="skyline"`` read the breakdowns.  Against the reference engine
(:mod:`tests.reference_engine`) and the brute-force oracle the contract
is ``(code, size)``: equal-size embeddings may tie-break differently
there.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.parser import parse_query
from repro.core.results import Result
from repro.core.signatures import compile_query
from repro.datasets import generate_dblp
from repro.index.inverted import InvertedIndex
from repro.index.streaming import StreamingIndexer
from repro.runtime import SearchSession
from repro.server import SearchServer, wire
from repro.xmlio.pull_parser import PullParser
from repro.xmlio.writer import dump_tree

from tests.core.test_engine_oracle import queries, trees
from tests.oracle import oracle_search
from tests.reference_engine import evaluate_compiled
from tests.server.conftest import http_post


def _pairs(results) -> list:
    return [(row.code, row.size) for row in results]


def _entry_points(session: SearchSession, query, **options) -> list:
    """``search``; raises unless ``search_batch`` and the sorted
    ``stream`` return exactly the same rows."""
    searched = session.search(query, **options)
    assert session.search_batch([query], **options) == [searched]
    streamed = sorted(session.stream(query, **options),
                      key=Result.sort_key)
    assert streamed == searched
    return searched


# -- the seed-13 tie ---------------------------------------------------------

#: On this DBLP-like collection the root ties between embeddings of
#: term sizes (11, 4, 4) and (11, 4, 5) at list_limit 200.  A subtree
#: template replayed its lifted entries in the term order its first
#: build happened to see, so ``search`` kept one embedding while the
#: push path kept the other, and ``rank="skyline"`` returned one row
#: through one entry point and two through the other.
TIE_QUERY = ("((algorithms learning information mining optimization) "
             "(graphs parallel semantics references processing))")


@pytest.fixture(scope="module")
def seed13_session():
    """Three generated DBLP-like documents side by side, document ``i``
    streamed under the Dewey prefix ``(i,)``."""
    lists: dict[str, list] = {}
    for number in range(3):
        xml = dump_tree(generate_dblp(scale=250, seed=13000 + number).tree)
        indexer = StreamingIndexer(root_prefix=(number,))
        for event in PullParser(xml):
            indexer.feed(event)
        for keyword, plist in indexer.finish().raw_postings().items():
            lists.setdefault(keyword, []).extend(plist)
    return SearchSession(InvertedIndex(lists))


def test_seed13_tie_breaks_alike_on_every_entry_point(seed13_session):
    results = _entry_points(seed13_session, TIE_QUERY, list_limit=200)
    assert results
    for rank in ("vector", "skyline"):
        assert seed13_session.search_batch(
            [TIE_QUERY], rank=rank, list_limit=200) == \
            [seed13_session.search(TIE_QUERY, rank=rank, list_limit=200)]


# -- the parity property -----------------------------------------------------

@given(trees(), queries())
@settings(max_examples=150)
def test_entry_points_agree(tree, query):
    index = InvertedIndex.from_tree(tree)
    session = SearchSession(index)
    full = _entry_points(session, query)
    for k in (1, 2, 5):
        assert session.search(query, top_k=k) == full[:k]
    for bound in sorted({row.size for row in full} | {0}):
        assert _entry_points(session, query, max_size=bound) == \
            [row for row in full if row.size <= bound]
    ablated = _entry_points(session, query, impenetrability=False)

    expected = oracle_search(tree, query)
    compiled = compile_query(query, index.tokenizer.normalize)
    lists = {keyword: index.postings(keyword) for keyword in compiled.atoms}
    assert _pairs(full) == expected
    assert _pairs(evaluate_compiled(compiled, lists)) == expected
    assert _pairs(ablated) == _pairs(
        evaluate_compiled(compiled, lists, impenetrability=False))


# -- end to end: the wire ---------------------------------------------------

@pytest.fixture(scope="module")
def live_server():
    session = SearchSession(InvertedIndex({}))
    with SearchServer(session, series_interval=None) as server:
        yield server


@given(trees(), queries())
@settings(max_examples=25)
def test_post_search_matches_session_and_oracle(live_server, tree, query):
    session = live_server.session
    session.swap_index(InvertedIndex.from_tree(tree))
    text = str(query)
    status, body, _ = http_post(live_server.url + "/search",
                                {"query": text})
    assert status == 200
    results = session.search(parse_query(text))
    assert body["results"] == [wire.result_to_wire(row) for row in results]
    assert _pairs(results) == oracle_search(tree, query)
