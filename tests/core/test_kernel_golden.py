"""Golden rows: full kernel answers, frozen.

The differential-oracle and entry-point parity suites compare entry
points with each other, and with the reference engine on ``(code,
size)``.  Every entry point runs the same kernel, so a change to how
it breaks ties between equal-size embeddings passes them if it moves
every entry point at once; ``rank="vector"`` and ``rank="skyline"``
would still read other breakdowns.  These rows pin the whole answer —
codes, sizes and per-term breakdowns (``term_sizes``) — on generated
DBLP-like and XMark-like collections: the seed-13 tie query, a
10-member and a 7-member root term on each collection, repeated
keywords, the ``impenetrability=False`` ablation and ``top_k``.

Small answers are stored as literal rows; large ones as their row
count and the sha256 of their ``repr``.  Run this file as a script
(``PYTHONPATH=src python -m tests.core.test_kernel_golden``) to print
the current answers in the same form.  A changed row is a changed
answer, not a stale fixture.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets import generate_dblp, generate_xmark
from repro.index.inverted import InvertedIndex
from repro.index.streaming import StreamingIndexer
from repro.runtime import SearchSession
from repro.xmlio.pull_parser import PullParser
from repro.xmlio.writer import dump_tree

#: Answers with more rows than this are stored as (count, sha256).
LITERAL_ROWS = 8

#: (generator, scale per document): three documents each, document
#: ``i`` generated with seed ``13000 + i`` under the Dewey prefix
#: ``(i,)`` — the seed-13 collections of the benchmark's paper-scan.
COLLECTIONS = {"dblp": (generate_dblp, 250), "xmark": (generate_xmark, 80)}

TIE_QUERY = ("((algorithms learning information mining optimization) "
             "(graphs parallel semantics references processing))")
DBLP_ROOT10 = ("(optimization tom (references structured) (scalable tree) "
               "(learning efficient) (mining retrieval) (search lee) "
               "article victor linda)")
DBLP_ROOT7 = ("(parallel optimization (review linda retrieval) "
              "(systems year efficient) (logic garcia semantics) "
              "(davis temporal tree) nina)")
XMARK_ROOT10 = ("(open watch (location text) (auction clock) (coin item) "
                "(gold camera) (carpet table) interest date book)")
XMARK_ROOT7 = ("(interest item (mirror id bicycle) "
               "(personref description book) (payment table name) "
               "(ring lamp auction) location)")
DBLP_REPEATED = "((mining data) (data processing) data)"
XMARK_REPEATED = "((listitem text) (listitem parlist) listitem)"
DBLP_PAIRS = "((author article) (title article))"

#: (collection, query, search options) -> expected answer.
CASES = [
    ("dblp", TIE_QUERY, {"list_limit": 100}),
    ("dblp", TIE_QUERY, {"list_limit": 200}),
    ("dblp", TIE_QUERY, {"list_limit": 300}),
    ("dblp", TIE_QUERY, {"list_limit": 200, "impenetrability": False}),
    ("dblp", TIE_QUERY, {"list_limit": 300, "top_k": 3}),
    ("dblp", DBLP_ROOT10, {"list_limit": 100}),
    ("dblp", DBLP_ROOT7, {"list_limit": 300}),
    ("dblp", DBLP_ROOT7, {"list_limit": 300, "impenetrability": False}),
    ("dblp", DBLP_REPEATED, {"list_limit": 300}),
    ("dblp", DBLP_REPEATED, {"list_limit": 300, "impenetrability": False}),
    ("dblp", DBLP_PAIRS, {"list_limit": 300, "impenetrability": False}),
    ("xmark", XMARK_ROOT10, {"list_limit": 300}),
    ("xmark", XMARK_ROOT10, {"list_limit": 300, "top_k": 3}),
    ("xmark", XMARK_ROOT7, {"list_limit": 100}),
    ("xmark", XMARK_ROOT7, {"list_limit": 100, "impenetrability": False}),
    ("xmark", XMARK_REPEATED, {"list_limit": 300}),
    ("xmark", XMARK_REPEATED, {"list_limit": 300, "top_k": 3}),
]

EXPECTED = [
    [((), 11, (11, 4, 5)), ((0,), 13, (13, 5, 6))],
    [((), 11, (11, 4, 4)), ((0,), 11, (11, 5, 4))],
    [((), 10, (10, 4, 3)), ((0,), 11, (11, 5, 4))],
    [((0,), 9, (9, 4, 5)), ((1,), 9, (9, 4, 5)), ((), 11, (11, 4, 5))],
    [((), 10, (10, 4, 3)), ((0,), 11, (11, 5, 4))],
    [((0,), 14, (14, 2, 0, 0, 0, 2)), ((), 16, (16, 2, 0, 0, 0, 2))],
    [((0,), 15, (15, 2, 2, 2, 2)),
     ((), 17, (17, 2, 2, 2, 2)),
     ((1,), 20, (20, 3, 5, 2, 2))],
    [((0,), 15, (15, 2, 2, 2, 2)),
     ((), 17, (17, 2, 2, 2, 2)),
     ((1,), 18, (18, 4, 4, 2, 2))],
    [((0,), 4, (4, 0, 0)),
     ((1,), 4, (4, 0, 0)),
     ((), 6, (6, 0, 0)),
     ((1, 41), 6, (6, 0, 0)),
     ((2,), 6, (6, 0, 0))],
    [((1, 141), 3, (3, 2, 0)),
     ((0,), 4, (4, 0, 0)),
     ((1,), 4, (4, 0, 0)),
     ((), 6, (6, 0, 0)),
     ((1, 41), 6, (6, 0, 0)),
     ((2,), 6, (6, 2, 0)),
     ((0, 176), 8, (8, 0, 4)),
     ((1, 201), 8, (8, 0, 4))],
    (226, '86d390530e91022dcde09a89ab42d7a53d9e6fb823dc29ef276fae9c8fbd8fd8'),
    [((0,), 30, (30, 5, 4, 1, 0, 0)),
     ((), 31, (31, 5, 4, 1, 0, 0)),
     ((1,), 31, (31, 5, 4, 1, 0, 0))],
    [((0,), 30, (30, 5, 4, 1, 0, 0)),
     ((), 31, (31, 5, 4, 1, 0, 0)),
     ((1,), 31, (31, 5, 4, 1, 0, 0))],
    [((0,), 32, (32, 5, 7, 2, 5)), ((), 35, (35, 5, 7, 2, 5))],
    [((0,), 31, (31, 5, 7, 2, 5)), ((), 34, (34, 5, 7, 2, 5))],
    (63, 'c35a9abfd5c7c883a0bddeb22cecb13a596dc5d00b3bd64ace8e18c56125b190'),
    [((0, 0, 0, 0, 3, 0), 5, (5, 1, 1)),
     ((0, 0, 0, 2, 3, 0), 5, (5, 1, 1)),
     ((0, 0, 0, 3, 3, 0), 5, (5, 1, 1))],
]


def _collection(name: str) -> InvertedIndex:
    generate, scale = COLLECTIONS[name]
    lists: dict[str, list] = {}
    for number in range(3):
        xml = dump_tree(generate(scale=scale, seed=13000 + number).tree)
        indexer = StreamingIndexer(root_prefix=(number,))
        for event in PullParser(xml):
            indexer.feed(event)
        for keyword, plist in indexer.finish().raw_postings().items():
            lists.setdefault(keyword, []).extend(plist)
    return InvertedIndex(lists)


def frozen(results) -> object:
    """An answer in its stored form: literal ``(code, size,
    term_sizes)`` rows, or ``(row count, sha256 of repr)``."""
    if len(results) <= LITERAL_ROWS:
        return [(row.code, row.size, row.term_sizes) for row in results]
    return (len(results),
            hashlib.sha256(repr(results).encode()).hexdigest())


@pytest.fixture(scope="module")
def sessions():
    return {name: SearchSession(_collection(name)) for name in COLLECTIONS}


@pytest.mark.parametrize("case, expected", list(zip(CASES, EXPECTED)),
                         ids=[f"{name}-{number}" for number, (name, _, _)
                              in enumerate(CASES)])
def test_rows_match_golden(sessions, case, expected):
    name, query, options = case
    session = sessions[name]
    results = session.search(query, **options)
    assert frozen(results) == expected
    assert session.search_batch([query], **options) == [results]


def test_every_case_has_an_answer():
    assert len(EXPECTED) == len(CASES)


if __name__ == "__main__":
    from pprint import pformat
    from textwrap import indent
    live = {name: SearchSession(_collection(name)) for name in COLLECTIONS}
    print("EXPECTED = [")
    for name, query, options in CASES:
        answer = frozen(live[name].search(query, **options))
        print(indent(pformat(answer, width=75), "    ") + ",")
    print("]")
