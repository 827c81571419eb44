"""Index cold start — v1 eager full load vs v2 mmap lazy open.

The CKSIDX1 reader must decode every posting block before the first
query can run; CKSIDX2 mmaps the file, parses only the directory, and
decodes exactly the blocks a query touches.  On a wide synthetic index
(>=10k keywords, a handful of postings each) a single-keyword query
needs one block, so cold start should collapse from O(index) to
O(directory + one list).

The acceptance bar (and the assertion below) is a >=5x wall-clock win
for "v2 lazy open + first single-keyword query" over "v1 full load +
the same query", with identical answers.  ``REPRO_BENCH_MODE`` selects
which mode pytest-benchmark records.

``test_open_after_64_segments`` times the open of a 64-segment store in
both v2 directory layouts: the first one (a single full directory, what
appends rewrote before the directory chain) and the chain that
``append_segment`` writes now (a base plus 63 CRC-checked deltas).

``test_merge_copies_blocks`` times compaction of a store shaped like
the ``store-churn`` workload's: a 300-document base and 16
one-document appends.  It prints the merge for the reference path
(decode every keyword, merge, encode again) and for ``merge_index``,
which copies canonical blocks, and checks that both write the same
bytes.
"""

import os
import random
import struct
import time

from repro.index.inverted import InvertedIndex, Posting
from repro.index.store import load_index, save_index
from repro.index.store_v2 import (LEGACY_TAIL_MAGIC, MAGIC_V2,
                                  _encode_directory,
                                  _encode_segment_payload, append_segment,
                                  encode_index_v2, load_index_v2,
                                  merge_index, save_index_v2)
from repro.index.streaming import index_xml
from repro.evaluation.reporting import format_table

from conftest import report, scaled

MODE = os.environ.get("REPRO_BENCH_MODE", "lazy")
ROUNDS = 5
KEYWORDS = 10_000          # acceptance floor; not scaled below it
POSTINGS_PER_KEYWORD = 24
SEGMENTS = 64
KEYWORDS_PER_APPEND = 100


def _synthetic_index(keywords: int, per_keyword: int) -> InvertedIndex:
    """A wide index: ``keywords`` distinct terms, each with a sorted
    Dewey posting list of ``per_keyword`` entries."""
    rng = random.Random(20160315)
    lists = {}
    for number in range(keywords):
        codes = sorted({
            (rng.randrange(40), rng.randrange(40), rng.randrange(60),
             rng.randrange(30))
            for _ in range(per_keyword)
        })
        lists[f"kw{number:05d}"] = [Posting(code, 1 + (number % 3))
                                    for code in codes]
    return InvertedIndex(lists)


def _v1_cold_query(path, keyword):
    index = load_index(path)
    return index.postings(keyword)


def _v2_cold_query(path, keyword):
    with load_index_v2(path) as lazy:
        return lazy.postings(keyword)


def _best_of_interleaved(first, second, rounds=ROUNDS):
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(rounds):
        for position, callable_ in enumerate((first, second)):
            start = time.perf_counter()
            results[position] = callable_()
            best[position] = min(best[position],
                                 time.perf_counter() - start)
    return best[0], results[0], best[1], results[1]


def test_lazy_coldstart_speedup(benchmark, tmp_path):
    keywords = max(KEYWORDS, scaled(KEYWORDS))
    index = _synthetic_index(keywords, POSTINGS_PER_KEYWORD)
    v1_path = tmp_path / "cold.idx"
    v2_path = tmp_path / "cold.idx2"
    v1_bytes = save_index(index, v1_path)
    v2_bytes = save_index_v2(index, v2_path)
    keyword = f"kw{keywords // 2:05d}"  # mid-directory single keyword

    eager_s, eager_postings, lazy_s, lazy_postings = \
        _best_of_interleaved(lambda: _v1_cold_query(v1_path, keyword),
                             lambda: _v2_cold_query(v2_path, keyword))

    assert lazy_postings == eager_postings
    assert lazy_postings == index.postings(keyword)

    if MODE == "eager":
        benchmark.pedantic(lambda: _v1_cold_query(v1_path, keyword),
                           rounds=1, iterations=1)
    else:
        benchmark.pedantic(lambda: _v2_cold_query(v2_path, keyword),
                           rounds=1, iterations=1)
    benchmark.extra_info["mode"] = MODE
    benchmark.extra_info["keywords"] = keywords
    benchmark.extra_info["store_bytes"] = {"v1": v1_bytes,
                                           "v2": v2_bytes}

    speedup = eager_s / lazy_s if lazy_s else float("inf")
    report("Index cold start: v1 full load vs v2 lazy open "
           f"({keywords} keywords)",
           format_table(
               ["path", "best of 5 (ms)", "speedup", "bytes"],
               [["v1 load_index + query", f"{eager_s * 1e3:.2f}",
                 "1.00", str(v1_bytes)],
                ["v2 lazy open + query", f"{lazy_s * 1e3:.2f}",
                 f"{speedup:.2f}", str(v2_bytes)]]))

    assert speedup >= 5.0, (
        f"lazy cold start must be >=5x faster: v1 {eager_s * 1e3:.2f}ms"
        f" vs v2 {lazy_s * 1e3:.2f}ms ({speedup:.2f}x)")


def test_lazy_decodes_only_touched_blocks(benchmark, tmp_path,
                                          run_metrics):
    """Cold-start laziness in counters: one query, one decoded block."""
    index = _synthetic_index(max(KEYWORDS // 10, 1000),
                             POSTINGS_PER_KEYWORD)
    path = tmp_path / "touch.idx2"
    save_index_v2(index, path)

    def cold():
        with load_index_v2(path) as lazy:
            return lazy.postings("kw00007")

    benchmark.pedantic(cold, rounds=1, iterations=1)
    counters = run_metrics.snapshot()["counters"]
    assert counters["index_open_v2"] >= 1
    assert counters["posting_decode_blocks"] == \
        counters["index_open_v2"]  # exactly one block per cold open


def _appended_segments(keywords: int) -> list[dict]:
    """``SEGMENTS - 1`` small segments, each re-using
    ``KEYWORDS_PER_APPEND`` base keywords under a Dewey prefix of its
    own (so every list gains postings, as a new document adds them)."""
    rng = random.Random(20160316)
    return [{f"kw{rng.randrange(keywords):05d}": [Posting((100 + number, 0),
                                                          1)]
             for _ in range(KEYWORDS_PER_APPEND)}
            for number in range(SEGMENTS - 1)]


def _first_layout_bytes(index: InvertedIndex, appended: list) -> bytes:
    """The same segments as one full directory under a 24-byte
    ``CKS2TAIL`` footer (the dead directories appends used to leave
    behind do not change what an open parses, so they are left out)."""
    blob = bytearray(MAGIC_V2)
    segments = []
    for postings in [index.raw_postings()] + appended:
        payload, extents = _encode_segment_payload(postings, len(blob))
        blob += payload
        segments.append(extents)
    directory = _encode_directory(segments)
    offset = len(blob)
    blob += directory
    blob += struct.pack("<QQ8s", offset, len(directory), LEGACY_TAIL_MAGIC)
    return bytes(blob)


def _open(path):
    with load_index_v2(path) as lazy:
        return lazy.segment_count


def test_open_after_64_segments(benchmark, tmp_path):
    keywords = max(KEYWORDS, scaled(KEYWORDS))
    index = _synthetic_index(keywords, POSTINGS_PER_KEYWORD)
    appended = _appended_segments(keywords)
    first_path = tmp_path / "first-layout.idx2"
    first_path.write_bytes(_first_layout_bytes(index, appended))
    chain_path = tmp_path / "chain.idx2"
    save_index_v2(index, chain_path)
    for postings in appended:
        append_segment(chain_path, postings)

    first_s, first_segments, chain_s, chain_segments = \
        _best_of_interleaved(lambda: _open(first_path),
                             lambda: _open(chain_path))
    assert first_segments == chain_segments == SEGMENTS
    with load_index_v2(first_path) as first, \
            load_index_v2(chain_path) as chain:
        assert dict(first.raw_postings()) == dict(chain.raw_postings())

    benchmark.pedantic(lambda: _open(chain_path), rounds=1, iterations=1)
    benchmark.extra_info["segments"] = SEGMENTS
    benchmark.extra_info["open_ms"] = {"first_layout": first_s * 1e3,
                                       "chain": chain_s * 1e3}
    report(f"Index open at {SEGMENTS} segments ({keywords} base keywords, "
           f"{KEYWORDS_PER_APPEND} per append)",
           format_table(
               ["directory layout", "best of 5 open (ms)", "bytes"],
               [["first layout: one full directory",
                 f"{first_s * 1e3:.2f}", str(first_path.stat().st_size)],
                ["chain: base + 63 deltas", f"{chain_s * 1e3:.2f}",
                 str(chain_path.stat().st_size)]]))


CHURN_BASE_DOCUMENTS = 300
CHURN_APPENDS = 16
CHURN_RECORDS = 10
CHURN_VOCABULARY = 6000
CHURN_NAMES = 800


def _churn_documents(count: int) -> list[str]:
    """Small bibliographies: per record a title, 1-3 authors and topic
    words, drawn from a Zipf-weighted (s = 0.6) vocabulary."""
    rng = random.Random(1)
    words = [f"w{number}" for number in range(CHURN_VOCABULARY)]
    names = [f"n{number}" for number in range(CHURN_NAMES)]
    rng.shuffle(words)
    weights = [1.0 / (rank + 1) ** 0.6 for rank in range(len(words))]
    documents = []
    for _ in range(count):
        parts = ["<bib>"]
        for _ in range(CHURN_RECORDS):
            title = " ".join(rng.choices(words, weights, k=6))
            topic = " ".join(rng.choices(words, weights, k=3))
            authors = "".join(
                f"<author>{rng.choice(names)} {rng.choice(names)}</author>"
                for _ in range(rng.randint(1, 3)))
            parts.append(f"<record><title>{title}</title>{authors}"
                         f"<topic>{topic}</topic></record>")
        parts.append("</bib>")
        documents.append("".join(parts))
    return documents


def _document_postings(xml: str, number: int) -> dict:
    """One document's postings under the Dewey prefix ``(number,)``."""
    return {keyword: [Posting((number,) + posting.code, posting.frequency)
                      for posting in plist]
            for keyword, plist in index_xml(xml).raw_postings().items()}


def _reference_merge(path, output):
    """Compaction by decoding every keyword and encoding it again."""
    with load_index_v2(path) as lazy:
        postings = lazy.raw_postings()
        blob = encode_index_v2({keyword: postings[keyword]
                                for keyword in postings})
    output.write_bytes(blob)


def test_merge_copies_blocks(benchmark, tmp_path):
    documents = _churn_documents(CHURN_BASE_DOCUMENTS + CHURN_APPENDS)
    lists: dict = {}
    for number, xml in enumerate(documents[:CHURN_BASE_DOCUMENTS]):
        for keyword, plist in _document_postings(xml, number).items():
            lists.setdefault(keyword, []).extend(plist)
    path = tmp_path / "churn.ckx"
    save_index_v2(InvertedIndex(lists), path)
    for number in range(CHURN_BASE_DOCUMENTS, len(documents)):
        append_segment(path, _document_postings(documents[number], number))
    reference_path = tmp_path / "reference.ckx"
    merged_path = tmp_path / "merged.ckx"

    reference_s, _, merge_s, _ = _best_of_interleaved(
        lambda: _reference_merge(path, reference_path),
        lambda: merge_index(path, output=merged_path))
    assert merged_path.read_bytes() == reference_path.read_bytes()

    benchmark.pedantic(lambda: merge_index(path, output=merged_path),
                       rounds=1, iterations=1)
    benchmark.extra_info["merge_ms"] = {"reference": reference_s * 1e3,
                                        "merge_index": merge_s * 1e3}
    with load_index_v2(path) as lazy:
        keywords, segments = len(lazy), lazy.segment_count
    report(f"Merge of a store-churn-shaped store ({keywords} keywords, "
           f"{segments} segments, {path.stat().st_size} bytes)",
           format_table(
               ["merge", "best of 5 (ms)", "speedup"],
               [["decode, merge and encode every keyword",
                 f"{reference_s * 1e3:.1f}", "1.00"],
                ["merge_index (copies canonical blocks)",
                 f"{merge_s * 1e3:.1f}", f"{reference_s / merge_s:.2f}"]]))
