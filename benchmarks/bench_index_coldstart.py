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
                                  load_index_v2, save_index_v2)
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
