"""store-churn: document appends, reopens and merges beside cold reads.

One client runs a fixed, seeded round of operations against a CKSIDX2
store on disk.  A write pull-parses a new XML document through
``StreamingIndexer`` and appends it as a segment (``append_segment``).
Every ``REOPEN_EVERY`` writes the session reopens the store
(``swap_index(open_index(path))``, what SIGHUP reload does), and every
``MERGE_EVERY`` writes it compacts the store (``merge_index``) and
reopens.  Between writes, reads run 2–4-keyword cohesive queries over
co-occurring words of recently written documents; over a round they
touch more keywords than the 512-entry posting cache holds, and every
reopen starts the caches cold.  Store append, directory rewrite, merge,
open and lazy decode across segments do the work; the kernel does
little.

Every round starts again from the set-up store, so rounds are
identical and the store's final size is the same in every run of a
seed.
"""

from __future__ import annotations

import random
import shutil
from collections import Counter
from contextlib import contextmanager

from repro.core.parser import parse_query
from repro.index import store_v2
from repro.index.inverted import InvertedIndex
from repro.runtime import SearchSession

import corpus
import harness
import spans

BASE_DOCUMENTS = 300
ROUND_WRITES = 20
READS_PER_WRITE = 20
REOPEN_EVERY = 4
MERGE_EVERY = 16
RECORDS = 10
VOCABULARY = 6000
NAMES = 800
ZIPF_S = 0.6
#: Reads draw words from this many most recently visible documents.
RECENT = 3
POSTING_CACHE = 512


def _zipf_weights(size: int) -> list[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]


def generate_document(rng: random.Random, words: list, names: list,
                      word_weights: list) -> str:
    """A small bibliography: ``RECORDS`` records of title, authors and
    topic words drawn from a large Zipf-weighted vocabulary."""
    parts = ["<bib>"]
    for _ in range(RECORDS):
        title = " ".join(rng.choices(words, word_weights, k=6))
        topic = " ".join(rng.choices(words, word_weights, k=3))
        authors = "".join(
            f"<author>{rng.choice(names)} {rng.choice(names)}</author>"
            for _ in range(rng.randint(1, 3)))
        parts.append(f"<record><title>{title}</title>{authors}"
                     f"<topic>{topic}</topic></record>")
    parts.append("</bib>")
    return "".join(parts)


def _round_operations(rng: random.Random, documents: list,
                      base: int) -> list:
    """One round: ("write", n) / ("read", query, visible) / ("reopen",)
    / ("merge",).  ``visible`` is how many round documents the read's
    store snapshot holds."""
    ops, visible = [], 0
    for written in range(1, ROUND_WRITES + 1):
        ops.append(("write", written - 1))
        if written % MERGE_EVERY == 0:
            ops.append(("merge",))
        if written % REOPEN_EVERY == 0 or written % MERGE_EVERY == 0:
            ops.append(("reopen",))
            visible = written
        for _ in range(READS_PER_WRITE):
            ops.append(("read", _read_query(rng, documents, base, visible),
                        visible))
    return ops


def _read_query(rng: random.Random, documents: list, base: int,
                visible: int) -> str:
    """2–4 co-occurring words of one record of a recent visible
    document, as one or two terms."""
    newest = base + visible
    xml = documents[rng.randrange(max(0, newest - RECENT), newest)]
    record = rng.choice(xml.split("<record>")[1:])
    title = sorted(set(
        record.split("<title>")[1].split("</title>")[0].split()))
    author = record.split("<author>")[1].split("</author>")[0].split()
    size = min(len(title), rng.randint(2, 4))
    if size == 4 and rng.random() < 0.5:
        return f"(({' '.join(author)}) ({' '.join(rng.sample(title, 2))}))"
    return f"({' '.join(rng.sample(title, size))})"


class State:
    def __init__(self, base_path, documents, base_index, ops):
        self.base_path = base_path
        self.documents = documents    # base documents, then round ones
        self.base_index = base_index  # reference postings of the base
        self.ops = ops

    @property
    def base(self) -> int:
        return len(self.documents) - ROUND_WRITES


def _build(config: harness.Config) -> State:
    rng = random.Random(config.seed)
    words = [f"w{number}" for number in range(VOCABULARY)]
    names = [f"n{number}" for number in range(NAMES)]
    rng.shuffle(words)
    weights = _zipf_weights(len(words))
    base = harness.scaled(BASE_DOCUMENTS, config.scale, 4)
    documents = [generate_document(rng, words, names, weights)
                 for _ in range(base + ROUND_WRITES)]
    path = config.workdir / "base.ckx"
    base_index = corpus.write_store(documents[:base], path)
    ops = _round_operations(rng, documents, base)
    return State(path, documents, base_index, ops)


class Store:
    """The store a round works on: a fresh copy of the set-up store and
    a session over it."""

    def __init__(self, state: State, path, recorder=None):
        self.state = state
        self.path = path
        self.recorder = recorder
        self.session = None

    @contextmanager
    def each_round(self):
        shutil.copyfile(self.state.base_path, self.path)
        self.session = SearchSession.from_store(self.path)
        try:
            yield
        finally:
            self.session.index.close()

    def execute(self, op):
        """write: (XML bytes, store bytes after the append); read:
        (results, segments); reopen and merge: None."""
        kind = op[0]
        if kind == "write":
            number = self.state.base + op[1]
            xml = self.state.documents[number]
            if self.recorder is None:
                postings = corpus.index_document(xml, (number,))
            else:
                with self.recorder.span("index.streaming"):
                    postings = corpus.index_document(xml, (number,))
            store_v2.append_segment(self.path, postings)
            return len(xml.encode("utf-8")), self.path.stat().st_size
        if kind == "read":
            return (self.session.search(op[1]),
                    self.session.index.segment_count)
        if kind == "reopen":
            old = self.session.index
            self.session.swap_index(store_v2.open_index(self.path))
            old.close()
        else:
            store_v2.merge_index(self.path)
        return None


def _run_phase(state: State, config: harness.Config, seconds: float,
               recorder=None) -> harness.Rounds:
    store = Store(state, config.workdir / "store.ckx", recorder)
    return harness.run_rounds(state.ops, store.execute, seconds, recorder,
                              store.each_round)


def _outputs(state: State, measured: harness.Round, kind: str) -> list:
    """(op number, output) of every ``kind`` op of one round."""
    return [(number, output)
            for number, output in enumerate(measured.outputs)
            if state.ops[number][0] == kind]


def _check(state: State, rounds: harness.Rounds) -> int:
    """Reads whose answer differs from the same query over an in-memory
    index of the documents visible to it."""
    lists: dict = {keyword: list(plist) for keyword, plist
                   in state.base_index.raw_postings().items()}
    sessions = {}
    added = 0
    for visible in sorted({op[2] for op in state.ops if op[0] == "read"}):
        for number in range(state.base + added, state.base + visible):
            postings = corpus.index_document(state.documents[number],
                                             (number,))
            for keyword, plist in postings.items():
                lists.setdefault(keyword, []).extend(plist)
        added = visible
        sessions[visible] = SearchSession(InvertedIndex(lists))
    wrong = 0
    for measured in rounds:
        for number, (results, _) in _outputs(state, measured, "read"):
            _, query, visible = state.ops[number]
            wrong += results != sessions[visible].search(query)
    return wrong


def _record(state: State, rounds: harness.Rounds) -> list:
    reads = [op for op in state.ops if op[0] == "read"]
    kinds = Counter(op[0] for op in state.ops)
    keywords = {word for op in reads
                for word in op[1].replace("(", " ").replace(")", " ").split()}
    repeated = len(reads) - len({op[1] for op in reads})
    segments = Counter(output[1] for measured in rounds
                       for _, output in _outputs(state, measured, "read"))
    final_size, input_bytes = _final_size(state, rounds[0])
    return [
        f"ops fingerprint: {harness.fingerprint(state.ops)} "
        f"(round of {len(state.ops)}: " + ", ".join(
            f"{kind} {kinds[kind]}" for kind in sorted(kinds)) + ")",
        f"rounds timed: {len(rounds)}",
        f"keywords touched by a round's reads vs posting cache: "
        f"{len(keywords)}/{POSTING_CACHE} (caches restart cold at "
        f"every reopen)",
        "top_k ops: " + harness.share(0, len(reads)) + " (none)",
        "repeated queries within a round: "
        + harness.share(repeated, len(reads)),
        harness.histogram_line("max term cardinality (reads)", Counter(
            parse_query(op[1]).max_term_cardinality for op in reads)),
        harness.histogram_line("segments at read time", segments),
        f"store after one round: {final_size} bytes for {input_bytes} "
        f"input bytes",
    ]


def _final_size(state: State, measured: harness.Round) -> tuple[int, int]:
    """(store bytes at the end of a round, XML bytes it holds).  Only
    writes and merges change the store, and the last op that does is a
    write."""
    writes = [output for _, output in _outputs(state, measured, "write")]
    return writes[-1][1], corpus.input_bytes(
        state.documents[:state.base]) + sum(each[0] for each in writes)


def _count(state: State, rounds: harness.Rounds, kind: str) -> int:
    return sum(len(_outputs(state, each, kind)) for each in rounds)


def _is(state: State, kind: str):
    return lambda number: state.ops[number][0] == kind


def run(config: harness.Config) -> harness.Outcome:
    state, setup_s, parts = harness.measure_between_setups(
        lambda: _build(config), lambda state: None,
        lambda state, seconds: _run_phase(state, config, seconds),
        config.seconds)
    rounds = harness.Rounds.merged(parts)
    rss = harness.vm_hwm_mb()
    metrics, record = {}, _record(state, rounds)
    p50, p90, line = rounds.latency("read latency", _is(state, "read"))
    record += [line, rounds.throughput_line()]
    write_p50, write_p90, line = rounds.pooled_latency(
        "write latency", _is(state, "write"))
    record.append(line)
    phases = [rounds]
    if config.trace:
        traced, layers, table = _traced(state, config, rounds)
        layers["index.write_p50_ms"] = write_p50
        layers["index.write_p90_ms"] = write_p90
        phases.append(traced)
        metrics.update(layers)
        record.extend(spans.format_table(
            table, _count(state, traced, "read")))
    wrong = sum(_check(state, each) for each in phases)
    attempted = sum(each.ops for each in phases)
    final_size, input_bytes = _final_size(state, rounds[0])
    metrics.update({
        "setup_s": setup_s,
        "throughput_ops_s": rounds.throughput(),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "success_ratio": (attempted - wrong) / attempted,
        "peak_rss_mb": rss,
        "store_bytes_per_input_byte": final_size / input_bytes,
    })
    return harness.Outcome(attempted, wrong, wrong, metrics, record)


def _traced(state: State, config: harness.Config,
            untraced: harness.Rounds):
    from repro.obs import metrics_scope
    recorder = spans.SpanRecorder()
    spans.install_program_wrappers(recorder)
    try:
        with metrics_scope() as registry, \
                harness.counting_warnings() as warnings:
            traced = _run_phase(state, config, config.seconds, recorder)
    finally:
        recorder.restore()
    recorder.write(harness.OUT /
                   f"store-churn-seed{config.seed}.spans.jsonl")
    table = spans.summarize(recorder.spans)
    writes = [output for each in traced
              for _, output in _outputs(state, each, "write")]
    layers = spans.layer_metrics(
        table, registry.snapshot()["counters"],
        ops=_count(state, traced, "read"),
        writes=len(writes), seconds=sum(each.elapsed for each in traced),
        warning_lines=warnings.count,
        input_bytes=sum(output[0] for output in writes))
    layers["trace.overhead_ratio"] = \
        traced.throughput() / untraced.throughput()
    return traced, layers, table
