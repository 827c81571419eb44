"""paper-scan: the paper's §4.3 efficiency queries through the library.

One client calls ``SearchSession.search`` on sessions opened with
``from_store`` over two CKSIDX2 collections: DBLP-like (shallow) and
XMark-like (deep).  Queries instantiate the 10- and 15-keyword
``EFFICIENCY_PATTERNS`` with frequent keywords, each run at
``list_limit`` 100, 200 and 300, without ``top_k``.  Distinct queries
stay below the 128-entry plan cache and keywords below the 512-entry
posting cache, and a warm-up pass fills both, so nearly all the timed
work is the flat kernel's scan — the Fig. 5/6 path.

The 20-keyword patterns are left out: a cardinality-8 term makes one
query cost seconds, and that single query would set the tail.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.core.parser import parse_query
from repro.datasets import generate_dblp, generate_xmark
from repro.datasets.workloads import EFFICIENCY_PATTERNS, instantiate
from repro.runtime import SearchSession

import corpus
import harness
import spans

#: (name, generator, generator scale per document, documents)
DATASETS = (("dblp", generate_dblp, 250, 3),
            ("xmark", generate_xmark, 80, 3))
SIZES = (10, 15)
LIMITS = (100, 200, 300)
#: Instantiations of each pattern per dataset: 20 distinct queries per
#: session, well under the plan cache's 128.  A round runs each once,
#: at one of ``LIMITS`` in turn: 40 searches, 2-3 s.
INSTANCES = 1
#: Seeds the choice of frequent keywords for each pattern slot.
QUERY_SEED = 0
#: Keyword draws per pattern of the untimed answer-check set, which the
#: run's seed draws, so that every seed checks other keyword choices.
#: Two draws at every limit took over half a minute per run.
CHECK_INSTANCES = 1
#: A query on which ``search`` (flat kernel) and ``search_batch`` break
#: a tie between equal-size embeddings differently at list_limit 200
#: on seed 13's DBLP-like store (README.md, "Findings").  The check set
#: always holds it.
TIE_QUERY = ("dblp", "((algorithms learning information mining "
             "optimization) (graphs parallel semantics references "
             "processing))")
PLAN_CACHE = 128
POSTING_CACHE = 512


class State:
    def __init__(self, sessions, queries, input_bytes, store_bytes):
        self.sessions = sessions      # dataset -> SearchSession
        self.queries = queries        # dataset -> [Query]
        self.input_bytes = input_bytes
        self.store_bytes = store_bytes

    def close(self) -> None:
        for session in self.sessions.values():
            session.index.close()


def _build(config: harness.Config) -> State:
    sessions, queries = {}, {}
    input_bytes = store_bytes = 0
    # The keyword draw is the same for every seed: with 20 queries per
    # session, which frequent keywords fill a pattern moves a run's
    # cost by up to a fifth between seeds (measured with the seeds
    # interleaved in one process), which would drown a real change.
    # The seed still draws the corpus, hence the keywords at the
    # drawn frequency ranks and their lists, and the op order.
    rng = random.Random(QUERY_SEED)
    for name, generate, scale, count in DATASETS:
        documents = corpus.generate_documents(
            generate, harness.scaled(scale, config.scale, 5),
            harness.scaled(count, config.scale), config.seed)
        path = config.workdir / f"{name}.ckx"
        corpus.write_store(documents, path)
        input_bytes += corpus.input_bytes(documents)
        store_bytes += path.stat().st_size
        session = SearchSession.from_store(path)
        instances = harness.scaled(INSTANCES, config.scale)
        queries[name] = [instantiate(pattern, session.index, rng)
                         for size in SIZES
                         for pattern in EFFICIENCY_PATTERNS[size]
                         for _ in range(instances)]
        # Warm-up pass: every query's plan and posting lists, so the
        # timed searches hit both caches (the posting cache holds whole
        # lists; limits slice them).
        for query in queries[name]:
            for keyword in session.plan(query).keywords:
                session.postings(keyword)
        sessions[name] = session
    return State(sessions, queries, input_bytes, store_bytes)


def _operations(state: State, seed: int) -> list:
    """One round: every (dataset, query) once, each at one of the
    limits in turn, in a seeded order."""
    ops = [(name, number, LIMITS[number % len(LIMITS)])
           for name in state.queries
           for number in range(len(state.queries[name]))]
    random.Random(seed + 1).shuffle(ops)
    return ops


def _batch_answers(state: State, ops: list) -> dict:
    """``search_batch`` over the queries of ``ops``, per session and
    limit, keyed like an op: (dataset, query number, limit)."""
    expected = {}
    for name, session in state.sessions.items():
        for limit in LIMITS:
            numbers = sorted(number for dataset, number, at in ops
                             if (dataset, at) == (name, limit))
            answers = session.search_batch(
                [state.queries[name][number] for number in numbers],
                list_limit=limit)
            expected.update(((name, number, limit), answer)
                            for number, answer in zip(numbers, answers))
    return expected


def _wrong(expected: dict, ops: list, phases: list) -> list:
    """The timed ops whose ``search`` answer differs from
    ``search_batch`` (one entry per wrong answer)."""
    return [ops[number] for rounds in phases for each in rounds
            for number, output in enumerate(each.outputs)
            if output != expected[ops[number]]]


def _check_ops(state: State, seed: int) -> list:
    """The answer-check set, as (dataset, query, limit): per dataset,
    ``CHECK_INSTANCES`` keyword draws per pattern seeded by the run's
    seed, each at one of the limits in turn, and ``TIE_QUERY`` at every
    limit."""
    rng = random.Random(seed)
    ops = []
    for name, session in state.sessions.items():
        drawn = [instantiate(pattern, session.index, rng)
                 for size in SIZES
                 for pattern in EFFICIENCY_PATTERNS[size]
                 for _ in range(CHECK_INSTANCES)]
        ops += [(name, query, LIMITS[number % len(LIMITS)])
                for number, query in enumerate(drawn)]
    ops += [(TIE_QUERY[0], parse_query(TIE_QUERY[1]), limit)
            for limit in LIMITS]
    return ops


def _check_set(state: State, seed: int) -> tuple[int, list]:
    """(searches checked, the wrong ones): ``search`` against
    ``search_batch`` over the check set, untimed."""
    ops = _check_ops(state, seed)
    wrong = []
    for name, session in state.sessions.items():
        for limit in LIMITS:
            queries = [query for dataset, query, at in ops
                       if (dataset, at) == (name, limit)]
            answers = session.search_batch(queries, list_limit=limit)
            wrong += [(name, query, limit)
                      for query, answer in zip(queries, answers)
                      if session.search(query, list_limit=limit) != answer]
    return len(ops), wrong


def _record(state: State, ops: list, rounds: harness.Rounds) -> list:
    keywords = {name: {keyword for query in queries
                       for keyword in query.distinct_keywords()}
                for name, queries in state.queries.items()}
    cardinality = Counter(query.max_term_cardinality
                          for queries in state.queries.values()
                          for query in queries)
    return [
        f"ops fingerprint: {harness.fingerprint(ops)} (round of "
        f"{len(ops)}; {len(rounds)} rounds, {rounds.ops} ops timed)",
        "distinct queries per session vs plan cache: " + ", ".join(
            f"{name} {len(queries)}/{PLAN_CACHE}"
            for name, queries in state.queries.items()),
        "keywords touched per session vs posting cache: " + ", ".join(
            f"{name} {len(words)}/{POSTING_CACHE}"
            for name, words in keywords.items()),
        "top_k ops: " + harness.share(0, len(ops)) + " (none carry top_k)",
        "repeated queries: " + harness.share(len(ops), len(ops))
        + " (every query ran in the warm-up pass; every round "
        "repeats it)",
        harness.histogram_line("max term cardinality (distinct queries)",
                               cardinality),
        "segments at read time: 1 (both stores are written once)",
    ]


def _executor(state: State):
    def execute(op):
        name, number, limit = op
        return state.sessions[name].search(state.queries[name][number],
                                           list_limit=limit)
    return execute


def run(config: harness.Config) -> harness.Outcome:
    expected: dict = {}

    def measure(state: State, seconds: float) -> harness.Rounds:
        rounds = harness.run_rounds(_operations(state, config.seed),
                                    _executor(state), seconds)
        if not expected:
            # The answer check's batch runs between timed parts, which
            # spreads them further apart at no cost.  Every set-up
            # builds the same inputs, so one batch serves all parts.
            expected.update(_batch_answers(
                state, _operations(state, config.seed)))
        return rounds

    state, setup_s, parts = harness.measure_between_setups(
        lambda: _build(config), State.close, measure, config.seconds)
    try:
        ops = _operations(state, config.seed)
        rounds = harness.Rounds.merged(parts)
        rss = harness.vm_hwm_mb()
        metrics, record = {}, _record(state, ops, rounds)
        p50, p90, line = rounds.latency("search latency")
        record += [line, rounds.throughput_line()]
        phases = [rounds]
        if config.trace:
            traced, table, layers = _traced(state, ops, config, rounds)
            phases.append(traced)
            metrics.update(layers)
            record.extend(spans.format_table(table, traced.ops))
        wrong = _wrong(expected, ops, phases)
        checked, check_wrong = _check_set(state, config.seed)
    finally:
        state.close()
    record.append(f"answer-check set (untimed, drawn by the seed): "
                  f"{checked} searches, {len(check_wrong)} wrong")
    record.extend(f"wrong answer: {name} query {query} list_limit={limit}"
                  for name, query, limit in
                  [(name, state.queries[name][number], limit)
                   for name, number, limit in sorted(set(wrong))]
                  + check_wrong)
    attempted = sum(each.ops for each in phases) + checked
    failed = len(wrong) + len(check_wrong)
    metrics.update({
        "setup_s": setup_s,
        "throughput_ops_s": rounds.throughput(),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
        "store_bytes_per_input_byte": state.store_bytes / state.input_bytes,
    })
    return harness.Outcome(attempted, failed, failed, metrics, record)


def _traced(state: State, ops: list, config: harness.Config,
            untraced: harness.Rounds):
    from repro.obs import metrics_scope
    recorder = spans.SpanRecorder()
    spans.install_program_wrappers(recorder)
    try:
        with metrics_scope() as registry, \
                harness.counting_warnings() as warnings:
            traced = harness.run_rounds(ops, _executor(state),
                                        config.seconds, recorder)
    finally:
        recorder.restore()
    recorder.write(harness.OUT / f"paper-scan-seed{config.seed}.spans.jsonl")
    table = spans.summarize(recorder.spans)
    seconds = sum(each.elapsed for each in traced)
    layers = spans.layer_metrics(
        table, registry.snapshot()["counters"], ops=traced.ops, writes=0,
        seconds=seconds,
        warning_lines=warnings.count)
    layers["trace.overhead_ratio"] = \
        traced.throughput() / untraced.throughput()
    return traced, table, layers
