"""served-topk: two HTTP clients against the default search server.

A server child (``launcher.py``) runs ``repro.server.serve`` with its
defaults over a CKSIDX2 store of a DBLP-like collection.  Two client
threads, each on its own keep-alive connection, send ``POST /search``
in a closed loop.  Queries are interactive 2–6-keyword queries of one
or two terms built from co-occurring words of one article, plus the
paper's Table 2 DBLP queries, drawn with Zipf skew from a pool larger
than the 128-entry plan cache.  About half the requests carry
``top_k`` in {1, 10, 100}; the rest are full rankings, a third of them
with ``rank=vector``.  HTTP, the wire layer, per-request observability,
plan-cache misses and the top-k budget loop carry the cost here.

Each part of a run (see ``harness.measure_between_setups``) is one
round on a freshly started server, so every round starts from the same
cache state.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import threading
import time
from collections import Counter
from urllib.parse import urlsplit

from repro.core.parser import parse_query
from repro.datasets import generate_dblp
from repro.datasets.dblp import QUERIES as TABLE2_QUERIES
from repro.obs.export import parse_openmetrics
from repro.runtime import SearchSession
from repro.server.wire import result_to_wire
from repro.xmlio.writer import dump_tree

import corpus
import harness
import spans
from launcher import ServerChild

SCALE, DOCUMENTS = 250, 2
POOL = 400
#: The most requested query takes 4% of the requests, the ten most 17%.
ZIPF_S = 0.6
CLIENTS = 2
TOP_KS = (1, 10, 100)
WARMUP = 16
#: Requests per client per round, per second of ``--seconds``: 88 at
#: 22 s, so the three rounds of a run (one per part) take 18-26 s.
ROUND_PER_CLIENT_PER_SECOND = 4.0
REQUEST_SECONDS = 5.0
#: A round normally takes about a third of ``--seconds``; a hung server
#: fails its requests for at most this many ``--seconds`` per round
#: instead of stalling the run.
ROUND_CAP = 1.25
#: Seeds the query pool's shapes, the request draw and the options.
QUERY_SEED = 0
PLAN_CACHE = 128
POSTING_CACHE = 512
HEADERS = {"Content-Type": "application/json"}


def _words(text) -> list[str]:
    return [word for word in (text or "").lower().split() if word.isalnum()]


def query_pool(trees, index, rng: random.Random, size: int) -> list[str]:
    """``size`` distinct queries whose keywords co-occur in one article
    (so most have answers), plus the Table 2 queries, in ascending
    order of their keyword instances in ``index``, which the paper finds
    evaluation cost to follow (Fig. 5)."""
    articles = [node for tree in trees for node in tree.root.children
                if node.label == "article"]
    pool = set(TABLE2_QUERIES.values())
    while len(pool) < size:
        article = rng.choice(articles)
        fields = {child.label: _words(child.value)
                  for child in article.children}
        author = fields.get("author", [])
        title = [word for word in fields.get("title", []) if len(word) > 2]
        if len(author) < 2 or len(title) < 2:
            continue
        shape = rng.randrange(4)
        picked = rng.sample(title, min(len(title), rng.randint(2, 4)))
        if shape == 0:    # one term, 2-4 title words
            text = f"({' '.join(picked)})"
        elif shape == 1:  # one term, an author word and title words
            text = f"({rng.choice(author)} {' '.join(picked[:2])})"
        else:             # two terms: the author, then title words
            text = f"(({' '.join(author[:2])}) ({' '.join(picked)}))"
        pool.add(" ".join(text.split()))
    lists = index.raw_postings()
    return sorted(pool, key=lambda text: (sum(
        len(lists.get(keyword, ()))
        for keyword in parse_query(text).distinct_keywords()), text))


def _options(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {"top_k": rng.choice(TOP_KS)}
    return {"rank": "vector"} if rng.random() < 1 / 3 else {}


def _draw(pool: list, rng: random.Random, count: int) -> list:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    queries = rng.choices(pool, weights, k=count)
    ops = []
    for query in queries:
        options = _options(rng)
        body = json.dumps({"query": query, "options": options}).encode()
        ops.append((query, json.dumps(options, sort_keys=True), body))
    return ops


class State:
    def __init__(self, store, input_bytes, server, warmup, clients, pool):
        self.store = store
        self.input_bytes = input_bytes
        self.server = server
        self.warmup = warmup      # [op]
        self.clients = clients    # per client thread: [op]
        self.pool = pool

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _build(config: harness.Config) -> State:
    trees = corpus.generate_trees(
        generate_dblp, harness.scaled(SCALE, config.scale, 5),
        harness.scaled(DOCUMENTS, config.scale), config.seed)
    documents = [dump_tree(tree) for tree in trees]
    store = config.workdir / "dblp.ckx"
    index = corpus.write_store(documents, store)
    # As in paper-scan, the draw is the same for every seed: the Zipf
    # ranks fall on the same cost ranks of the pool (a fixed permutation
    # of the pool sorted by keyword instances), and every request's
    # options are the same.  The seed draws the corpus, hence the
    # words.  Ranks drawn at random per seed let the few most requested
    # queries set p90 and throughput, which moved them by a fifth or
    # more between seeds.
    pool = query_pool(trees, index, random.Random(QUERY_SEED),
                      harness.scaled(POOL, config.scale, 20))
    rng = random.Random(QUERY_SEED)
    rng.shuffle(pool)
    warmup = _draw(pool, rng, harness.scaled(WARMUP, config.scale, 5))
    size = harness.scaled(ROUND_PER_CLIENT_PER_SECOND * config.seconds,
                          config.scale, 10)
    clients = [_draw(pool, rng, size) for _ in range(CLIENTS)]
    state = State(store, corpus.input_bytes(documents), None, warmup,
                  clients, pool)
    state.server = _start(state, config, "setup")
    return state


def _start(state: State, config: harness.Config, label: str,
           spans_path=None) -> ServerChild:
    server = ServerChild(state.store, config.workdir / f"server-{label}.log",
                         spans_path)
    try:
        warm = _Client(server.url)
        for op in state.warmup:
            if warm.send(op)[0] is None:  # a dead server fails fast
                break
        warm.close()
    except BaseException:
        server.stop()
        raise
    return server


class _Client:
    """One keep-alive connection; reconnects after a failed request."""

    def __init__(self, url: str):
        parts = urlsplit(url)
        self._address = (parts.hostname, parts.port)
        self._connection = None

    def send(self, op) -> tuple:
        """(status or None, body bytes) of one ``POST /search``."""
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    *self._address, timeout=REQUEST_SECONDS)
            self._connection.request("POST", "/search", op[2], HEADERS)
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, b""

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def _drive(clients: list, connections: list, bodies: dict,
           cap: float) -> harness.Round:
    """One round: every client sends its request list once, unless a
    hung or slowed server stretches the round past ``cap`` seconds.

    Outputs are (client, op index, status or None, body digest); the
    200 bodies are kept in ``bodies`` by digest.
    """
    lock = threading.Lock()
    times, outputs = [], []
    start = time.perf_counter()
    stop = start + cap

    def client(number: int, ops: list) -> None:
        mine = []
        for index, op in enumerate(ops):
            if time.perf_counter() >= stop:
                break
            began = time.perf_counter()
            status, body = connections[number].send(op)
            elapsed = time.perf_counter() - began
            digest = hashlib.sha256(body).hexdigest()
            mine.append((elapsed, (number, index, status, digest)))
            if status == 200:
                bodies.setdefault(digest, body)
        with lock:
            for elapsed, output in mine:
                times.append(elapsed)
                outputs.append(output)

    threads = [threading.Thread(target=client, args=(number, ops))
               for number, ops in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(cap + 2 * REQUEST_SECONDS)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish")
    return harness.Round(
        times, outputs, time.perf_counter() - start,
        complete=len(times) == sum(map(len, clients)),
        failed=sum(1 for output in outputs if output[2] != 200))


def _connect(url: str) -> list:
    return [_Client(url) for _ in range(CLIENTS)]


def _close(connections: list) -> None:
    for connection in connections:
        connection.close()


def _server_counters(url: str) -> dict:
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port,
                                            timeout=REQUEST_SECONDS)
    try:
        connection.request("GET", "/metrics")
        text = connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()
    counters = {}
    for family, data in parse_openmetrics(text).items():
        for suffix, _, value in data["samples"]:
            if data["type"] == "counter" and suffix == "_total":
                counters[family.removeprefix("repro_")] = value
    return counters


class Checker:
    """Verifies served answers against ``SearchSession.search`` over the
    same store: every HTTP answer equals the library's answer with the
    same options, and every ``top_k`` answer equals the first k of the
    full ranking.  Verdicts are cached per (query, options, body)."""

    def __init__(self, store):
        self._store = store
        self._verdicts: dict = {}
        self._full: dict = {}

    def wrong(self, state: State, rounds: harness.Rounds,
              bodies: dict) -> int:
        """Wrong answers among the 200 replies of ``rounds``."""
        session = SearchSession.from_store(self._store)
        wrong = 0
        try:
            for each in rounds:
                for number, index, status, digest in each.outputs:
                    if status != 200:
                        continue
                    query, options_text, _ = state.clients[number][index]
                    key = (query, options_text, digest)
                    if key not in self._verdicts:
                        self._verdicts[key] = self._verify(
                            session, query, json.loads(options_text),
                            bodies[digest])
                    wrong += not self._verdicts[key]
        finally:
            session.index.close()
        return wrong

    def _verify(self, session, query: str, options: dict,
                body: bytes) -> bool:
        served = json.loads(body)["results"]
        if query not in self._full:
            self._full[query] = _wire(session.search(query))
        if not options:
            return served == self._full[query]
        if served != _wire(session.search(query, **options)):
            return False
        return "top_k" not in options or \
            served == self._full[query][:options["top_k"]]


def _wire(rows) -> list:
    return [result_to_wire(row) for row in rows]


def _record(state: State, rounds: harness.Rounds) -> list:
    timed = [op for ops in state.clients for op in ops]
    seen = {op[0] for op in state.warmup}
    repeated = 0
    for op in timed:
        repeated += op[0] in seen
        seen.add(op[0])
    distinct = {op[0] for op in timed}
    keywords = {keyword for query in distinct
                for keyword in parse_query(query).distinct_keywords()}
    options = Counter(op[1] for op in timed)
    top_k = sum(count for text, count in options.items() if "top_k" in text)
    cardinality = Counter(parse_query(op[0]).max_term_cardinality
                          for op in timed)
    return [
        "ops fingerprint: " + harness.fingerprint(
            [op[2] for op in timed])
        + f" (round of {CLIENTS} clients x {len(state.clients[0])}; "
        f"{sum(each.complete for each in rounds)} of {len(rounds)} "
        f"rounds complete, {rounds.ops} requests timed)",
        f"distinct queries per round vs plan cache: {len(distinct)}/"
        f"{PLAN_CACHE} (pool {len(state.pool)}, Zipf s={ZIPF_S})",
        f"keywords touched vs posting cache: {len(keywords)}/"
        f"{POSTING_CACHE}",
        "top_k ops: " + harness.share(top_k, len(timed)),
        harness.histogram_line("options (one round)", options),
        "repeated queries within the warm-up and one round: "
        + harness.share(repeated, len(timed)),
        harness.histogram_line("max term cardinality (one round)",
                               cardinality),
        "segments at read time: 1 (the store is written once)",
    ]


def run(config: harness.Config) -> harness.Outcome:
    checker = None
    bodies: dict = {}
    wrong = 0
    peak_rss = []  # the server child's VmHWM, per part

    def measure(state: State, _seconds: float) -> harness.Rounds:
        # One round per part, each on a freshly started server, so every
        # round meets the same plan-cache state (a second round on the
        # same server would find the plans cached).  The round's size
        # follows --seconds instead.
        nonlocal checker, wrong
        connections = _connect(state.server.url)
        try:
            rounds = harness.Rounds([_drive(
                state.clients, connections, bodies,
                ROUND_CAP * config.seconds)])
        finally:
            _close(connections)
        peak_rss.append(state.server.peak_rss_mb())
        state.close()
        # Checking each part before the next set-up spreads the timed
        # parts further apart at no cost (every set-up builds the same
        # inputs, so the store of any part serves the check).
        checker = checker or Checker(state.store)
        wrong += checker.wrong(state, rounds, bodies)
        return rounds

    state, setup_s, parts = harness.measure_between_setups(
        lambda: _build(config), State.close, measure, config.seconds)
    try:
        rounds = harness.Rounds.merged(parts)
        phases = [rounds]
        metrics, record = {}, _record(state, rounds)
        p50, p90, line = rounds.latency("client latency")
        record += [line, rounds.throughput_line()]
        if config.trace:
            traced, layers, table = _traced(state, config, rounds, bodies)
            phases.append(traced)
            metrics.update(layers)
            record.extend(spans.format_table(table, traced.ops))
            wrong += checker.wrong(state, traced, bodies)
    finally:
        state.close()
    attempted = sum(each.ops for each in phases)
    failed = wrong + sum(each.failed for phase in phases for each in phase)
    metrics.update({
        "setup_s": setup_s,
        "throughput_ops_s": rounds.throughput(),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(peak_rss),
        "store_bytes_per_input_byte":
            state.store.stat().st_size / state.input_bytes,
    })
    return harness.Outcome(attempted, failed, wrong, metrics, record)


def _traced(state: State, config: harness.Config, untraced: harness.Rounds,
            bodies: dict):
    spans_path = harness.OUT / f"served-topk-seed{config.seed}.spans.jsonl"
    server = _start(state, config, "traced", spans_path)
    try:
        connections = _connect(server.url)
        before = _server_counters(server.url)
        log_start = server.log_offset()
        window_start = time.perf_counter()
        try:
            traced = harness.Rounds([_drive(
                state.clients, connections, bodies,
                ROUND_CAP * config.seconds)])
        finally:
            _close(connections)
        window = (window_start, time.perf_counter())
        log_end = server.log_offset()
        after = _server_counters(server.url)
    finally:
        server.stop()
    table = spans.summarize(spans.read_spans(spans_path), window)
    seconds = window[1] - window[0]
    count = traced.ops
    layers = spans.layer_metrics(
        table, spans.counter_deltas(before, after), ops=count, writes=0,
        seconds=seconds,
        warning_lines=server.log_lines(log_start, log_end))
    search = table.get("runtime.search")
    search_ms = search["total"] * 1e3 / search["count"] if search else 0.0
    layers.update({
        "server.overhead_ms_per_op":
            sum(traced[0].times) * 1e3 / count - search_ms,
        "trace.overhead_ratio": _ratio(traced.throughput(),
                                       untraced.throughput()),
    })
    return traced, layers, table


def _ratio(traced: float, untraced: float) -> float:
    """Traced over untraced throughput; 0 when a hung server completed
    nothing untraced."""
    return traced / untraced if untraced else 0.0
