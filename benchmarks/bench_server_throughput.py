"""Search-server throughput — the serving path, measured end to end.

docs/SERVER.md promises two things a load generator can check:

* **Throughput** — one shared session (one mmap'd store, one cache
  pair) behind a bounded worker pool serves concurrent clients at a
  usable rate, with the per-request overhead (HTTP parsing, wire
  encoding, admission accounting) small next to the search itself.
  The generator drives C client threads through a query mix and
  reports p50/p99 request latency and requests/second; the
  ``server_request_seconds`` summary lands in the shared benchmark
  registry, so every run's quantiles are appended to
  ``BENCH_history.jsonl`` and trended by the regression sentinel.
* **Overload behaviour** — past ``workers + queue_limit`` the server
  sheds load with immediate ``429``s instead of queueing: under a
  deliberately saturating burst the wall clock stays bounded (no
  request waits behind the whole burst) and at least one client is
  turned away with ``Retry-After``.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets import generate_dblp
from repro.index.inverted import InvertedIndex
from repro.index.store_v2 import save_index_v2
from repro.runtime import SearchSession
from repro.server import DELAY_ENV, SearchServer
from repro.evaluation.reporting import format_table

from conftest import report, scaled

QUERIES = ["((Lei Chen) (Yi Guo))", "(lei chen)", "(title)",
           "(article (lei chen))"]
CLIENTS = 8
REQUESTS_PER_CLIENT = scaled(30)
BURST = 12


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    dataset = generate_dblp(scale=scaled(300))
    index = InvertedIndex.from_tree(dataset.tree)
    path = tmp_path_factory.mktemp("server_bench") / "dblp.ckx"
    save_index_v2(index, path)
    return path


def _post_search(url: str, query: str, timeout: float = 30.0):
    """(status, parsed body) of one ``POST /search``."""
    request = urllib.request.Request(
        url + "/search",
        data=json.dumps({"query": query}).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _quantile(sorted_values, q):
    index = min(len(sorted_values) - 1,
                int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def test_server_throughput(store_path, run_metrics):
    session = SearchSession.from_store(store_path)
    latencies, failures = [], []
    lock = threading.Lock()
    with SearchServer(session, workers=4, queue_limit=64,
                      registry=run_metrics) as server:

        def client(offset):
            mine, bad = [], []
            for i in range(REQUESTS_PER_CLIENT):
                query = QUERIES[(offset + i) % len(QUERIES)]
                started = time.perf_counter()
                status, body = _post_search(server.url, query)
                elapsed = time.perf_counter() - started
                if status != 200:
                    bad.append((status, body))
                else:
                    mine.append(elapsed)
            with lock:
                latencies.extend(mine)
                failures.extend(bad)

        threads = [threading.Thread(target=client, args=(n,))
                   for n in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

    assert failures == []
    total = CLIENTS * REQUESTS_PER_CLIENT
    assert len(latencies) == total
    latencies.sort()
    p50 = _quantile(latencies, 0.50)
    p99 = _quantile(latencies, 0.99)
    throughput = total / elapsed
    # The serving path must sustain concurrent clients: well below a
    # second per request on this corpus, and comfortably parallel.
    assert p99 < 2.0
    assert throughput > 10.0

    rows = [[f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} reqs",
             f"{throughput:8.1f}", f"{p50 * 1000:8.2f}",
             f"{p99 * 1000:8.2f}", f"{elapsed:6.2f}"]]
    report("Server throughput (one shared session, 4 workers)",
           format_table(
               ["workload", "req/s", "p50 ms", "p99 ms", "wall s"],
               rows))


def test_overload_sheds_load_and_never_hangs(store_path, run_metrics,
                                             monkeypatch):
    monkeypatch.setenv(DELAY_ENV, "150")
    session = SearchSession.from_store(store_path)
    statuses = []
    lock = threading.Lock()
    with SearchServer(session, workers=1, queue_limit=1,
                      registry=run_metrics) as server:

        def fire():
            status, _ = _post_search(server.url, QUERIES[0])
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=fire) for _ in range(BURST)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        elapsed = time.perf_counter() - started

        assert all(not thread.is_alive() for thread in threads)
        # Admission is a hard bound: rejections arrive immediately, so
        # the burst cannot take anywhere near BURST sequential delays.
        assert elapsed < BURST * 0.150
        assert statuses.count(429) >= 1
        assert statuses.count(200) >= 1
        assert all(status in (200, 429) for status in statuses)

        # After the burst the server still answers.
        monkeypatch.delenv(DELAY_ENV)
        status, body = _post_search(server.url, QUERIES[0])
        assert status == 200

    snapshot = run_metrics.snapshot()
    report("Server overload (1 worker, queue 1, 150ms delay)",
           format_table(
               ["burst", "200s", "429s", "wall s", "rejections ctr"],
               [[str(BURST), str(statuses.count(200)),
                 str(statuses.count(429)), f"{elapsed:6.2f}",
                 str(snapshot["counters"].get("server_rejections",
                                              0))]]))
