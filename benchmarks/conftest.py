"""Shared fixtures and reporting for the benchmark harness.

Each ``bench_*`` file reproduces one table or figure of the paper; the
rows/series it computes are registered with :func:`report` and printed in
the terminal summary (and written to ``benchmarks/reports/``), so they
survive pytest's output capturing.

Scales are chosen so the whole harness runs in minutes on a laptop while
preserving the paper's shapes; set ``REPRO_BENCH_SCALE`` (a float
multiplier) to grow or shrink them.

Every test additionally appends one schema-versioned record — wall
seconds, counters, final gauge levels, histogram quantiles, peak RSS,
git SHA — to
``benchmarks/BENCH_history.jsonl`` (override with
``REPRO_BENCH_HISTORY``; set it to ``0``/``off`` to disable) and
regenerates ``BENCH_summary.json`` next to it at session end.  The
``cohesive-search bench-check`` CLI gates on that history (see
docs/OBSERVABILITY.md, "Benchmark history").
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.datasets import (generate_baseball, generate_dblp, generate_nasa,
                            generate_psd, generate_xmark)
from repro.index.inverted import InvertedIndex
from repro.obs import metrics_scope
from repro.obs import bench as bench_history

# The reference engine the kernel gates time against lives under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

_REPORTS: list[tuple[str, str]] = []

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: One run id per pytest session, grouping its history records.
RUN_ID = os.environ.get("REPRO_BENCH_RUN_ID") \
    or f"{int(time.time())}-{os.getpid()}"

_GIT_SHA = bench_history.git_sha(Path(__file__).parent)
_HISTORY_WROTE = False


def _history_path() -> Path | None:
    """The history file to append to, or ``None`` when disabled."""
    value = os.environ.get("REPRO_BENCH_HISTORY")
    if value is not None and value.strip().lower() in ("", "0", "off",
                                                       "none"):
        return None
    if value:
        return Path(value)
    return Path(__file__).parent / "BENCH_history.jsonl"


def time_reference(query, index: InvertedIndex,
                   list_limit: int | None) -> float:
    """Seconds for one evaluation on the reference engine
    (``tests/reference_engine.py``), compile and list slicing included
    as in :func:`repro.evaluation.experiments.time_cohesive`."""
    from repro.core.signatures import compile_query
    from tests.reference_engine import evaluate_compiled
    start = time.perf_counter()
    compiled = compile_query(query, index.tokenizer.normalize)
    evaluate_compiled(compiled, {
        keyword: index.postings(keyword, limit=list_limit)
        for keyword in compiled.atoms})
    return time.perf_counter() - start


def scaled(value: int) -> int:
    return max(1, int(value * SCALE))


def report(title: str, body: str) -> None:
    """Register a table for the terminal summary and the reports dir."""
    _REPORTS.append((title, body))
    directory = Path(__file__).parent / "reports"
    directory.mkdir(exist_ok=True)
    slug = "".join(ch if ch.isalnum() else "_" for ch in title.lower())
    (directory / f"{slug}.txt").write_text(body + "\n", encoding="utf-8")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for title, body in _REPORTS:
        terminalreporter.write_sep("=", title)
        terminalreporter.write_line(body)


# -- per-run observability ---------------------------------------------------

@pytest.fixture(autouse=True)
def run_metrics(request):
    """Isolate a metrics registry per benchmark test.

    Counters and phase timings recorded by the instrumented engine /
    index / baselines during the test are attached to pytest-benchmark's
    ``extra_info``, so ``--benchmark-json`` output (the ``BENCH_*.json``
    files) carries operation counts alongside the timings — the numbers
    the paper's related work reports (node visits, list accesses).
    """
    benchmark = (request.getfixturevalue("benchmark")
                 if "benchmark" in request.fixturenames else None)
    started = time.perf_counter()
    with metrics_scope() as registry:
        yield registry
    wall_seconds = time.perf_counter() - started
    snapshot = registry.snapshot()
    _record_history(request.node.name, wall_seconds, snapshot)
    if benchmark is not None:
        benchmark.extra_info["counters"] = snapshot["counters"]
        benchmark.extra_info["phases"] = snapshot["phases"]
        if snapshot["histograms"]:
            # count/mean plus p50/p90/p99 — the quantiles CI trend
            # dashboards need to catch tail regressions the mean hides.
            benchmark.extra_info["histograms"] = snapshot["histograms"]
        if snapshot["gauges"]:
            # final levels (value/min/max) of the run's gauges — cache
            # occupancy and byte footprints next to the timings.
            benchmark.extra_info["gauges"] = snapshot["gauges"]
        rates = _cache_hit_rates(snapshot["counters"])
        if rates:
            benchmark.extra_info["cache_hit_rates"] = rates
        _dump_extra_info(request.node.name, benchmark.extra_info)
        _emit_event(request.node.name, snapshot)


def _record_history(test_name: str, wall_seconds: float,
                    snapshot: dict) -> None:
    """Append one BENCH_history.jsonl record for the finished test."""
    global _HISTORY_WROTE
    path = _history_path()
    if path is None:
        return
    record = bench_history.make_record(test_name, wall_seconds, RUN_ID,
                                       snapshot, sha=_GIT_SHA)
    bench_history.append_record(path, record)
    _HISTORY_WROTE = True


def pytest_sessionfinish(session, exitstatus):
    """Regenerate BENCH_summary.json once the run's records are in."""
    if not _HISTORY_WROTE:
        return
    path = _history_path()
    if path is None:
        return
    bench_history.write_summary(
        path, path.parent / "BENCH_summary.json")


def _cache_hit_rates(counters: dict) -> dict:
    """Hit rates of the runtime caches, from their counters."""
    rates = {}
    for cache in ("plan_cache", "posting_cache"):
        hits = counters.get(f"{cache}_hits", 0)
        misses = counters.get(f"{cache}_misses", 0)
        if hits + misses:
            rates[cache] = round(hits / (hits + misses), 4)
    return rates


def _dump_extra_info(test_name: str, extra_info: dict) -> None:
    """Write one JSON file per test when REPRO_BENCH_EXTRA_INFO_DIR is
    set — how the CI smoke job asserts on counters with
    ``--benchmark-disable`` (which skips ``--benchmark-json``)."""
    directory = os.environ.get("REPRO_BENCH_EXTRA_INFO_DIR")
    if not directory:
        return
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    slug = "".join(ch if ch.isalnum() else "_" for ch in test_name)
    (target / f"{slug}.json").write_text(
        json.dumps(extra_info, indent=2, default=str) + "\n",
        encoding="utf-8")


def _emit_event(test_name: str, snapshot: dict) -> None:
    """Append one schema-versioned JSONL event per benchmark when
    REPRO_BENCH_EVENTS_JSONL is set (per-process files, so a
    ``pytest-xdist`` or ProcessPool run never interleaves writers)."""
    path = os.environ.get("REPRO_BENCH_EVENTS_JSONL")
    if not path:
        return
    from repro.obs import JsonlSink
    with JsonlSink(path, per_process=True) as sink:
        sink.emit_snapshot(snapshot, event="benchmark", test=test_name)


# -- effectiveness datasets (Table 2 queries + ground truth) ---------------

@pytest.fixture(scope="session")
def effectiveness_datasets():
    datasets = [
        generate_dblp(scale=scaled(120)),
        generate_psd(scale=scaled(100)),
        generate_nasa(scale=scaled(100)),
        generate_baseball(scale=scaled(16)),
    ]
    return {
        dataset.name: (dataset, InvertedIndex.from_tree(dataset.tree))
        for dataset in datasets
    }


# -- efficiency datasets (frequent-keyword workloads) -----------------------

@pytest.fixture(scope="session")
def efficiency_indexes():
    corpora = [
        generate_dblp(scale=scaled(1500)),
        generate_xmark(scale=scaled(400)),
        generate_nasa(scale=scaled(1200)),
    ]
    return {
        dataset.name: (dataset, InvertedIndex.from_tree(dataset.tree))
        for dataset in corpora
    }
