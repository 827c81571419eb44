"""Command-line interface.

Subcommands::

    cohesive-search index build   DOC.xml IDX     # build a posting store
    cohesive-search index merge   IDX             # compact / upgrade a store
    cohesive-search index inspect IDX             # format + segment report
    cohesive-search index verify  IDX             # check every CRC + block
    cohesive-search search DOC.xml "(a (b c))"    # run a query
    cohesive-search serve  IDX --port 8080        # HTTP search service
    cohesive-search top    http://127.0.0.1:8080  # live ops console
    cohesive-search stats  DOC.xml                # Table-1 statistics
    cohesive-search lattice "(a (b c))"           # lattice accounting
    cohesive-search generate dblp OUT.xml         # emit a synthetic dataset

``index build`` writes the mmap-friendly CKSIDX2 format by default
(``--format v1`` keeps the legacy layout); ``index merge`` compacts a
segmented v2 store — or upgrades a v1 store — in place or to
``--output``; ``index inspect`` prints format, segments, tombstones and
dead bytes; ``index verify`` checks every footer and CRC of the
directory chain and decodes every live block, exiting 1 with the
store error on the first fault (docs/INDEX_FORMAT.md).  The bare
spelling ``index DOC.xml IDX`` is a usage error (exit 2): name the
``build`` subcommand.
``search --index`` autodetects either format on its magic.

``search`` accepts ``--index`` to reuse a prebuilt store, ``--top`` to
cut the answer, ``--algorithm
cohesive|machine|slca|elca|lcasz|saone`` to pick the evaluation
algorithm (the old ``--baseline`` alias was removed and now fails
with a migration hint), ``--format json`` to emit the
schema-versioned wire body the search server speaks (docs/SERVER.md),
``--rank vector`` for the §2.2 cohesive-term ranking, ``--repeat N``
to re-run the query through the session's plan cache, and
``--workload FILE`` to evaluate a whole query file against one
shared-scan batch (`repro.runtime`).

``serve IDX --port 8080`` runs the network-facing search service over
a posting store: ``POST /search`` / ``POST /batch`` / ``GET /explain``
in the wire format, plus the introspection routes (``/healthz``,
``/metrics``, ``/profilez``, ``/tracez``, ``/flamez``, ``/sloz``,
``/debugz``, ``/seriesz``);
bounded admission replies 429 under overload, SIGHUP hot-swaps the
index with zero dropped requests (docs/SERVER.md).

Observability (see docs/OBSERVABILITY.md): ``search --metrics`` prints
the counter/phase-timer report — including the session's plan-cache
and posting-cache hit/miss/eviction counters — after the results,
``--metrics-json PATH`` writes the machine-readable snapshot (``-``
prints it to stdout), and ``--log-level LEVEL`` turns on the
``repro.*`` logger hierarchy.  ``explain QUERY --index IDX --format
tree|json`` runs the query profiler and emits the full
:class:`~repro.obs.profile.QueryProfile`; ``search`` additionally
takes ``--slow-query-ms N`` (capture profiles of queries at or above
the threshold), ``--events-jsonl PATH`` (one schema-versioned JSONL
event per query/batch), ``--telemetry-port N`` /
``--telemetry-linger S`` (run a :class:`~repro.server.app.SearchServer`
over the run's session during — and ``S`` seconds past — the run, so
``POST /search`` and every introspection route — ``/metrics``,
``/healthz``, ``/profilez``, ``/tracez``, ``/flamez``, ``/sloz``,
``/debugz``, ``/seriesz`` — answer exactly as under ``serve``; the
in-process searches reach the flight ring and the event sink, while
``/sloz`` counts HTTP requests only),
``top URL`` (``--once`` for a single
frame) renders the ``/seriesz`` history as a live sparkline console,
``--trace-dir DIR`` (write one Perfetto-loadable
Chrome trace
JSON per query trace) and ``--flame-out PATH`` (sample the query
thread's stacks and write a collapsed flamegraph profile plus a
speedscope JSON twin).  ``profile DOC QUERY --hz 97 --repeat 100
--out profile.folded`` does the same sampling as a standalone
subcommand.

``trace DOC.xml QUERY --out trace.json`` records one query end to end
— phase spans, tracemalloc memory deltas, posting-decode bytes — as a
Chrome trace-event file for https://ui.perfetto.dev.  ``bench-check``
compares the latest ``benchmarks/BENCH_history.jsonl`` run against the
trailing median and exits non-zero on a >25% wall-time regression
(docs/OBSERVABILITY.md, "Benchmark history").
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.lattice import (bell_number, lattice_node_count,
                                largest_sublattice_size, stack_count)
from repro.core.parser import parse_query
from repro.errors import ReproError
from repro.index.inverted import InvertedIndex
from repro.index.store import save_index
from repro.index.store_v2 import (inspect_index, merge_index, open_index,
                                  save_index_v2, verify_index)
from repro.obs import (configure_logging, format_report, get_logger,
                       get_metrics, metrics_scope)
from repro.obs.bench import DEFAULT_MIN_SECONDS, DEFAULT_THRESHOLD
from repro.runtime import ALGORITHMS, SearchOptions, SearchSession
from repro.tree import dewey
from repro.tree.stats import compute_statistics
from repro.xmlio.loader import load_tree_from_path
from repro.xmlio.writer import dump_tree_to_path

_log = get_logger("cli")

#: The algorithms ``--baseline`` used to alias before its removal; the
#: flag is kept only to fail with a precise migration hint.
_BASELINE_ALIASES = ("slca", "elca", "lcasz", "saone")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohesive-search",
        description="Cohesive keyword search on tree data (EDBT 2016 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    index_cmd = sub.add_parser(
        "index", help="build / merge / inspect binary posting stores")
    index_sub = index_cmd.add_subparsers(dest="index_command",
                                         required=True)
    build_cmd = index_sub.add_parser(
        "build", help="index a document into a posting store")
    build_cmd.add_argument("document")
    build_cmd.add_argument("output")
    build_cmd.add_argument("--stream", action="store_true",
                           help="index from the XML event stream without "
                                "materializing the tree (O(depth) memory)")
    build_cmd.add_argument("--format", dest="store_format", default="v2",
                           choices=["v1", "v2"],
                           help="store format: v2 (mmap + lazy decode, "
                                "default) or the legacy v1 layout")
    build_cmd.add_argument("--dedup", action="store_true",
                           help="deduplicate repeated subtrees: store "
                                "each distinct subtree's postings once "
                                "(v2 only; incompatible with --stream)")
    merge_cmd = index_sub.add_parser(
        "merge", help="compact a segmented v2 store (or upgrade a v1 "
                      "store) to one segment")
    merge_cmd.add_argument("store")
    merge_cmd.add_argument("--output", default=None,
                           help="write the compacted store here instead "
                                "of replacing STORE in place")
    merge_cmd.add_argument("--dedup", action="store_true",
                           help="re-run subtree deduplication on the "
                                "merged postings")
    inspect_cmd = index_sub.add_parser(
        "inspect", help="report a store's format, segments and sizes")
    inspect_cmd.add_argument("store")
    inspect_cmd.add_argument("--json", action="store_true",
                             help="emit the report as JSON instead of "
                                  "the human table")
    verify_cmd = index_sub.add_parser(
        "verify", help="check every footer, CRC and live block of a "
                       "store")
    verify_cmd.add_argument("store")

    experiment_cmd = sub.add_parser(
        "experiment",
        help="run the effectiveness experiments on a generated dataset")
    experiment_cmd.add_argument("dataset", choices=["dblp", "psd", "nasa",
                                                    "baseball"])
    experiment_cmd.add_argument("--scale", type=int, default=None)
    experiment_cmd.add_argument("--seed", type=int, default=None)

    search_cmd = sub.add_parser("search", help="evaluate a query")
    search_cmd.add_argument("document")
    search_cmd.add_argument("query", nargs="?", default=None,
                            help="the query (omit with --workload FILE)")
    search_cmd.add_argument("--index", dest="index_path", default=None,
                            help="reuse a posting store built with 'index'")
    search_cmd.add_argument("--top", type=int, default=None,
                            help="print only the first N results")
    search_cmd.add_argument("--list-limit", type=int, default=None,
                            help="truncate every inverted list (paper §4.3)")
    search_cmd.add_argument("--algorithm", default=None,
                            choices=list(ALGORITHMS),
                            help="evaluation algorithm: the CohesiveLCA "
                                 "engine (default), the literal lattice "
                                 "machine, or a flat baseline")
    search_cmd.add_argument("--baseline", default=None,
                            choices=list(_BASELINE_ALIASES),
                            help="removed; use --algorithm (fails with "
                                 "a migration hint)")
    search_cmd.add_argument("--format", dest="output_format",
                            default="text", choices=["text", "json"],
                            help="human text (default) or the "
                                 "schema-versioned wire JSON the "
                                 "search server speaks "
                                 "(docs/SERVER.md)")
    search_cmd.add_argument("--repeat", type=int, default=1,
                            metavar="N",
                            help="run the query N times through one "
                                 "search session (exercises the plan "
                                 "and posting caches)")
    search_cmd.add_argument("--workload", default=None, metavar="FILE",
                            help="evaluate every query in FILE (one per "
                                 "line, # comments) as one shared-scan "
                                 "batch instead of a single query; the "
                                 "positional QUERY is ignored")
    search_cmd.add_argument("--rank", default="size",
                            choices=["size", "vector", "skyline"],
                            help="Def. 3 size ranking, §2.2 vector "
                                 "ranking, or §6 skyline semantics")
    search_cmd.add_argument("--top-k", type=int, default=None,
                            dest="top_k",
                            help="compute only the first K results of "
                                 "the size ranking (one scan, pruned "
                                 "above the K-th smallest size)")
    search_cmd.add_argument("--max-size", type=int, default=None,
                            dest="max_size",
                            help="only results with LCA size <= N")
    search_cmd.add_argument("--witness", action="store_true",
                            help="also print a minimal matching subtree "
                                 "per result")
    search_cmd.add_argument("--metrics", action="store_true",
                            help="print the counter / phase-timer report "
                                 "after the results")
    search_cmd.add_argument("--metrics-json", dest="metrics_json",
                            default=None, metavar="PATH",
                            help="write the metrics snapshot as JSON "
                                 "('-' prints it to stdout)")
    search_cmd.add_argument("--slow-query-ms", dest="slow_query_ms",
                            type=float, default=None, metavar="MS",
                            help="capture the full QueryProfile of any "
                                 "query/batch at or above MS "
                                 "milliseconds of wall time")
    search_cmd.add_argument("--events-jsonl", dest="events_jsonl",
                            default=None, metavar="PATH",
                            help="append one schema-versioned JSONL "
                                 "event per query/batch to PATH")
    search_cmd.add_argument("--telemetry-port", dest="telemetry_port",
                            type=int, default=None, metavar="PORT",
                            help="run the search server's HTTP surface "
                                 "(the work routes plus /metrics, "
                                 "/healthz, /profilez, /tracez, /flamez, "
                                 "/sloz, /debugz, /seriesz) over this "
                                 "run's session on PORT (0 picks a free "
                                 "port) during the run")
    search_cmd.add_argument("--telemetry-linger", dest="telemetry_linger",
                            type=float, default=0.0, metavar="SECONDS",
                            help="keep the telemetry port up this "
                                 "many seconds after the results (for "
                                 "scrapers; default 0)")
    search_cmd.add_argument("--trace-dir", dest="trace_dir", default=None,
                            metavar="DIR",
                            help="record every query as a trace and "
                                 "write one Perfetto-loadable Chrome "
                                 "trace JSON per trace into DIR")
    search_cmd.add_argument("--flame-out", dest="flame_out",
                            default=None, metavar="PATH",
                            help="sample the query thread's stacks "
                                 "during the run and write the "
                                 "collapsed (folded) profile to PATH "
                                 "plus a speedscope JSON twin")
    search_cmd.add_argument("--profile-hz", dest="profile_hz",
                            type=float, default=None, metavar="HZ",
                            help="stack-sampling rate for --flame-out "
                                 "(default 97)")
    search_cmd.add_argument("--log-level", dest="log_level", default=None,
                            type=str.upper,
                            choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                            help="enable repro.* logging at this level")

    serve_cmd = sub.add_parser(
        "serve", help="serve a posting store over HTTP "
                      "(POST /search, POST /batch, GET /explain, "
                      "GET /healthz — docs/SERVER.md)")
    serve_cmd.add_argument("store",
                           help="a posting store built with 'index "
                                "build' (CKSIDX2 stores open lazily)")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="TCP port (0 picks a free one; the "
                                "bound URL is printed on stdout)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (loopback by default)")
    serve_cmd.add_argument("--workers", type=int, default=4,
                           help="concurrent request executions over "
                                "the one shared session (default 4)")
    serve_cmd.add_argument("--queue-limit", dest="queue_limit",
                           type=int, default=16,
                           help="admitted-but-waiting requests beyond "
                                "--workers; the next one is rejected "
                                "with 429 (default 16)")
    serve_cmd.add_argument("--timeout", dest="request_timeout",
                           type=float, default=30.0, metavar="SECONDS",
                           help="default per-request wall budget; "
                                "expiry replies 504 (default 30)")
    serve_cmd.add_argument("--series-interval", dest="series_interval",
                           type=float, default=1.0, metavar="SECONDS",
                           help="scrape interval of the /seriesz "
                                "time-series store, which also samples "
                                "RSS/fds/threads and checks the "
                                "in-flight budget (default 1; 0 "
                                "disables it)")
    serve_cmd.add_argument("--slow-query-ms", dest="slow_query_ms",
                           type=float, default=None, metavar="MS",
                           help="record the full profile of every "
                                "request at or above this wall time")
    serve_cmd.add_argument("--events-jsonl", dest="events_jsonl",
                           default=None, metavar="PATH",
                           help="append one wide event per request to "
                                "PATH (the file rotates at 64 MiB)")
    serve_cmd.add_argument("--slo", dest="slo", action="append",
                           default=None, metavar="OBJECTIVE",
                           help="declare an SLO objective (repeatable; "
                                "e.g. 'availability 99.9%%' or "
                                "'latency p99 < 50ms', optionally "
                                "route-scoped: '/search latency p99 < "
                                "20ms'); default: availability 99.9%% "
                                "and latency p99 < 50ms")
    serve_cmd.add_argument("--log-level", dest="log_level", default=None,
                           type=str.upper,
                           choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                           help="enable repro.* logging at this level")

    trace_cmd = sub.add_parser(
        "trace", help="record one query end to end as a "
                      "Perfetto-loadable Chrome trace")
    trace_cmd.add_argument("document")
    trace_cmd.add_argument("query")
    trace_cmd.add_argument("--out", default="trace.json", metavar="PATH",
                           help="where to write the Chrome trace-event "
                                "JSON (default trace.json)")
    trace_cmd.add_argument("--index", dest="index_path", default=None,
                           help="trace against a prebuilt posting store "
                                "instead of indexing DOCUMENT in memory")
    trace_cmd.add_argument("--algorithm", default=None,
                           choices=list(ALGORITHMS),
                           help="evaluation algorithm (default cohesive)")
    trace_cmd.add_argument("--no-memory", dest="memory",
                           action="store_false",
                           help="skip tracemalloc allocation accounting "
                                "(mem_* span attributes become 0)")

    profile_cmd = sub.add_parser(
        "profile", help="sample a query's stacks into a collapsed "
                        "flamegraph profile")
    profile_cmd.add_argument("document")
    profile_cmd.add_argument("query")
    profile_cmd.add_argument("--hz", type=float, default=None,
                             help="stack-sampling rate (default 97)")
    profile_cmd.add_argument("--out", default="profile.folded",
                             metavar="PATH",
                             help="collapsed-stack output; a "
                                  "speedscope JSON twin is written "
                                  "alongside (default profile.folded)")
    profile_cmd.add_argument("--repeat", type=int, default=100,
                             metavar="N",
                             help="run the query N times so short "
                                  "queries accumulate samples "
                                  "(default 100)")
    profile_cmd.add_argument("--index", dest="index_path", default=None,
                             help="profile against a prebuilt posting "
                                  "store instead of indexing DOCUMENT "
                                  "in memory")
    profile_cmd.add_argument("--algorithm", default=None,
                             choices=list(ALGORITHMS),
                             help="evaluation algorithm (default "
                                  "cohesive)")

    bench_cmd = sub.add_parser(
        "bench-check", help="fail on wall-time regressions against the "
                            "trailing benchmark history")
    bench_cmd.add_argument("--history",
                           default="benchmarks/BENCH_history.jsonl",
                           metavar="PATH",
                           help="the BENCH_history.jsonl the benchmark "
                                "suite appends to")
    bench_cmd.add_argument("--threshold", type=float,
                           default=DEFAULT_THRESHOLD,
                           help="fractional slowdown budget over the "
                                "trailing median (default 0.25 = 25%%)")
    bench_cmd.add_argument("--min-seconds", dest="min_seconds",
                           type=float, default=DEFAULT_MIN_SECONDS,
                           help="ignore tests whose trailing median is "
                                "under this many seconds (jitter floor)")
    bench_cmd.add_argument("--summary", default=None, metavar="PATH",
                           help="also regenerate the BENCH_summary.json "
                                "artifact here")

    stats_cmd = sub.add_parser("stats", help="Table-1 dataset statistics")
    stats_cmd.add_argument("document")

    lattice_cmd = sub.add_parser("lattice",
                                 help="partition-lattice accounting")
    lattice_cmd.add_argument("query")

    explain_cmd = sub.add_parser(
        "explain", help="structure / lattice / cost report for a query "
                        "(a full QueryProfile when run against an "
                        "index or document)")
    explain_cmd.add_argument("query")
    explain_cmd.add_argument("--document", default=None,
                             help="profile the query against this XML "
                                  "file (indexed in memory)")
    explain_cmd.add_argument("--index", dest="index_path", default=None,
                             help="profile the query against a prebuilt "
                                  "posting store (format autodetected; "
                                  "lazy stores also report bytes "
                                  "decoded)")
    explain_cmd.add_argument("--format", dest="format", default="tree",
                             choices=["tree", "json"],
                             help="render the profile as a human tree "
                                  "(default) or schema-versioned JSON")

    generate_cmd = sub.add_parser("generate",
                                  help="emit a synthetic dataset as XML")
    generate_cmd.add_argument("dataset", choices=["dblp", "psd", "nasa",
                                                  "baseball", "xmark"])
    generate_cmd.add_argument("output")
    generate_cmd.add_argument("--scale", type=int, default=None)
    generate_cmd.add_argument("--seed", type=int, default=None)

    debugz_cmd = sub.add_parser(
        "debugz", help="fetch a running server's /debugz diagnostic "
                       "bundle (docs/OBSERVABILITY.md)")
    debugz_cmd.add_argument("url",
                            help="base URL of a running server — "
                                 "serve or search --telemetry-port "
                                 "(e.g. http://127.0.0.1:8080)")
    debugz_cmd.add_argument("--out", default=None, metavar="PATH",
                            help="write the bundle JSON to PATH "
                                 "instead of stdout")
    debugz_cmd.add_argument("--timeout", type=float, default=10.0,
                            metavar="SECONDS",
                            help="HTTP timeout (default 10)")

    top_cmd = sub.add_parser(
        "top", help="live ops console over a running server's "
                    "/seriesz (ANSI sparklines; "
                    "docs/OBSERVABILITY.md)")
    top_cmd.add_argument("url",
                         help="base URL of a running server — "
                              "serve or search --telemetry-port "
                              "(e.g. http://127.0.0.1:8080)")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="repaint every SECONDS (default 2)")
    top_cmd.add_argument("--once", action="store_true",
                         help="print one snapshot frame and exit "
                              "(no screen clearing; for scripts/CI)")
    return parser


def _cmd_index(args: argparse.Namespace) -> int:
    handlers = {
        "build": _cmd_index_build,
        "merge": _cmd_index_merge,
        "inspect": _cmd_index_inspect,
        "verify": _cmd_index_verify,
    }
    return handlers[args.index_command](args)


def _cmd_index_build(args: argparse.Namespace) -> int:
    if args.dedup and args.stream:
        raise ReproError(
            "--dedup needs the whole posting trie in memory and "
            "--stream promises O(depth) memory; build without --stream "
            "or merge with --dedup afterwards")
    if args.dedup and args.store_format == "v1":
        raise ReproError("--dedup requires the v2 store format")
    if args.stream:
        from repro.index.streaming import index_xml_path
        index = index_xml_path(args.document)
        nodes = "streamed"
    else:
        tree = load_tree_from_path(args.document)
        index = InvertedIndex.from_tree(tree)
        nodes = str(len(tree))
    if args.store_format == "v1":
        written = save_index(index, args.output)
    elif args.dedup:
        from repro.index.store_v2 import save_index_v2_dedup
        written = save_index_v2_dedup(index, args.output)
    else:
        written = save_index_v2(index, args.output)
    print(f"indexed {nodes} nodes, {len(index)} keywords, "
          f"{written} bytes ({args.store_format}) -> {args.output}")
    return 0


def _cmd_index_merge(args: argparse.Namespace) -> int:
    before = inspect_index(args.store)
    written = merge_index(args.store, output=args.output,
                          dedup=args.dedup)
    target = args.output or args.store
    print(f"merged {before['segments']} segment(s) "
          f"({before['format']}, {before['bytes']} bytes) -> "
          f"1 segment (CKSIDX2, {written} bytes) {target}")
    return 0


def _cmd_index_verify(args: argparse.Namespace) -> int:
    report = verify_index(args.store)
    print(f"ok {report['path']}: {report['format']}, "
          f"{report['records']} record(s), {report['segments']} "
          f"segment(s), {report['keywords']} keywords, "
          f"{report['postings']} postings decoded")
    return 0


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    summary = inspect_index(args.store)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    for key in ("path", "format", "bytes", "keywords", "postings",
                "segments", "tombstones"):
        print(f"{key:22s} {summary[key]}")
    if summary["format"] == "CKSIDX2":
        print(f"{'keywords / segment':22s} "
              f"{' '.join(map(str, summary['segment_keywords']))}")
        print(f"{'directory records':22s} {summary['chain_length']}")
        if summary["dedup_groups"]:
            print(f"{'dedup groups':22s} {summary['dedup_groups']}")
            print(f"{'dedup blocks':22s} {summary['dedup_blocks']}")
        print(f"{'live payload bytes':22s} "
              f"{summary['live_payload_bytes']}")
        print(f"{'dead bytes':22s} {summary['dead_bytes']}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.log_level:
        configure_logging(args.log_level)
    if args.trace_dir is None:
        return _search_observed(args)
    from repro.obs import write_chrome_trace
    from repro.obs.tracing import Tracer, trace_scope
    tracer = Tracer(memory=True)
    try:
        with trace_scope(tracer):
            status = _search_observed(args, tracer)
        directory = Path(args.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        trace_ids = tracer.trace_ids()
        for trace_id in trace_ids:
            write_chrome_trace(directory / f"trace-{trace_id}.json",
                               tracer.spans(trace_id))
        print(f"-- {len(trace_ids)} trace(s) -> {directory}")
    finally:
        tracer.close()
    return status


def _search_observed(args: argparse.Namespace, tracer=None) -> int:
    observing = args.metrics or args.metrics_json \
        or args.telemetry_port is not None
    if not observing:
        return _run_search(args, tracer=tracer)
    import time as _time
    with metrics_scope() as registry:
        baseline = registry.snapshot()
        started = _time.perf_counter()
        status = _run_search(args, registry, tracer)
        elapsed = _time.perf_counter() - started
        snapshot = registry.snapshot()
    if args.metrics:
        print()
        # previous/interval turn the counter section into rates too
        print(format_report(snapshot, previous=baseline,
                            interval=elapsed))
    if args.metrics_json == "-":
        print(json.dumps(snapshot, indent=2))
    elif args.metrics_json:
        Path(args.metrics_json).write_text(
            json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
        _log.info("metrics snapshot -> %s", args.metrics_json)
    return status


def _resolve_algorithm(args: argparse.Namespace) -> str:
    """``--algorithm``; the removed ``--baseline`` alias fails loudly."""
    if args.baseline is not None:
        raise ReproError(
            f"--baseline was removed; use --algorithm {args.baseline} "
            "(see docs/API.md, 'Migrating from the pre-session CLI')")
    return args.algorithm or "cohesive"


def _search_options(args: argparse.Namespace,
                    algorithm: str) -> SearchOptions:
    if algorithm != "cohesive":
        # Baselines / the machine ignore rank, top-k and size bounds,
        # as the pre-session CLI did.
        return SearchOptions(algorithm=algorithm,
                             list_limit=args.list_limit)
    return SearchOptions(rank=args.rank, top_k=args.top_k,
                         max_size=args.max_size,
                         list_limit=args.list_limit)


def _run_search(args: argparse.Namespace,
                registry=None, tracer=None) -> int:
    if args.query is None and args.workload is None:
        raise ReproError("search needs a query or --workload FILE")
    metrics = get_metrics()
    with metrics.span("index-load"):
        tree = load_tree_from_path(args.document)
        index = open_index(args.index_path) if args.index_path \
            else InvertedIndex.from_tree(tree)
    _log.info("loaded %s: %d nodes, %d keywords", args.document,
              len(tree), len(index))
    algorithm = _resolve_algorithm(args)
    options = _search_options(args, algorithm)
    session = SearchSession(index)
    if args.slow_query_ms is not None:
        session.configure_slow_query_log(args.slow_query_ms / 1000.0)
    sink = None
    if args.events_jsonl:
        from repro.obs.export import JsonlSink
        sink = JsonlSink(args.events_jsonl)
        session.attach_event_sink(sink)
    server = None
    try:
        if args.telemetry_port is not None:
            from repro.server import SearchServer
            from repro.server.wire import SERVER_ROUTES
            server = SearchServer(session, port=args.telemetry_port,
                                  registry=registry, tracer=tracer,
                                  sink=sink)
            routes = " ".join(route.split()[1] for route in SERVER_ROUTES)
            # flushed eagerly so a supervisor tailing a pipe can
            # discover the bound port before the search finishes
            print(f"-- telemetry on {server.url} ({routes})", flush=True)
        if args.flame_out:
            with session.profile_cpu(hz=args.profile_hz) as sampler:
                status = _run_queries(args, session, options, tree)
            _write_flame_profile(sampler, args.flame_out)
        else:
            status = _run_queries(args, session, options, tree)
        if server is not None and args.telemetry_linger > 0:
            import time
            time.sleep(args.telemetry_linger)
        return status
    finally:
        if server is not None:
            server.close()
        if sink is not None:
            sink.close()
        slow_log = session.slow_query_log
        if slow_log is not None and slow_log.recorded:
            print(f"-- {slow_log.recorded} slow quer"
                  f"{'y' if slow_log.recorded == 1 else 'ies'} captured "
                  f"(>= {slow_log.threshold * 1000:.1f} ms)")


def _run_queries(args: argparse.Namespace, session: SearchSession,
                 options, tree) -> int:
    repeat = max(1, args.repeat)
    if args.workload is not None:
        return _run_workload(args, session, options, repeat)
    for _ in range(repeat - 1):  # warm the caches; results identical
        session.search(args.query, options)
    if args.output_format == "json":
        import time as _time
        from repro.server import wire
        start = _time.perf_counter()
        results = session.search(args.query, options)
        duration = _time.perf_counter() - start
        body = wire.search_response(args.query, options,
                                    results[: args.top], duration)
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0
    results = session.search(args.query, options)
    algorithm = options.algorithm
    index = session.index
    if algorithm in ("cohesive", "machine"):
        rows = [(item.code, item.size, _extra(item, options.rank))
                for item in results]
        for code, size, extra in rows[: args.top]:
            label_path = tree.node(code).label_path() \
                if code in tree else "?"
            print(f"{dewey.format_code(code):20s} size={size:<3d} "
                  f"{label_path} {extra}")
            if args.witness:
                _print_witness(session.plan(args.query).query, index,
                               tree, code)
    else:
        rows = [(result.code,
                 "" if algorithm in ("slca", "elca")
                 else f"size={result.size}")
                for result in results]
        for code, extra in rows[: args.top]:
            print(f"{dewey.format_code(code):20s} {extra}")
    print(f"-- {len(rows)} result(s)")
    if repeat > 1:
        stats = session.cache_stats()
        plan, posting = stats["plan_cache"], stats["posting_cache"]
        print(f"-- repeated {repeat}x: plan cache "
              f"{plan['hits']}/{plan['hits'] + plan['misses']} hits, "
              f"posting cache {posting['hits']}/"
              f"{posting['hits'] + posting['misses']} hits")
    return 0


def _extra(item, rank: str) -> str:
    if rank == "vector":
        return f"score={item.score:.4f}"
    if rank == "skyline":
        return f"terms={item.term_sizes}"
    return ""


def _run_workload(args: argparse.Namespace, session: SearchSession,
                  options: SearchOptions, repeat: int) -> int:
    text = Path(args.workload).read_text(encoding="utf-8")
    queries = [line.strip() for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#")]
    if not queries:
        raise ReproError(f"workload {args.workload} contains no queries")
    for _ in range(repeat - 1):
        session.search_batch(queries, options)
    if args.output_format == "json":
        import time as _time
        from repro.server import wire
        start = _time.perf_counter()
        answers = session.search_batch(queries, options)
        duration = _time.perf_counter() - start
        body = wire.batch_response(queries, options, answers, duration)
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0
    answers = session.search_batch(queries, options)
    for query, results in zip(queries, answers):
        print(f"{len(results):6d} result(s)  {query}")
    stats = session.cache_stats()
    print(f"-- {len(queries)} queries, one shared scan; plan cache "
          f"hit rate {stats['plan_cache']['hit_rate']:.2f}, posting "
          f"cache hit rate {stats['posting_cache']['hit_rate']:.2f}")
    return 0


def _print_witness(query, index, tree, code) -> None:
    from repro.core.witness import reconstruct_witness
    witness = reconstruct_witness(query, index, code)
    if witness is None:
        return
    for occurrence, instance in zip(query.occurrences,
                                    witness.assignment):
        node = tree.node(instance) if instance in tree else None
        location = node.label_path() if node else "?"
        print(f"      {occurrence.keyword:15s} -> "
              f"{dewey.format_code(instance):15s} {location}")


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.log_level:
        configure_logging(args.log_level)
    from repro.server import serve
    serve(args.store, port=args.port, host=args.host,
          workers=args.workers, queue_limit=args.queue_limit,
          request_timeout=args.request_timeout,
          slow_query_ms=args.slow_query_ms,
          events_jsonl=args.events_jsonl,
          slo=args.slo if args.slo else True,
          series_interval=args.series_interval
          if args.series_interval > 0 else None)
    return 0


def _cmd_debugz(args: argparse.Namespace) -> int:
    """Fetch a running server's ``/debugz`` diagnostic bundle."""
    import urllib.request
    url = args.url.rstrip("/") + "/debugz"
    with urllib.request.urlopen(url, timeout=args.timeout) as response:
        bundle = response.read().decode("utf-8")
    if args.out is not None:
        Path(args.out).write_text(bundle + "\n", encoding="utf-8")
        parsed = json.loads(bundle)
        print(f"wrote {args.out}: {len(parsed.get('events', []))} "
              f"events, reason={parsed.get('reason')}")
    else:
        print(bundle)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """The live ops console over a running server's ``/seriesz``."""
    from urllib.error import URLError
    from repro.obs.console import run_top
    try:
        run_top(args.url, interval=args.interval, once=args.once)
    except URLError as error:
        raise ReproError(
            f"cannot reach {args.url}: "
            f"{getattr(error, 'reason', error)}") from error
    except json.JSONDecodeError as error:
        raise ReproError(
            f"{args.url} did not serve a /seriesz document "
            f"({error})") from error
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import write_chrome_trace
    from repro.obs.tracing import Tracer, trace_scope
    if args.index_path is not None:
        session = SearchSession.from_store(args.index_path)
    else:
        session = SearchSession(InvertedIndex.from_tree(
            load_tree_from_path(args.document)))
    options = SearchOptions(algorithm=args.algorithm or "cohesive")
    tracer = Tracer(memory=args.memory)
    try:
        with trace_scope(tracer):
            results = session.search(args.query, options)
        spans = tracer.spans()
        path = write_chrome_trace(args.out, spans)
        root = next((span for span in spans if span.is_root), None)
        print(f"{len(results)} result(s), {len(spans)} span(s) in trace "
              f"{root.trace_id if root is not None else '?'} -> {path}")
        print("open in https://ui.perfetto.dev or chrome://tracing")
    finally:
        tracer.close()
    return 0


def _write_flame_profile(sampler, out: str) -> Path:
    """Write the collapsed profile at ``out`` plus its speedscope
    twin (``out`` with a ``.speedscope.json`` suffix)."""
    from repro.obs import write_speedscope
    path = sampler.write_collapsed(out)
    twin = path.with_suffix(".speedscope.json")
    write_speedscope(twin, sampler.folded(), name=path.stem)
    print(f"-- {sampler.sample_count} stack sample(s) -> {path} "
          f"(speedscope: {twin})")
    return path


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.index_path is not None:
        session = SearchSession.from_store(args.index_path)
    else:
        session = SearchSession(InvertedIndex.from_tree(
            load_tree_from_path(args.document)))
    options = SearchOptions(algorithm=args.algorithm or "cohesive")
    repeat = max(1, args.repeat)
    with session.profile_cpu(hz=args.hz) as sampler:
        for _ in range(repeat - 1):
            session.search(args.query, options)
        results = session.search(args.query, options)
    _write_flame_profile(sampler, args.out)
    print(f"{len(results)} result(s) over {repeat} run(s)")
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.obs import bench
    records = bench.load_history(args.history)
    rows = bench.check_regressions(records, args.threshold,
                                   args.min_seconds)
    print(bench.format_check(rows, args.threshold))
    if args.summary:
        bench.write_summary(args.history, args.summary)
        print(f"-- summary -> {args.summary}")
    return 1 if any(row["regressed"] for row in rows) else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    tree = load_tree_from_path(args.document)
    statistics = compute_statistics(tree, name=args.document)
    for key, value in statistics.as_row().items():
        print(f"{key:22s} {value}")
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    print(f"query                    {query}")
    print(f"keywords                 {query.keyword_count}")
    print(f"terms                    {query.term_count}")
    print(f"max term cardinality     {query.max_term_cardinality}")
    print(f"full lattice (Bell)      {bell_number(query.keyword_count)}")
    print(f"reduced lattice nodes    {lattice_node_count(query)}")
    print(f"stacks (all sublattices) {stack_count(query)}")
    print(f"largest sublattice       {largest_sublattice_size(query)}")
    from repro.core.lattice import render_lattice
    print()
    print(render_lattice(query))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import (generate_baseball, generate_dblp,
                                generate_nasa, generate_psd, generate_xmark)
    generators = {
        "dblp": generate_dblp,
        "psd": generate_psd,
        "nasa": generate_nasa,
        "baseball": generate_baseball,
        "xmark": generate_xmark,
    }
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.seed is not None:
        kwargs["seed"] = args.seed
    dataset = generators[args.dataset](**kwargs)
    dump_tree_to_path(dataset.tree, args.output)
    print(f"wrote {args.dataset}: {len(dataset.tree)} nodes -> "
          f"{args.output}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.index_path is None and args.document is None:
        # No data to run against: the static structure/lattice report.
        if args.format == "json":
            raise ReproError(
                "explain --format json profiles a real run; pass "
                "--index STORE or --document DOC.xml")
        from repro.core.explain import explain
        print(explain(args.query))
        return 0
    if args.index_path is not None:
        session = SearchSession.from_store(args.index_path)
    else:
        session = SearchSession(InvertedIndex.from_tree(
            load_tree_from_path(args.document)))
    profile = session.explain(args.query)
    if args.format == "json":
        print(json.dumps(profile.to_dict(), indent=2))
    else:
        print(profile.format_tree())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.datasets import (generate_baseball, generate_dblp,
                                generate_nasa, generate_psd)
    from repro.evaluation.experiments import (average_effectiveness,
                                              dataset_ranking_quality,
                                              effectiveness_table,
                                              result_count_table)
    from repro.evaluation.reporting import format_table
    generators = {
        "dblp": generate_dblp,
        "psd": generate_psd,
        "nasa": generate_nasa,
        "baseball": generate_baseball,
    }
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.seed is not None:
        kwargs["seed"] = args.seed
    dataset = generators[args.dataset](**kwargs)
    index = InvertedIndex.from_tree(dataset.tree)
    print(f"{dataset.name}: {len(dataset.tree)} nodes\n")

    counts = result_count_table(dataset, index)
    semantics = ["CohesiveLCA", "SLCA", "ELCA", "VLCA", "MLCA"]
    print(format_table(
        ["query", "text"] + semantics,
        [[row["query"], row["text"]] + [row[s] for s in semantics]
         for row in counts],
        title="result counts (Table 3)"))

    averages = average_effectiveness(effectiveness_table(dataset, index))
    print()
    print(format_table(
        ["semantics", "P %", "R %", "F %"],
        [[name,
          f"{vals['precision'] * 100:.1f}",
          f"{vals['recall'] * 100:.1f}",
          f"{vals['f_measure'] * 100:.1f}"]
         for name, vals in averages.items()],
        title="average effectiveness (Table 4)"))

    quality = dataset_ranking_quality(dataset, index)
    print(f"\nranking quality (Table 5): "
          f"MAP={quality['map'] * 100:.0f}% "
          f"NDCG={quality['ndcg'] * 100:.0f}%")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:  # pragma: no cover - process entry
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    handlers = {
        "index": _cmd_index,
        "search": _cmd_search,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "bench-check": _cmd_bench_check,
        "stats": _cmd_stats,
        "lattice": _cmd_lattice,
        "explain": _cmd_explain,
        "generate": _cmd_generate,
        "experiment": _cmd_experiment,
        "debugz": _cmd_debugz,
        "top": _cmd_top,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
