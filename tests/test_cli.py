"""End-to-end tests of the command-line interface."""

import json
import logging

import pytest

from repro.cli import main
from repro.obs import FLIGHT_SCHEMA_VERSION


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "dblp.xml"
    assert main(["generate", "dblp", str(path), "--scale", "20",
                 "--seed", "4"]) == 0
    return path


class TestGenerateAndStats:
    def test_stats(self, document, capsys):
        assert main(["stats", str(document)]) == 0
        out = capsys.readouterr().out
        assert "# nodes" in out
        assert "maximum depth" in out

    def test_generate_all_datasets(self, tmp_path):
        for name in ("psd", "nasa", "baseball", "xmark"):
            target = tmp_path / f"{name}.xml"
            assert main(["generate", name, str(target),
                         "--scale", "5"]) == 0
            assert target.exists()


class TestIndexAndSearch:
    def test_index_then_search(self, document, tmp_path, capsys):
        store = tmp_path / "dblp.idx"
        assert main(["index", "build", str(document), str(store)]) == 0
        capsys.readouterr()
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--index", str(store)]) == 0
        out = capsys.readouterr().out
        assert "result(s)" in out
        assert "bib/article" in out

    def test_search_without_store(self, document, capsys):
        assert main(["search", str(document), "(lei chen)"]) == 0
        assert "result(s)" in capsys.readouterr().out

    def test_search_vector_ranking(self, document, capsys):
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--rank", "vector"]) == 0
        assert "score=" in capsys.readouterr().out

    @pytest.mark.parametrize("baseline", ["slca", "elca", "lcasz", "saone"])
    def test_baselines(self, document, baseline, capsys):
        assert main(["search", str(document), "(lei chen yi guo)",
                     "--algorithm", baseline]) == 0
        assert "result(s)" in capsys.readouterr().out

    def test_top_limits_output(self, document, capsys):
        assert main(["search", str(document), "(title)", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert len([line for line in out.splitlines()
                    if line.startswith("r")]) <= 2


class TestAdvancedSearch:
    def test_skyline_ranking(self, document, capsys):
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--rank", "skyline"]) == 0
        assert "terms=" in capsys.readouterr().out

    def test_top_k(self, document, capsys):
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--top-k", "1"]) == 0
        assert "-- 1 result(s)" in capsys.readouterr().out

    def test_max_size(self, document, capsys):
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--max-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "size=2" in out
        assert "size=3" not in out and "size=4" not in out

    def test_witness(self, document, capsys):
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--witness", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "->" in out
        assert "author" in out

    def test_streaming_index(self, document, tmp_path, capsys):
        store = tmp_path / "stream.idx"
        assert main(["index", "build", str(document), str(store),
                     "--stream"]) == 0
        capsys.readouterr()
        assert main(["search", str(document), "(lei chen)",
                     "--index", str(store)]) == 0
        assert "result(s)" in capsys.readouterr().out


class TestIndexSubcommands:
    """`index build|merge|inspect`, formats and the retired bare
    spelling."""

    def test_build_defaults_to_v2(self, document, tmp_path, capsys):
        store = tmp_path / "dblp.idx2"
        assert main(["index", "build", str(document), str(store)]) == 0
        out = capsys.readouterr().out
        assert "(v2)" in out
        assert store.read_bytes().startswith(b"CKSIDX2\n")

    def test_build_v1_format(self, document, tmp_path, capsys):
        store = tmp_path / "dblp.idx"
        assert main(["index", "build", str(document), str(store),
                     "--format", "v1"]) == 0
        assert "(v1)" in capsys.readouterr().out
        assert store.read_bytes().startswith(b"CKSIDX1\n")

    def test_legacy_spelling_is_a_usage_error(self, document, tmp_path,
                                              capsys):
        store = tmp_path / "legacy.idx"
        with pytest.raises(SystemExit) as excinfo:
            main(["index", str(document), str(store)])
        assert excinfo.value.code == 2  # argparse's usage error
        assert "invalid choice" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_search_autodetects_format(self, document, tmp_path, fmt,
                                       capsys):
        store = tmp_path / f"auto.{fmt}"
        assert main(["index", "build", str(document), str(store),
                     "--format", fmt]) == 0
        capsys.readouterr()
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--index", str(store)]) == 0
        assert "bib/article" in capsys.readouterr().out

    def test_inspect_v2(self, document, tmp_path, capsys):
        store = tmp_path / "inspect.idx2"
        assert main(["index", "build", str(document), str(store)]) == 0
        capsys.readouterr()
        assert main(["index", "inspect", str(store)]) == 0
        out = capsys.readouterr().out
        assert "CKSIDX2" in out
        assert "segments" in out and "dead bytes" in out

    def test_inspect_json_flag_emits_the_report_as_json(
            self, document, tmp_path, capsys):
        store = tmp_path / "inspect.idx2"
        assert main(["index", "build", str(document), str(store)]) == 0
        capsys.readouterr()
        assert main(["index", "inspect", str(store), "--json"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out)
        assert summary["format"] == "CKSIDX2"
        assert summary["segments"] >= 1

    def test_merge_upgrades_v1_to_v2(self, document, tmp_path, capsys):
        store = tmp_path / "upgrade.idx"
        assert main(["index", "build", str(document), str(store),
                     "--format", "v1"]) == 0
        capsys.readouterr()
        assert main(["index", "merge", str(store)]) == 0
        out = capsys.readouterr().out
        assert "CKSIDX1" in out and "CKSIDX2" in out
        assert store.read_bytes().startswith(b"CKSIDX2\n")
        assert main(["search", str(document), "(lei chen)",
                     "--index", str(store)]) == 0

    def test_merge_to_separate_output(self, document, tmp_path, capsys):
        source = tmp_path / "src.idx2"
        target = tmp_path / "dst.idx2"
        assert main(["index", "build", str(document), str(source)]) == 0
        assert main(["index", "merge", str(source), "--output",
                     str(target)]) == 0
        assert target.exists() and source.exists()

    def test_verify_good_store(self, document, tmp_path, capsys):
        store = tmp_path / "good.idx2"
        assert main(["index", "build", str(document), str(store)]) == 0
        capsys.readouterr()
        assert main(["index", "verify", str(store)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"ok {store}: CKSIDX2, 1 record(s)")

    def test_verify_flipped_byte_fails_with_the_store_error(
            self, document, tmp_path, capsys):
        store = tmp_path / "flipped.idx2"
        assert main(["index", "build", str(document), str(store)]) == 0
        blob = bytearray(store.read_bytes())
        blob[-40] ^= 0xFF  # the directory, under the footer's CRC
        store.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["index", "verify", str(store)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: torn or corrupt tail: CRC")

    def test_inspect_bad_file_reports_error(self, tmp_path, capsys):
        junk = tmp_path / "junk.idx"
        junk.write_bytes(b"not an index at all")
        assert main(["index", "inspect", str(junk)]) == 1
        assert "error:" in capsys.readouterr().err


class TestExperiment:
    def test_experiment_runs(self, capsys):
        assert main(["experiment", "baseball", "--scale", "6"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Table 4" in out
        assert "MAP=" in out


class TestExplain:
    def test_explain_without_document(self, capsys):
        assert main(["explain", "(XML (John Smith))"]) == 0
        out = capsys.readouterr().out
        assert "reduced lattice" in out
        assert "term tree" in out

    def test_explain_with_document(self, document, capsys):
        assert main(["explain", "((Lei Chen) (Yi Guo))",
                     "--document", str(document)]) == 0
        assert "instance(s)" in capsys.readouterr().out

    def test_explain_against_index_emits_full_profile(self, document,
                                                      tmp_path, capsys):
        store = tmp_path / "dblp.idx"
        assert main(["index", "build", str(document), str(store)]) == 0
        capsys.readouterr()
        assert main(["explain", "((Lei Chen) (Yi Guo))",
                     "--index", str(store), "--format", "json"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["schema"] == 1
        # the acceptance bar: phases, lattice, caches and bytes decoded
        # are all populated from a real run against the store
        assert profile["phases"]["stream-scan"] > 0
        assert profile["phases"]["lattice-build"] > 0
        assert profile["lattice"]["reduced_nodes"] >= 1
        assert profile["lattice"]["max_term_cardinality"] == 2
        assert profile["caches"]["plan_cache"]["misses"] == 1
        assert profile["bytes_decoded"] > 0
        for stats in profile["keywords"].values():
            assert stats["postings"] > 0
            assert stats["bytes"] > 0
        assert profile["result_count"] > 0
        assert profile["top_scores"]

    def test_explain_tree_format_against_document(self, document,
                                                  capsys):
        assert main(["explain", "((Lei Chen) (Yi Guo))",
                     "--document", str(document),
                     "--format", "tree"]) == 0
        out = capsys.readouterr().out
        for section in ("lattice", "phases", "caches", "counters"):
            assert section in out

    def test_explain_json_without_data_is_an_error(self, capsys):
        assert main(["explain", "(a (b c))", "--format", "json"]) == 1
        assert "--index" in capsys.readouterr().err


class TestLattice:
    def test_lattice_report(self, capsys):
        assert main(["lattice",
                     "((XML Keyword Search) (Paul Cooper) (Mary Davis))"
                     ]) == 0
        out = capsys.readouterr().out
        assert "877" in out   # full lattice of 7 keywords
        assert "9" in out     # reduced lattice


class TestObservability:
    REQUIRED = ("postings_consumed", "stack_pushes", "lattice_nodes_built",
                "lattice_nodes_pruned", "results_emitted")

    def test_metrics_report_printed(self, document, capsys):
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "phases" in out
        for name in self.REQUIRED:
            assert name in out, name
        assert "stream-scan" in out

    def test_metrics_json_dump(self, document, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--metrics-json", str(target)]) == 0
        snapshot = json.loads(target.read_text())
        for name in self.REQUIRED:
            assert name in snapshot["counters"], name
        assert snapshot["counters"]["results_emitted"] > 0
        for phase in ("index-load", "parse", "lattice-build",
                      "stream-scan", "rank"):
            assert phase in snapshot["phases"], phase

    def test_metrics_json_with_no_results_keeps_catalogue(
            self, document, tmp_path, capsys):
        target = tmp_path / "empty.json"
        assert main(["search", str(document), "(a (b c))",
                     "--metrics-json", str(target)]) == 0
        snapshot = json.loads(target.read_text())
        for name in self.REQUIRED:
            assert name in snapshot["counters"], name
        assert snapshot["counters"]["results_emitted"] == 0

    def test_metrics_json_dash_prints_to_stdout(self, document, capsys):
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--metrics-json", "-"]) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out[out.index("{"):])
        assert snapshot["counters"]["results_emitted"] > 0
        assert "search_seconds" in snapshot["histograms"]
        assert snapshot["histograms"]["search_seconds"]["p99"] is not None

    def test_slow_query_flag_reports_captures(self, document, capsys):
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--slow-query-ms", "0"]) == 0
        assert "1 slow query captured" in capsys.readouterr().out

    def test_events_jsonl_flag_writes_events(self, document, tmp_path,
                                             capsys):
        target = tmp_path / "events.jsonl"
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--events-jsonl", str(target)]) == 0
        (event,) = [json.loads(line)
                    for line in target.read_text().splitlines()]
        assert event["schema"] == 1
        assert event["event"] == "query"
        assert event["result_count"] > 0

    def test_telemetry_port_serves_during_run(self, document, capsys,
                                              monkeypatch):
        import re
        import threading
        import time
        import urllib.request
        from repro.obs import parse_openmetrics
        from repro.index.inverted import InvertedIndex
        from repro.runtime import SearchOptions, SearchSession
        from repro.server import wire
        from repro.xmlio.loader import load_tree_from_path

        # the linger holds the endpoint up until the checks are done
        linger, released, sleep = 60.0, threading.Event(), time.sleep
        monkeypatch.setattr(time, "sleep", lambda seconds: released.wait(
            seconds) if seconds == linger else sleep(seconds))
        query = "((Lei Chen) (Yi Guo))"
        statuses = []
        run = threading.Thread(target=lambda: statuses.append(main([
            "search", str(document), query, "--telemetry-port", "0",
            "--telemetry-linger", str(linger)])))
        run.start()
        out, url = "", None
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                out += capsys.readouterr().out
                match = re.search(r"^-- telemetry on (http://\S+)", out,
                                  re.MULTILINE)
                if match:
                    url = match.group(1)
                    break
                sleep(0.02)
            assert url is not None, out
            with urllib.request.urlopen(url + "/healthz",
                                        timeout=5) as response:
                health = json.loads(response.read())
            with urllib.request.urlopen(url + "/metrics",
                                        timeout=5) as response:
                metrics = response.read().decode()
            request = urllib.request.Request(
                url + "/search",
                data=json.dumps({"query": query}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=5) as response:
                served = json.loads(response.read())
        finally:
            released.set()
            run.join(timeout=30)
        assert not run.is_alive()
        assert statuses == [0]
        assert health["status"] == "ok"
        parse_openmetrics(metrics)  # valid exposition
        # POST /search on the telemetry port answers like the library
        session = SearchSession(InvertedIndex.from_tree(
            load_tree_from_path(document)))
        expected = wire.search_response(query, SearchOptions(),
                                        session.search(query), 0.0)
        assert expected["result_count"] > 0
        served.pop("duration_seconds")
        expected.pop("duration_seconds")
        assert served == expected
        # the CLI's scoped registry backs the scrape, and the run tears
        # the server down with it
        from repro.obs import NULL_METRICS, get_metrics
        assert get_metrics() is NULL_METRICS

    def test_metrics_with_baseline(self, document, capsys):
        # elca goes through KeywordMatches, so the baseline counters
        # appear; slca (definition-first) routes through the engine and
        # reports the engine catalogue instead.
        assert main(["search", str(document), "(lei chen)",
                     "--algorithm", "elca", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "baseline_lists_loaded" in out

    def test_log_level_flag(self, document, capsys):
        assert main(["search", str(document), "(lei chen)",
                     "--log-level", "debug"]) == 0
        logger = logging.getLogger("repro")
        assert logger.level == logging.DEBUG
        assert any(getattr(h, "_repro_obs_handler", False)
                   for h in logger.handlers)
        # Re-leveling must adjust the existing handler, not stack one.
        assert main(["search", str(document), "(lei chen)",
                     "--log-level", "warning"]) == 0
        assert logger.level == logging.WARNING
        assert sum(1 for h in logger.handlers
                   if getattr(h, "_repro_obs_handler", False)) == 1

    def test_search_without_flags_leaves_metrics_off(self, document,
                                                     capsys):
        from repro.obs import NULL_METRICS, get_metrics
        assert main(["search", str(document), "(lei chen)"]) == 0
        assert get_metrics() is NULL_METRICS


class TestRuntimeFlags:
    """The session-backed flags: --algorithm, --repeat, --workload."""

    @pytest.mark.parametrize("algorithm",
                             ["cohesive", "machine", "slca", "elca",
                              "lcasz", "saone"])
    def test_algorithm_flag(self, document, algorithm, capsys):
        assert main(["search", str(document), "(lei chen yi guo)",
                     "--algorithm", algorithm]) == 0
        assert "result(s)" in capsys.readouterr().out

    def test_machine_agrees_with_cohesive(self, document, capsys):
        assert main(["search", str(document),
                     "((Lei Chen) (Yi Guo))"]) == 0
        engine_out = capsys.readouterr().out
        assert main(["search", str(document), "((Lei Chen) (Yi Guo))",
                     "--algorithm", "machine"]) == 0
        assert capsys.readouterr().out == engine_out

    def test_baseline_flag_is_a_hard_error(self, document, capsys):
        assert main(["search", str(document), "(lei chen)",
                     "--baseline", "slca"]) == 1
        # The pinned migration message (docs/API.md).
        assert ("error: --baseline was removed; use --algorithm slca "
                "(see docs/API.md, 'Migrating from the pre-session "
                "CLI')") in capsys.readouterr().err

    def test_baseline_error_names_the_requested_algorithm(
            self, document, capsys):
        assert main(["search", str(document), "(lei chen)",
                     "--baseline", "elca"]) == 1
        assert "--algorithm elca" in capsys.readouterr().err

    def test_repeat_reports_cache_hits(self, document, capsys):
        assert main(["search", str(document), "(lei chen)",
                     "--repeat", "3"]) == 0
        out = capsys.readouterr().out
        assert "repeated 3x" in out
        assert "plan cache 2/3 hits" in out

    def test_repeat_populates_cache_counters(self, document, tmp_path,
                                             capsys):
        dump = tmp_path / "metrics.json"
        assert main(["search", str(document), "(lei chen)",
                     "--repeat", "2", "--metrics-json",
                     str(dump)]) == 0
        snapshot = json.loads(dump.read_text())
        assert snapshot["counters"]["plan_cache_hits"] == 1
        assert snapshot["counters"]["plan_cache_misses"] == 1
        assert snapshot["counters"]["posting_cache_hits"] >= 1

    def test_workload_batch(self, document, tmp_path, capsys):
        workload = tmp_path / "workload.txt"
        workload.write_text("(lei chen)\n"
                            "# a comment line\n"
                            "\n"
                            "(yi guo)\n"
                            "(lei chen)\n", encoding="utf-8")
        assert main(["search", str(document), "--workload",
                     str(workload)]) == 0
        out = capsys.readouterr().out
        assert "3 queries, one shared scan" in out
        assert "(lei chen)" in out and "(yi guo)" in out
        assert "plan cache hit rate" in out

    def test_workload_counts_match_single_queries(self, document,
                                                  tmp_path, capsys):
        assert main(["search", str(document), "(lei chen)"]) == 0
        single = capsys.readouterr().out.splitlines()[-1]
        count = single.split()[1]  # "-- N result(s)"
        workload = tmp_path / "workload.txt"
        workload.write_text("(lei chen)\n", encoding="utf-8")
        assert main(["search", str(document), "--workload",
                     str(workload)]) == 0
        out = capsys.readouterr().out
        assert f"{count} result(s) (lei chen)" in " ".join(out.split())

    def test_workload_batch_counters(self, document, tmp_path):
        workload = tmp_path / "workload.txt"
        workload.write_text("(lei chen)\n(yi guo)\n(lei chen)\n",
                            encoding="utf-8")
        dump = tmp_path / "metrics.json"
        assert main(["search", str(document), "--workload",
                     str(workload), "--metrics-json", str(dump)]) == 0
        counters = json.loads(dump.read_text())["counters"]
        assert counters["batch_queries"] == 3
        assert counters["batch_distinct_plans"] == 2
        assert counters["batch_scan_nodes"] > 0

    def test_empty_workload_is_an_error(self, document, tmp_path,
                                        capsys):
        workload = tmp_path / "empty.txt"
        workload.write_text("# only comments\n", encoding="utf-8")
        assert main(["search", str(document), "--workload",
                     str(workload)]) == 1
        assert "no queries" in capsys.readouterr().err

    def test_missing_query_and_workload(self, document, capsys):
        assert main(["search", str(document)]) == 1
        assert "query or --workload" in capsys.readouterr().err


class TestJsonOutput:
    def test_search_format_json_is_the_wire_envelope(self, document,
                                                     capsys):
        from repro.server import wire
        assert main(["search", str(document), "(lei chen)",
                     "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        wire.validate_response(body)
        assert body["schema"] == wire.WIRE_SCHEMA_VERSION
        assert body["query"] == "(lei chen)"
        assert body["result_count"] == len(body["results"]) > 0

    def test_search_format_json_carries_options(self, document,
                                                capsys):
        assert main(["search", str(document), "(lei chen)",
                     "--algorithm", "slca", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["options"]["algorithm"] == "slca"

    def test_workload_format_json_is_the_batch_envelope(
            self, document, tmp_path, capsys):
        from repro.server import wire
        workload = tmp_path / "queries.txt"
        workload.write_text("(lei chen)\n(yi guo)\n")
        assert main(["search", str(document), "--workload",
                     str(workload), "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        wire.validate_response(body)
        assert body["queries"] == ["(lei chen)", "(yi guo)"]
        assert len(body["answers"]) == 2


class TestServeSubcommand:
    def test_serve_forwards_arguments(self, monkeypatch):
        import repro.server
        calls = {}

        def spy(store, **kwargs):
            calls["store"] = store
            calls.update(kwargs)

        monkeypatch.setattr(repro.server, "serve", spy)
        assert main(["serve", "INDEX.ckx", "--port", "1234",
                     "--workers", "2", "--queue-limit", "3",
                     "--timeout", "5", "--series-interval", "0"]) == 0
        assert calls["store"] == "INDEX.ckx"
        assert calls["port"] == 1234
        assert calls["workers"] == 2
        assert calls["queue_limit"] == 3
        assert calls["request_timeout"] == 5.0
        assert calls["series_interval"] is None

    def test_serve_defaults(self, monkeypatch):
        import repro.server
        calls = {}
        monkeypatch.setattr(
            repro.server, "serve",
            lambda store, **kwargs: calls.update(kwargs))
        assert main(["serve", "INDEX.ckx"]) == 0
        assert calls["port"] == 8080
        assert calls["workers"] == 4
        assert calls["queue_limit"] == 16
        assert calls["series_interval"] == 1.0
        assert "watchdog_interval" not in calls
        assert calls["slow_query_ms"] is None
        assert calls["events_jsonl"] is None
        assert calls["slo"] is True  # default objectives

    def test_serve_observability_flags_forward(self, monkeypatch):
        import repro.server
        calls = {}
        monkeypatch.setattr(
            repro.server, "serve",
            lambda store, **kwargs: calls.update(kwargs))
        assert main(["serve", "INDEX.ckx",
                     "--slow-query-ms", "25",
                     "--events-jsonl", "wide.jsonl",
                     "--slo", "availability 99%",
                     "--slo", "/search latency p99 < 20ms"]) == 0
        assert calls["slow_query_ms"] == 25.0
        assert calls["events_jsonl"] == "wide.jsonl"
        assert calls["slo"] == ["availability 99%",
                                "/search latency p99 < 20ms"]


class TestDebugzSubcommand:
    @pytest.fixture()
    def live_server(self, document, tmp_path):
        from repro.runtime import SearchSession
        from repro.server import SearchServer
        store = tmp_path / "dblp.ckx"
        assert main(["index", "build", str(document), str(store)]) == 0
        session = SearchSession.from_store(store)
        with SearchServer(session, index_path=store) as server:
            yield server

    def test_debugz_prints_the_bundle(self, live_server, capsys):
        assert main(["debugz", live_server.url]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["schema"] == FLIGHT_SCHEMA_VERSION
        assert bundle["reason"] == "on_demand"

    def test_debugz_out_writes_the_file(self, live_server, tmp_path,
                                        capsys):
        target = tmp_path / "bundle.json"
        assert main(["debugz", live_server.url + "/",
                     "--out", str(target)]) == 0
        bundle = json.loads(target.read_text(encoding="utf-8"))
        assert bundle["schema"] == FLIGHT_SCHEMA_VERSION
        assert "reason=on_demand" in capsys.readouterr().out


class TestErrors:
    def test_bad_query_reports_error(self, document, capsys):
        assert main(["search", str(document), "((a))"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_xml_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>")
        assert main(["stats", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrace:
    QUERY = "((Lei Chen) (Yi Guo))"

    def test_trace_writes_chrome_trace(self, document, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", str(document), self.QUERY,
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Perfetto" in printed or "perfetto" in printed
        trace = json.loads(out.read_text(encoding="utf-8"))
        events = [event for event in trace["traceEvents"]
                  if event["ph"] == "X"]
        assert events, "trace must contain complete events"
        trace_ids = {event["args"]["trace_id"] for event in events}
        assert len(trace_ids) == 1
        root = next(event for event in events
                    if event["args"]["parent_id"] is None)
        assert root["name"] == "search"
        # memory accounting is on by default
        assert "mem_alloc_delta" in root["args"]
        assert "posting_decode_bytes" in root["args"]

    def test_trace_no_memory_flag(self, document, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", str(document), self.QUERY,
                     "--out", str(out), "--no-memory"]) == 0
        trace = json.loads(out.read_text(encoding="utf-8"))
        roots = [event for event in trace["traceEvents"]
                 if event["ph"] == "X"
                 and event["args"]["parent_id"] is None]
        assert roots[0]["args"]["mem_alloc_delta"] == 0

    def test_trace_against_prebuilt_index(self, document, tmp_path):
        store = tmp_path / "dblp.idx"
        assert main(["index", "build", str(document), str(store)]) == 0
        out = tmp_path / "trace.json"
        assert main(["trace", str(document), self.QUERY,
                     "--index", str(store), "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["traceEvents"]

    def test_search_trace_dir_writes_one_file_per_trace(
            self, document, tmp_path, capsys):
        traces = tmp_path / "traces"
        assert main(["search", str(document), self.QUERY,
                     "--trace-dir", str(traces)]) == 0
        files = sorted(traces.glob("trace-*.json"))
        assert len(files) == 1
        trace = json.loads(files[0].read_text(encoding="utf-8"))
        names = {event["name"] for event in trace["traceEvents"]
                 if event["ph"] == "X"}
        assert "search" in names
        assert "trace(s)" in capsys.readouterr().out

    def test_trace_dir_with_workload_writes_per_query_traces(
            self, document, tmp_path):
        workload = tmp_path / "workload.txt"
        workload.write_text(f"{self.QUERY}\n{self.QUERY}\n",
                            encoding="utf-8")
        traces = tmp_path / "traces"
        assert main(["search", str(document), "--workload",
                     str(workload), "--trace-dir", str(traces)]) == 0
        assert len(list(traces.glob("trace-*.json"))) >= 1


class TestProfiling:
    QUERY = "((Lei Chen) (Yi Guo))"

    def test_profile_writes_collapsed_and_speedscope(
            self, document, tmp_path, capsys):
        out = tmp_path / "flame.folded"
        assert main(["profile", str(document), self.QUERY,
                     "--out", str(out), "--hz", "500",
                     "--repeat", "200"]) == 0
        printed = capsys.readouterr().out
        assert "stack sample(s)" in printed
        folded = out.read_text(encoding="utf-8").strip()
        assert folded, "collapsed profile is empty"
        assert any("repro" in line for line in folded.splitlines())
        twin = out.with_suffix(".speedscope.json")
        doc = json.loads(twin.read_text(encoding="utf-8"))
        assert doc["$schema"].endswith("file-format-schema.json")
        assert doc["profiles"][0]["weights"]

    def test_profile_against_prebuilt_index(self, document, tmp_path):
        store = tmp_path / "dblp.idx"
        assert main(["index", "build", str(document), str(store)]) == 0
        out = tmp_path / "flame.folded"
        assert main(["profile", str(document), self.QUERY,
                     "--index", str(store), "--out", str(out),
                     "--hz", "500", "--repeat", "200"]) == 0
        assert out.read_text(encoding="utf-8").strip()

    def test_search_flame_out_writes_both_artifacts(
            self, document, tmp_path, capsys):
        out = tmp_path / "search.folded"
        assert main(["search", str(document), self.QUERY,
                     "--repeat", "200", "--flame-out", str(out),
                     "--profile-hz", "500"]) == 0
        assert "stack sample(s)" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8").strip()
        assert out.with_suffix(".speedscope.json").exists()
