"""The versioned wire format: round-trips, parsing, validation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ranking import RankedResult
from repro.core.results import Result
from repro.runtime.options import ALGORITHMS, SearchOptions, OptionsError
from repro.server import wire


def options_strategy():
    """Valid SearchOptions values across every constraint branch."""
    cohesive = st.builds(
        SearchOptions,
        algorithm=st.just("cohesive"),
        rank=st.sampled_from(["size", "vector", "skyline"]),
        top_k=st.none() | st.integers(0, 50),
        max_size=st.none() | st.integers(0, 50),
        list_limit=st.none() | st.integers(0, 50),
        impenetrability=st.booleans())
    others = st.builds(
        SearchOptions,
        algorithm=st.sampled_from(
            [name for name in ALGORITHMS if name != "cohesive"]),
        list_limit=st.none() | st.integers(0, 50))
    return st.one_of(cohesive, others)


class TestOptionsRoundTrip:
    @given(options=options_strategy())
    def test_from_dict_inverts_to_dict(self, options):
        assert SearchOptions.from_dict(options.to_dict()) == options

    @given(options=options_strategy())
    def test_round_trip_survives_json(self, options):
        hop = json.loads(json.dumps(options.to_dict()))
        assert SearchOptions.from_dict(hop) == options

    def test_partial_dict_keeps_defaults(self):
        options = SearchOptions.from_dict({"algorithm": "slca"})
        assert options == SearchOptions(algorithm="slca")

    def test_unknown_key_is_rejected(self):
        with pytest.raises(OptionsError, match="unknown option"):
            SearchOptions.from_dict({"algoritm": "slca"})

    def test_removed_kernel_option_is_rejected(self):
        # Cohesive evaluation has one kernel; the knob that chose
        # between engines is gone from the wire too.
        with pytest.raises(OptionsError, match="unknown option"):
            SearchOptions.from_dict({"kernel": "flat"})

    def test_non_mapping_is_rejected(self):
        with pytest.raises(OptionsError, match="mapping"):
            SearchOptions.from_dict(["cohesive"])

    def test_values_are_still_validated(self):
        with pytest.raises(OptionsError):
            SearchOptions.from_dict({"algorithm": "slca",
                                     "rank": "vector"})


class TestResultRows:
    def test_plain_result(self):
        row = wire.result_to_wire(Result((0, 2), 3, (3, 0, None)))
        assert row == {"code": "r.0.2", "size": 3,
                       "term_sizes": [3, 0, None]}

    def test_ranked_result_adds_vector_and_score(self):
        ranked = RankedResult(Result((1,), 2, (2, 1)), (0.5, 0.25), 0.559)
        row = wire.result_to_wire(ranked)
        assert row["code"] == "r.1"
        assert row["vector"] == [0.5, 0.25]
        assert row["score"] == 0.559

    def test_root_code_round_trips(self):
        row = wire.result_to_wire(Result((), 0))
        assert row["code"] == "r"


class TestRequestParsing:
    def test_search_request(self):
        raw = json.dumps({"query": "(a b)",
                          "options": {"algorithm": "slca"},
                          "timeout_seconds": 2}).encode()
        query, options, timeout = wire.parse_search_request(raw)
        assert query == "(a b)"
        assert options.algorithm == "slca"
        assert timeout == 2.0

    def test_search_request_defaults(self):
        query, options, timeout = wire.parse_search_request(
            json.dumps({"query": "(a)"}).encode())
        assert options == SearchOptions()
        assert timeout is None

    @pytest.mark.parametrize("raw", [
        b"not json",
        b"[1, 2]",
        b'{"query": ""}',
        b'{"query": 7}',
        b'{}',
        b'{"query": "(a)", "extra": 1}',
        b'{"query": "(a)", "options": {"bogus": 1}}',
        b'{"query": "(a)", "timeout_seconds": -1}',
        b'{"query": "(a)", "timeout_seconds": "soon"}',
    ])
    def test_bad_search_requests(self, raw):
        with pytest.raises(wire.WireError):
            wire.parse_search_request(raw)

    def test_batch_request(self):
        queries, options, timeout = wire.parse_batch_request(
            json.dumps({"queries": ["(a)", "(b c)"]}).encode())
        assert queries == ["(a)", "(b c)"]
        assert options == SearchOptions()

    @pytest.mark.parametrize("raw", [
        b'{"queries": []}',
        b'{"queries": "one"}',
        b'{"queries": ["(a)", ""]}',
        b'{"queries": ["(a)"], "query": "(b)"}',
    ])
    def test_bad_batch_requests(self, raw):
        with pytest.raises(wire.WireError):
            wire.parse_batch_request(raw)


class TestResponseValidation:
    def test_search_response_validates(self):
        body = wire.search_response(
            "(a  b)", SearchOptions(), [Result((0,), 1, (1,))], 0.001)
        wire.validate_response(body)
        assert body["schema"] == wire.WIRE_SCHEMA_VERSION
        assert body["query"] == "(a b)"  # canonical whitespace
        assert body["result_count"] == 1

    def test_batch_response_validates(self):
        body = wire.batch_response(
            ["(a)", "(b)"], SearchOptions(algorithm="slca"),
            [[Result((0,), 0)], []], 0.002)
        wire.validate_response(body)
        assert body["result_count"] == 1
        assert body["answers"][1] == []

    def test_error_response_validates(self):
        body = wire.error_response(429, "at capacity", retry_after=1.0)
        wire.validate_response(body)
        assert body["retry_after_seconds"] == 1.0

    def test_wrong_schema_version_is_rejected(self):
        body = wire.search_response("(a)", SearchOptions(), [], 0.0)
        body["schema"] = 99
        with pytest.raises(wire.WireError, match="schema"):
            wire.validate_response(body)

    def test_missing_field_is_rejected(self):
        body = wire.search_response("(a)", SearchOptions(), [], 0.0)
        del body["duration_seconds"]
        with pytest.raises(wire.WireError, match="missing"):
            wire.validate_response(body)

    def test_unknown_result_field_is_rejected(self):
        body = wire.search_response(
            "(a)", SearchOptions(), [Result((0,), 1)], 0.0)
        body["results"][0]["surprise"] = True
        with pytest.raises(wire.WireError, match="unknown result"):
            wire.validate_response(body)

    def test_unparseable_code_is_rejected(self):
        body = wire.search_response(
            "(a)", SearchOptions(), [Result((0,), 1)], 0.0)
        body["results"][0]["code"] = "nope!"
        with pytest.raises((wire.WireError, ValueError)):
            wire.validate_response(body)

    def test_options_in_response_must_round_trip(self):
        body = wire.search_response("(a)", SearchOptions(), [], 0.0)
        body["options"]["bogus"] = 1
        with pytest.raises(OptionsError):
            wire.validate_response(body)
