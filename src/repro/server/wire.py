"""The versioned wire format of the search service.

Every JSON body the server emits — and the ``search --format json``
CLI output — carries ``"schema": 1`` (:data:`WIRE_SCHEMA_VERSION`), the
same discipline the profile (:data:`~repro.obs.profile.
PROFILE_SCHEMA_VERSION`), event (:data:`~repro.obs.export.
EVENT_SCHEMA_VERSION`) and benchmark-history (:data:`~repro.obs.bench.
BENCH_SCHEMA_VERSION`) formats already follow: a reader checks the
version once and can then rely on the field catalogue below, and any
breaking change bumps the number instead of silently reshaping bodies.

Requests
--------
``POST /search`` takes ``{"query": str, "options"?: dict,
"timeout_seconds"?: float}`` where ``options`` is a (possibly partial)
:meth:`~repro.runtime.options.SearchOptions.to_dict` mapping; ``POST
/batch`` is the same with ``"queries": [str, ...]``.  Unknown request
keys are rejected with 400 — a typo'd field must fail loudly, not
silently search with defaults.

Responses
---------
Result rows serialize as ``{"code": "1.2.3", "size": int,
"term_sizes": [int|null, ...]}`` (:func:`result_to_wire`); ranked rows
additionally carry ``"vector"`` and ``"score"``.  The response
envelopes (:func:`search_response`, :func:`batch_response`,
:func:`explain_response`, :func:`error_response`) are catalogued in
:data:`SEARCH_RESPONSE_FIELDS` and friends, which the drift tests hold
against docs/SERVER.md.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.runtime.options import OptionsError, SearchOptions
from repro.tree import dewey

#: Version stamp of every wire body this module produces.
WIRE_SCHEMA_VERSION = 1

#: The service's route catalogue (docs/SERVER.md; drift-tested).
SERVER_ROUTES = (
    "POST /search",
    "POST /batch",
    "GET /explain",
    "GET /healthz",
    "GET /metrics",
    "GET /profilez",
    "GET /tracez",
    "GET /flamez",
    "GET /sloz",
    "GET /debugz",
    "GET /seriesz",
)

#: Accepted keys of a ``POST /search`` body.
SEARCH_REQUEST_FIELDS = ("query", "options", "timeout_seconds")

#: Accepted keys of a ``POST /batch`` body.
BATCH_REQUEST_FIELDS = ("queries", "options", "timeout_seconds")

#: Keys of one serialized result row (ranked rows add vector/score).
RESULT_FIELDS = ("code", "size", "term_sizes", "vector", "score")

#: Keys of a ``POST /search`` 200 body.
SEARCH_RESPONSE_FIELDS = ("schema", "query", "options", "results",
                          "result_count", "duration_seconds")

#: Keys of a ``POST /batch`` 200 body.
BATCH_RESPONSE_FIELDS = ("schema", "queries", "options", "answers",
                         "result_count", "duration_seconds")

#: Keys of a ``GET /explain`` 200 body.
EXPLAIN_RESPONSE_FIELDS = ("schema", "profile")

#: Keys of every non-2xx body (``retry_after_seconds`` on 429 only).
ERROR_RESPONSE_FIELDS = ("schema", "error", "status",
                         "retry_after_seconds")


class WireError(ReproError):
    """A request or response that violates the wire contract."""


def result_to_wire(row) -> dict:
    """One result row — :class:`~repro.core.results.Result` or
    :class:`~repro.core.ranking.RankedResult` — as a JSON-ready dict."""
    wire = {"code": dewey.format_code(row.code), "size": row.size}
    vector = getattr(row, "vector", None)
    if vector is not None:  # a RankedResult
        wire["term_sizes"] = list(row.result.term_sizes)
        wire["vector"] = [round(component, 9) for component in vector]
        wire["score"] = round(row.score, 9)
    else:
        wire["term_sizes"] = list(row.term_sizes)
    return wire


def search_response(query: str, options: SearchOptions,
                    results: Sequence, duration: float) -> dict:
    """The 200 body of ``POST /search``."""
    return {
        "schema": WIRE_SCHEMA_VERSION,
        "query": " ".join(str(query).split()),
        "options": options.to_dict(),
        "results": [result_to_wire(row) for row in results],
        "result_count": len(results),
        "duration_seconds": round(duration, 9),
    }


def batch_response(queries: Sequence[str], options: SearchOptions,
                   answers: Sequence[Sequence],
                   duration: float) -> dict:
    """The 200 body of ``POST /batch``."""
    return {
        "schema": WIRE_SCHEMA_VERSION,
        "queries": [" ".join(str(query).split()) for query in queries],
        "options": options.to_dict(),
        "answers": [[result_to_wire(row) for row in rows]
                    for rows in answers],
        "result_count": sum(len(rows) for rows in answers),
        "duration_seconds": round(duration, 9),
    }


def explain_response(profile) -> dict:
    """The 200 body of ``GET /explain`` (wraps the profile's own
    schema-versioned :meth:`~repro.obs.profile.QueryProfile.to_dict`)."""
    return {"schema": WIRE_SCHEMA_VERSION, "profile": profile.to_dict()}


def error_response(status: int, message: str,
                   retry_after: Optional[float] = None) -> dict:
    """The body of every non-2xx reply."""
    body = {"schema": WIRE_SCHEMA_VERSION, "status": status,
            "error": message}
    if retry_after is not None:
        body["retry_after_seconds"] = retry_after
    return body


def _parse_body(raw: bytes) -> dict:
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"request body is not JSON: {error}") from error
    if not isinstance(payload, dict):
        raise WireError("request body must be a JSON object")
    return payload


def _parse_common(payload: dict, allowed: tuple
                  ) -> tuple[SearchOptions, Optional[float]]:
    unknown = set(payload) - set(allowed)
    if unknown:
        raise WireError(
            f"unknown request field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(allowed)}")
    try:
        options = SearchOptions.from_dict(payload.get("options") or {})
    except (OptionsError, TypeError) as error:
        raise WireError(f"bad options: {error}") from error
    timeout = payload.get("timeout_seconds")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise WireError("timeout_seconds must be a positive number")
        timeout = float(timeout)
    return options, timeout


def parse_search_request(raw: bytes
                         ) -> tuple[str, SearchOptions, Optional[float]]:
    """Validate a ``POST /search`` body; :class:`WireError` → 400."""
    payload = _parse_body(raw)
    options, timeout = _parse_common(payload, SEARCH_REQUEST_FIELDS)
    query = payload.get("query")
    if not isinstance(query, str) or not query.strip():
        raise WireError('"query" must be a non-empty string')
    return query, options, timeout


def parse_batch_request(raw: bytes
                        ) -> tuple[list[str], SearchOptions,
                                   Optional[float]]:
    """Validate a ``POST /batch`` body; :class:`WireError` → 400."""
    payload = _parse_body(raw)
    options, timeout = _parse_common(payload, BATCH_REQUEST_FIELDS)
    queries = payload.get("queries")
    if not isinstance(queries, list) or not queries or \
            not all(isinstance(query, str) and query.strip()
                    for query in queries):
        raise WireError('"queries" must be a non-empty list of strings')
    return queries, options, timeout


def validate_response(payload: dict) -> None:
    """Assert ``payload`` honors the published wire schema.

    Checks the version stamp and the field catalogue of whichever
    envelope the body is (search / batch / explain / error), raising
    :class:`WireError` on any violation — the property tests hold
    every live server response against this.
    """
    if not isinstance(payload, dict):
        raise WireError("response must be a JSON object")
    if payload.get("schema") != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"schema must be {WIRE_SCHEMA_VERSION}, "
            f"got {payload.get('schema')!r}")
    if "error" in payload:
        required, rows = {"status", "error"}, []
    elif "results" in payload:
        required = set(SEARCH_RESPONSE_FIELDS)
        rows = payload["results"]
    elif "answers" in payload:
        required = set(BATCH_RESPONSE_FIELDS)
        rows = [row for answer in payload["answers"] for row in answer]
    elif "profile" in payload:
        required = set(EXPLAIN_RESPONSE_FIELDS)
        rows = []
        if not isinstance(payload["profile"], dict) or \
                "schema" not in payload["profile"]:
            raise WireError("profile must be a schema-stamped object")
    else:
        raise WireError("unrecognizable response envelope")
    missing = required - set(payload)
    if missing:
        raise WireError(f"response is missing field(s) {sorted(missing)}")
    for row in rows:
        if not isinstance(row, dict):
            raise WireError("result rows must be objects")
        extra = set(row) - set(RESULT_FIELDS)
        if extra:
            raise WireError(f"unknown result field(s) {sorted(extra)}")
        if not {"code", "size", "term_sizes"} <= set(row):
            raise WireError("result rows need code/size/term_sizes")
        dewey.parse(row["code"])  # must round-trip
    if "options" in payload:
        SearchOptions.from_dict(payload["options"])  # must round-trip
