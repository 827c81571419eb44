"""docs/SERVER.md's catalogues must match the wire module.

Routes (rows prefixed ``| route:``) against
:data:`repro.server.wire.SERVER_ROUTES`, and wire fields (rows
prefixed ``| field:``) against the request/response field tuples —
both directions, so the published wire contract can be trusted.
Every introspection route the server registers must be in that
catalogue, so the one route table covers the whole HTTP surface.
"""

import re
from pathlib import Path

from repro.runtime.session import SearchSession
from repro.server import SearchServer, wire

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "SERVER.md"

_BACKTICKED = re.compile(r"`([^`]+)`")

FIELD_CATALOGUES = (
    wire.SEARCH_REQUEST_FIELDS,
    wire.BATCH_REQUEST_FIELDS,
    wire.SEARCH_RESPONSE_FIELDS,
    wire.BATCH_RESPONSE_FIELDS,
    wire.EXPLAIN_RESPONSE_FIELDS,
    wire.ERROR_RESPONSE_FIELDS,
    wire.RESULT_FIELDS,
)


def _documented(prefix: str) -> set:
    names = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith(f"| {prefix}:"):
            continue
        first_cell = line.split("|")[1]
        names.update(_BACKTICKED.findall(first_cell))
    return names


def _code_fields() -> set:
    names = set()
    for catalogue in FIELD_CATALOGUES:
        names.update(catalogue)
    return names


def test_every_route_is_documented():
    missing = set(wire.SERVER_ROUTES) - _documented("route")
    assert not missing, \
        f"routes in SERVER_ROUTES but absent from docs/SERVER.md's " \
        f"route catalogue: {sorted(missing)}"


def test_every_documented_route_exists_in_code():
    stale = _documented("route") - set(wire.SERVER_ROUTES)
    assert not stale, \
        f"routes documented in docs/SERVER.md but missing from " \
        f"SERVER_ROUTES: {sorted(stale)}"


def test_shared_introspection_routes_are_published_server_routes(
        figure1_index):
    with SearchServer(SearchSession(figure1_index)) as server:
        registered = {f"GET {path}"
                      for path in server._introspection.paths}
    missing = registered - set(wire.SERVER_ROUTES)
    assert not missing, \
        f"routes the server registers but absent from SERVER_ROUTES " \
        f"(so undocumented): {sorted(missing)}"


def test_every_wire_field_is_documented():
    missing = _code_fields() - _documented("field")
    assert not missing, \
        f"wire fields in repro.server.wire's catalogues but absent " \
        f"from docs/SERVER.md's field tables: {sorted(missing)}"


def test_every_documented_field_exists_in_code():
    stale = _documented("field") - _code_fields()
    assert not stale, \
        f"fields documented in docs/SERVER.md but missing from the " \
        f"wire catalogues: {sorted(stale)}"


def test_schema_version_in_doc_matches_code():
    text = DOC.read_text(encoding="utf-8")
    match = re.search(r"currently \*\*(\d+)\*\*", text)
    assert match, "docs/SERVER.md must state the current wire version"
    assert int(match.group(1)) == wire.WIRE_SCHEMA_VERSION
