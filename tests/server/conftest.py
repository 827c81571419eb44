"""Server-test fixtures: an on-disk store and HTTP helpers."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.index.inverted import InvertedIndex
from repro.index.store_v2 import save_index_v2
from repro.runtime.session import SearchSession


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    from tests.conftest import FIGURE1_SPEC
    from repro.tree.builder import build_tree
    index = InvertedIndex.from_tree(build_tree(FIGURE1_SPEC))
    path = tmp_path_factory.mktemp("server") / "figure1.ckx"
    save_index_v2(index, path)
    return path


@pytest.fixture()
def open_session(store_path):
    """``open_session()`` -> a fresh session over the store.

    A :class:`~repro.server.SearchServer` leaves a caller's session
    open, so the store each session holds at teardown (the last one
    hot-swapped in) is closed here.
    """
    sessions = []

    def open_one() -> SearchSession:
        sessions.append(SearchSession.from_store(store_path))
        return sessions[-1]

    yield open_one
    for session in sessions:
        session.index.close()


def http_get(url: str, timeout: float = 10.0):
    """(status, parsed-or-text body) of a GET; HTTP errors included."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, _decode(response)
    except urllib.error.HTTPError as error:
        return error.code, _decode(error)


def http_post(url: str, body: dict, timeout: float = 10.0,
              raw: bytes = None):
    """(status, parsed body, headers) of a JSON POST."""
    payload = raw if raw is not None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, _decode(response), response.headers
    except urllib.error.HTTPError as error:
        return error.code, _decode(error), error.headers


def _decode(response):
    raw = response.read().decode("utf-8")
    content_type = response.headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return json.loads(raw)
    return raw
