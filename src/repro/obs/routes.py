"""Route-table dispatch for the search server's HTTP surface.

A :class:`RouteTable` is the single registration point of the
read-only routes :class:`~repro.server.app.SearchServer` serves:
handlers are ``params -> (status, content_type, body)`` callables
keyed by path, :meth:`RouteTable.dispatch` parses the query string,
replies, and converts handler exceptions into a 500 (after an optional
``on_error`` hook — the search server counts them into
``server_errors``).  The handler factories below build the common
route shapes (JSON, text, the filtered ``/seriesz`` document).

:data:`repro.server.wire.SERVER_ROUTES` is the one route catalogue;
the docs-drift test holds docs/SERVER.md's route table to it.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Callable, Optional
from urllib.parse import parse_qsl

from repro.obs.logconfig import get_logger

_log = get_logger("obs.routes")

#: The content type OpenMetrics scrapers negotiate for.
OPENMETRICS_CONTENT_TYPE = \
    "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: A route handler: query parameters -> (status, content type, body).
Handler = Callable[[dict], tuple]


def reply(request: BaseHTTPRequestHandler, status: int,
          content_type: str, body: str,
          headers: Optional[dict] = None) -> None:
    """Send one complete HTTP response in a single socket write.

    ``send_response`` and ``send_header`` only buffer (and log the
    request); the stdlib's ``end_headers`` would flush that buffer as
    a write of its own, and on the unbuffered handler socket a second
    small write for the body then waits out the client's delayed ACK
    under Nagle's algorithm (~40 ms per keep-alive request).  So the
    header block, the blank line and the body are joined here and
    written once.  A ``HEAD`` reply keeps its ``Content-Length`` but
    carries no body; an HTTP/0.9 reply is the bare body, as the stdlib
    sends it.
    """
    payload = body.encode("utf-8")
    request.send_response(status)
    request.send_header("Content-Type", content_type)
    request.send_header("Content-Length", str(len(payload)))
    for name, value in (headers or {}).items():
        request.send_header(name, value)
    chunks = getattr(request, "_headers_buffer", [])
    request._headers_buffer = []
    if request.request_version != "HTTP/0.9":
        chunks.append(b"\r\n")
    if request.command != "HEAD":
        chunks.append(payload)
    request.wfile.write(b"".join(chunks))


class RouteError(Exception):
    """A handler rejecting its parameters with a specific status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class RouteTable:
    """Path -> handler dispatch.

    ``on_error`` (if given) is called with ``(path, exception)``
    before the 500 reply — the search server bumps ``server_errors``
    there.  Unknown paths are **not** handled here:
    :meth:`dispatch` returns ``False`` so the caller owns the 404
    (the search server replies a wire-format error body).
    """

    def __init__(self, on_error: Optional[Callable] = None):
        self._handlers: dict[str, Handler] = {}
        self._on_error = on_error

    def add(self, path: str, handler: Handler) -> "RouteTable":
        """Register ``handler`` for ``path`` (last write wins)."""
        self._handlers[path] = handler
        return self

    @property
    def paths(self) -> list[str]:
        """The registered paths, sorted."""
        return sorted(self._handlers)

    def dispatch(self, request: BaseHTTPRequestHandler) -> bool:
        """Serve the request if its path is registered.

        Returns ``True`` when a reply was sent (success, 4xx from a
        :class:`RouteError`, or 500 from a handler bug), ``False``
        when the path is unknown and the caller owns the 404.
        """
        path, _, query_string = request.path.partition("?")
        handler = self._handlers.get(path)
        if handler is None:
            return False
        params = dict(parse_qsl(query_string))
        try:
            status, content_type, body = handler(params)
        except RouteError as error:
            reply(request, error.status, "text/plain", error.message)
            return True
        except Exception as error:  # pragma: no cover - handler bugs
            _log.exception("route handler failed on %s", path)
            if self._on_error is not None:
                self._on_error(path, error)
            reply(request, 500, "text/plain", f"error: {error}")
            return True
        reply(request, status, content_type, body)
        return True


# -- handler factories -------------------------------------------------------

def json_route(provider: Callable[[], object], *,
               sort_keys: bool = True) -> Handler:
    """A route serving ``provider()`` as JSON.

    ``sort_keys`` is on by default — the determinism contract of
    ``/sloz``, ``/debugz`` and ``/seriesz`` (byte parity between an
    HTTP fetch and the Python API).
    """
    def handler(params: dict) -> tuple:
        return 200, "application/json", \
            json.dumps(provider(), sort_keys=sort_keys, default=str)
    return handler


def text_route(provider: Callable[[], str],
               content_type: str = "text/plain; charset=utf-8"
               ) -> Handler:
    """A route serving ``provider()`` as text."""
    def handler(params: dict) -> tuple:
        return 200, content_type, provider()
    return handler


def series_route(store_provider: Callable[[], object]) -> Handler:
    """The ``/seriesz`` handler over a store provider.

    Serves the :meth:`~repro.obs.timeseries.TimeSeriesStore.as_json`
    document with ``sort_keys`` (byte-deterministic under a frozen
    clock); honours ``?name=``, ``?window=`` (seconds) and
    ``?resolution=`` filters, rejecting malformed values with 400 and
    replying 404 when no store is running.
    """
    def handler(params: dict) -> tuple:
        store = store_provider()
        if store is None:
            raise RouteError(404, "no time-series store is running")
        name = params.get("name") or None
        window = None
        if params.get("window"):
            try:
                window = float(params["window"])
            except ValueError:
                raise RouteError(
                    400, "window must be a number of seconds") from None
            if window <= 0:
                raise RouteError(400, "window must be > 0 seconds")
        resolution = params.get("resolution") or None
        if resolution is not None and \
                resolution not in store.resolutions:
            known = ", ".join(sorted(store.resolutions))
            raise RouteError(
                400, f"unknown resolution {resolution!r}; try {known}")
        document = store.as_json(name=name, window=window,
                                 resolution=resolution)
        return 200, "application/json", \
            json.dumps(document, sort_keys=True, default=str)
    return handler
