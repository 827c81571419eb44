"""A streaming, well-formedness-checking XML pull parser.

:class:`PullParser` turns an XML document (a string) into a sequence of
:mod:`repro.xmlio.tokens` events.  It supports the subset of XML 1.0 the
reproduction's datasets use — elements, attributes, character data,
CDATA sections, comments, processing instructions, DOCTYPE declarations
(skipped, including internal subsets) and entity/character references —
and enforces well-formedness: matching tags, a single root element, no
stray markup, unique attribute names.

The parser is a generator; memory use is O(depth), so arbitrarily large
documents stream through it.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XMLSyntaxError
from repro.xmlio.escape import unescape
from repro.xmlio.tokens import (Characters, Comment, EndElement, Event,
                                ProcessingInstruction, StartElement)

_NAME_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")
_WS_RE = re.compile(r"[ \t\r\n]*")


class PullParser:
    """Parse an XML string into a stream of events.

    Parameters
    ----------
    text:
        The complete XML document.
    keep_whitespace_text:
        Emit :class:`Characters` events for whitespace-only text between
        elements (off by default — the datasets are data-centric XML where
        inter-element whitespace is formatting noise).
    """

    def __init__(self, text: str, keep_whitespace_text: bool = False):
        self._text = text
        self._pos = 0
        self._keep_ws = keep_whitespace_text
        self._stack: list[str] = []
        self._seen_root = False
        # (offset, its line, the offset of the last newline before it)
        self._line_mark = (0, 1, -1)

    # -- public API ---------------------------------------------------------

    def __iter__(self) -> Iterator[Event]:
        return self.events()

    def events(self) -> Iterator[Event]:
        """Yield all events; raises :class:`XMLSyntaxError` on bad input."""
        text = self._text
        n = len(text)
        while self._pos < n:
            lt = text.find("<", self._pos)
            if lt < 0:
                yield from self._emit_text(text[self._pos:], self._pos)
                self._pos = n
                break
            if lt > self._pos:
                yield from self._emit_text(text[self._pos:lt], self._pos)
            self._pos = lt
            yield from self._parse_markup()
        if self._stack:
            raise self._error(f"unclosed element <{self._stack[-1]}>")
        if not self._seen_root:
            raise self._error("document has no root element")

    # -- markup dispatch ----------------------------------------------------

    def _parse_markup(self) -> Iterator[Event]:
        text = self._text
        pos = self._pos
        if text.startswith("<!--", pos):
            yield self._parse_comment()
        elif text.startswith("<![CDATA[", pos):
            yield self._parse_cdata()
        elif text.startswith("<!DOCTYPE", pos) or text.startswith("<!", pos):
            self._skip_doctype()
        elif text.startswith("<?", pos):
            yield self._parse_pi()
        elif text.startswith("</", pos):
            yield self._parse_end_tag()
        else:
            yield from self._parse_start_tag()

    # -- individual constructs ---------------------------------------------

    def _parse_comment(self) -> Comment:
        start = self._pos
        end = self._text.find("-->", start + 4)
        if end < 0:
            raise self._error("unterminated comment")
        body = self._text[start + 4:end]
        if "--" in body:
            raise self._error("'--' not allowed inside a comment")
        self._pos = end + 3
        line, column = self._position(start)
        return Comment(body, line=line, column=column)

    def _parse_cdata(self) -> Characters:
        start = self._pos
        if not self._stack:
            raise self._error("CDATA outside the root element")
        end = self._text.find("]]>", start + 9)
        if end < 0:
            raise self._error("unterminated CDATA section")
        body = self._text[start + 9:end]
        self._pos = end + 3
        line, column = self._position(start)
        return Characters(body, line=line, column=column)

    def _skip_doctype(self) -> None:
        # Skip <!DOCTYPE ...>, including an internal subset [ ... ].
        start = self._pos
        depth = 0
        i = start
        text = self._text
        while i < len(text):
            ch = text[i]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                self._pos = i + 1
                return
            i += 1
        raise self._error("unterminated <! declaration")

    def _parse_pi(self) -> ProcessingInstruction:
        start = self._pos
        end = self._text.find("?>", start + 2)
        if end < 0:
            raise self._error("unterminated processing instruction")
        body = self._text[start + 2:end]
        match = _NAME_RE.match(body)
        if not match:
            raise self._error("processing instruction without a target")
        target = match.group()
        data = body[match.end():].strip()
        self._pos = end + 2
        line, column = self._position(start)
        return ProcessingInstruction(target, data, line=line, column=column)

    def _parse_end_tag(self) -> EndElement:
        start = self._pos
        match = _NAME_RE.match(self._text, start + 2)
        if not match:
            raise self._error("malformed end tag")
        name = match.group()
        i = _WS_RE.match(self._text, match.end()).end()
        if i >= len(self._text) or self._text[i] != ">":
            raise self._error(f"malformed end tag </{name}")
        if not self._stack:
            raise self._error(f"end tag </{name}> with no open element")
        expected = self._stack.pop()
        if expected != name:
            raise self._error(
                f"mismatched end tag: expected </{expected}>, got </{name}>")
        self._pos = i + 1
        line, column = self._position(start)
        return EndElement(name, line=line, column=column)

    def _parse_start_tag(self) -> Iterator[Event]:
        start = self._pos
        text = self._text
        match = _NAME_RE.match(text, start + 1)
        if not match:
            raise self._error("malformed start tag")
        name = match.group()
        if self._seen_root and not self._stack:
            raise self._error(
                f"second root element <{name}>; documents have one root")
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()
        i = match.end()
        while True:
            i = _WS_RE.match(text, i).end()
            if i >= len(text):
                raise self._error(f"unterminated start tag <{name}")
            if text[i] == ">":
                i += 1
                self_closing = False
                break
            if text.startswith("/>", i):
                i += 2
                self_closing = True
                break
            attr_match = _NAME_RE.match(text, i)
            if not attr_match:
                raise self._error(f"bad attribute in <{name}>")
            attr = attr_match.group()
            if attr in seen:
                raise self._error(
                    f"duplicate attribute {attr!r} in <{name}>")
            seen.add(attr)
            i = _WS_RE.match(text, attr_match.end()).end()
            if i >= len(text) or text[i] != "=":
                raise self._error(f"attribute {attr!r} without value")
            i = _WS_RE.match(text, i + 1).end()
            if i >= len(text) or text[i] not in "\"'":
                raise self._error(f"unquoted value for attribute {attr!r}")
            quote = text[i]
            end_quote = text.find(quote, i + 1)
            if end_quote < 0:
                raise self._error(f"unterminated value for {attr!r}")
            raw_value = text[i + 1:end_quote]
            if "<" in raw_value:
                raise self._error(f"'<' in value of attribute {attr!r}")
            attributes.append((attr, unescape(raw_value)))
            i = end_quote + 1
        self._pos = i
        self._seen_root = True
        line, column = self._position(start)
        yield StartElement(name, tuple(attributes), line=line, column=column)
        if self_closing:
            yield EndElement(name, line=line, column=column)
        else:
            self._stack.append(name)

    def _emit_text(self, raw: str, at: int) -> Iterator[Characters]:
        if "]]>" in raw:
            raise self._error("']]>' not allowed in character data")
        if not self._stack:
            if raw.strip():
                raise self._error("character data outside the root element")
            return
        if not raw.strip() and not self._keep_ws:
            return
        line, column = self._position(at)
        yield Characters(unescape(raw), line=line, column=column)

    # -- diagnostics ---------------------------------------------------------

    def _position(self, pos: int | None = None) -> tuple[int, int]:
        """1-based line and column of offset ``pos`` (default: the
        cursor).

        Positions are asked for in document order, so newlines are
        counted only from the previous position asked for and a whole
        parse scans the text once.
        """
        pos = self._pos if pos is None else pos
        mark, line, last_nl = self._line_mark
        if pos < mark:  # behind the mark: count from the start
            mark, line, last_nl = 0, 1, -1
        text = self._text
        line += text.count("\n", mark, pos)
        found = text.rfind("\n", mark, pos)
        if found >= 0:
            last_nl = found
        self._line_mark = (pos, line, last_nl)
        return line, pos - last_nl

    def _error(self, message: str) -> XMLSyntaxError:
        line, column = self._position()
        return XMLSyntaxError(message, line, column)
