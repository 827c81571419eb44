"""Tests for the from-scratch XML pull parser."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xmlio.pull_parser import PullParser
from repro.xmlio.tokens import (Characters, Comment, EndElement,
                                ProcessingInstruction, StartElement)


def events(text, **kwargs):
    return list(PullParser(text, **kwargs))


class TestBasics:
    def test_single_element(self):
        assert events("<a/>") == [
            StartElement("a", line=1, column=1),
            EndElement("a", line=1, column=1),
        ]

    def test_nested_elements_and_text(self):
        parsed = events("<a><b>hi</b></a>")
        kinds = [type(event).__name__ for event in parsed]
        assert kinds == ["StartElement", "StartElement", "Characters",
                         "EndElement", "EndElement"]
        assert parsed[2].text == "hi"

    def test_attributes(self):
        (start, _end) = events('<a x="1" y=\'two\'/>')
        assert start.attributes == (("x", "1"), ("y", "two"))
        assert start.get("x") == "1"
        assert start.get("missing", "d") == "d"

    def test_attribute_entities_decoded(self):
        (start, _end) = events('<a t="a&amp;b"/>')
        assert start.get("t") == "a&b"

    def test_text_entities_decoded(self):
        parsed = events("<a>1 &lt; 2</a>")
        assert parsed[1].text == "1 < 2"

    def test_whitespace_text_skipped_by_default(self):
        parsed = events("<a>\n  <b/>\n</a>")
        assert all(not isinstance(event, Characters) for event in parsed)

    def test_whitespace_text_kept_on_request(self):
        parsed = events("<a> <b/> </a>", keep_whitespace_text=True)
        assert sum(isinstance(event, Characters) for event in parsed) == 2


class TestSpecialConstructs:
    def test_comment(self):
        parsed = events("<a><!-- note --></a>")
        assert Comment(" note ", line=1, column=4) in parsed

    def test_cdata(self):
        parsed = events("<a><![CDATA[<raw> & unescaped]]></a>")
        assert parsed[1] == Characters("<raw> & unescaped",
                                       line=1, column=4)

    def test_processing_instruction_and_declaration(self):
        parsed = events('<?xml version="1.0"?><a/>')
        assert isinstance(parsed[0], ProcessingInstruction)
        assert parsed[0].target == "xml"
        assert parsed[0].data == 'version="1.0"'

    def test_doctype_skipped(self):
        parsed = events('<!DOCTYPE bib SYSTEM "bib.dtd" [ <!ENTITY x "y"> '
                        ']><a/>')
        assert isinstance(parsed[0], StartElement)

    def test_comment_before_root(self):
        parsed = events("<!-- head --><a/>")
        assert isinstance(parsed[0], Comment)


MALFORMED = [
    "<a>",                       # unclosed element
    "<a></b>",                   # mismatched tags
    "</a>",                      # end tag with no start
    "<a/><b/>",                  # two roots
    "text<a/>",                  # data before the root
    "<a x='1' x='2'/>",          # duplicate attribute
    "<a x=1/>",                  # unquoted attribute
    "<a x/>",                    # attribute without value
    "<a x='<'/>",                # raw < in attribute
    "<a><!-- -- --></a>",        # double hyphen in comment
    "<a><![CDATA[oops</a>",      # unterminated CDATA
    "<?pi <a/>",                 # unterminated PI
    "<a>]]></a>",                # bare CDATA terminator in text
    "",                          # no root
    "<a b='1'",                  # truncated tag
]


class TestWellFormedness:
    @pytest.mark.parametrize("bad", MALFORMED)
    def test_rejects(self, bad):
        with pytest.raises(XMLSyntaxError):
            events(bad)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            events("<a>\n</b>")
        assert excinfo.value.line == 2

    def test_streams_without_materializing(self):
        # The parser is a generator: the first event arrives without
        # parsing the rest of the (broken) document.
        stream = PullParser("<a><b></mismatch>").events()
        assert next(stream) == StartElement("a", line=1, column=1)


class _CountingParser(PullParser):
    """The parser with positions counted from the start of the text
    for every event, as the parser once did."""

    def _position(self, pos=None):
        pos = self._pos if pos is None else pos
        line = self._text.count("\n", 0, pos) + 1
        return line, pos - self._text.rfind("\n", 0, pos)


def _located(parser_class, text, **kwargs):
    """Every event with its position, then the error's, if any."""
    located = []
    try:
        for event in parser_class(text, **kwargs):
            located.append((event, event.line, event.column))
    except XMLSyntaxError as error:
        located.append((error.raw_message, error.line, error.column))
    return located


def _generated_documents():
    from repro.datasets import (generate_baseball, generate_dblp,
                                generate_nasa, generate_psd,
                                generate_random_tree, generate_xmark)
    from repro.xmlio.writer import dump_tree
    for generate in (generate_dblp, generate_psd, generate_nasa,
                     generate_baseball, generate_xmark):
        yield generate.__name__, dump_tree(generate(scale=6, seed=3).tree)
    yield "random", dump_tree(generate_random_tree(seed=5))


class TestPositions:
    """Each event's and error's line and column are what counting from
    the start of the text gives."""

    @pytest.mark.parametrize("name,document", list(_generated_documents()))
    @pytest.mark.parametrize("keep", [False, True])
    def test_generated_documents(self, name, document, keep):
        for text in (document, document.replace("\n", ""),
                     document.replace(">", ">\n\n")):
            located = _located(PullParser, text, keep_whitespace_text=keep)
            assert len(located) > 10
            assert located == _located(_CountingParser, text,
                                       keep_whitespace_text=keep)

    @pytest.mark.parametrize("bad", MALFORMED + [
        "<a>\n<b>\n</c>", "<a>\n\n  text\n</a>\n<b/>",
        "<a>\n<!-- x -- y -->\n</a>", "<a>\n</a>\n\n trailing",
        "<r>\n<a x='1'\n y='2'\n x='3'/>\n</r>"])
    def test_malformed_documents(self, bad):
        located = _located(PullParser, bad)
        assert isinstance(located[-1][0], str)
        assert located == _located(_CountingParser, bad)

    @given(st.text(alphabet="<>&;/=\"'ab \n!?-[]CDATA", max_size=120))
    def test_markup_soup(self, text):
        assert _located(PullParser, text) == \
            _located(_CountingParser, text)
