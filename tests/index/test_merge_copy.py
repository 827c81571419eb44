"""merge_index copies blocks: its output must equal a fresh encode.

``merge_index`` joins a keyword's blocks byte-wise when every block is
canonical and each sorts wholly below the next, and decodes, merges and
encodes the keyword again otherwise.  Either way the merged file must
be byte-identical to :func:`encode_index_v2` of the live postings, and
a corrupt block must fail the merge exactly when it fails the decode.
"""

import io
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StoreFormatError
from repro.index import store_v2
from repro.index.inverted import InvertedIndex, Posting
from repro.index.store import write_varint
from repro.index.store_v2 import (FOOTER_SIZE, MAGIC_V2, Extent,
                                  _encode_directory, _encode_footer,
                                  _walk_canonical, append_segment,
                                  append_tombstones, decode_posting_block,
                                  encode_index_v2, encode_posting_block,
                                  load_index_v2, merge_index,
                                  save_index_v2, save_index_v2_dedup)
from tests.index.test_store_v2 import _legacy_store

#: Steps and frequencies on both sides of the one-byte varint limit,
#: drawn from few values so that codes repeat across segments.
steps = st.sampled_from([0, 1, 2, 5, 127, 128, 129, 300, 20_000])
frequencies = st.sampled_from([1, 2, 127, 128, 1000])
codes = st.lists(steps, max_size=3).map(tuple)
keywords = st.sampled_from(["a", "b", "c", "dd"])

segment_lists = st.dictionaries(
    keywords,
    st.lists(st.tuples(codes, frequencies), max_size=6,
             unique_by=lambda pair: pair[0]),
    max_size=4)


def _postings(pairs, prefix=()) -> list:
    return [Posting(prefix + code, frequency) for code, frequency in pairs]


def _segment(lists, prefix=()) -> dict:
    return {keyword: _postings(pairs, prefix)
            for keyword, pairs in lists.items()}


def _reference(path) -> bytes:
    """A fresh encode of the store's live postings."""
    with load_index_v2(path) as lazy:
        postings = lazy.raw_postings()
        return encode_index_v2({keyword: postings[keyword]
                                for keyword in postings})


def _merged(path) -> bytes:
    output = path.with_name(path.name + ".merged")
    written = merge_index(path, output=output)
    blob = output.read_bytes()
    assert written == len(blob)
    return blob


def _hand_built(blocks: dict) -> bytes:
    """A one-segment store of raw blocks: keyword → (bytes, npost)."""
    body = io.BytesIO()
    body.write(MAGIC_V2)
    extents = []
    for keyword in sorted(blocks):
        block, npost = blocks[keyword]
        extents.append(Extent(keyword, False, body.tell(), len(block),
                              npost))
        body.write(block)
    directory = _encode_directory([extents])
    offset = body.tell()
    body.write(directory)
    body.write(_encode_footer(0, offset, offset, directory))
    return body.getvalue()


def _varints(*values) -> bytes:
    buffer = io.BytesIO()
    for value in values:
        write_varint(buffer, value)
    return buffer.getvalue()


operations = st.lists(
    st.one_of(
        # a later document: every code under a new, higher prefix
        st.tuples(st.just("after"), segment_lists),
        # codes anywhere: overlaps and equal codes across segments
        st.tuples(st.just("anywhere"), segment_lists),
        st.tuples(st.just("tombstone"), st.lists(keywords, min_size=1,
                                                 max_size=2)),
    ),
    max_size=6)


class TestByteIdentity:
    @given(base=segment_lists,
           base_kind=st.sampled_from(["plain", "legacy", "dedup"]),
           ops=operations, torn=st.booleans())
    def test_merge_equals_a_fresh_encode(self, tmp_path_factory, base,
                                         base_kind, ops, torn):
        path = tmp_path_factory.mktemp("merge") / "store.ckx"
        if base_kind == "plain":
            save_index_v2(InvertedIndex(_segment(base)), path)
        elif base_kind == "legacy":
            path.write_bytes(_legacy_store({
                keyword: sorted(plist, key=lambda posting: posting.code)
                for keyword, plist in _segment(base).items()}))
        else:
            # two identical subtrees, so the base holds dedup extents
            doubled: dict = {}
            for root in (0, 1):
                for keyword, plist in _segment(base, (root,)).items():
                    doubled.setdefault(keyword, []).extend(plist)
            save_index_v2_dedup(InvertedIndex(doubled), path)
        for number, (kind, argument) in enumerate(ops, 2):
            if kind == "tombstone":
                append_tombstones(path, argument)
            elif kind == "after":
                append_segment(path, _segment(argument, (120 + number,)))
            else:
                append_segment(path, _segment(argument))
        if torn:
            whole = path.read_bytes()
            append_segment(path, {"a": [Posting((9,), 1)]})
            appended = path.read_bytes()
            path.write_bytes(appended[:(len(whole) + len(appended)) // 2])
        assert _merged(path) == _reference(path)

    def test_store_churn_shape_copies_every_keyword(self, tmp_path,
                                                    monkeypatch):
        """Documents appended in Dewey order merge by copying alone."""
        path = tmp_path / "churn.ckx"
        save_index_v2(InvertedIndex({
            "w": [Posting((doc, 0, 1), 1) for doc in range(130)],
            "x": [Posting((doc, 2), 200) for doc in range(0, 130, 3)]}),
            path)
        for doc in range(130, 140):
            append_segment(path, {"w": [Posting((doc, 0, 1), 1),
                                        Posting((doc, 5), 2)],
                                  "y": [Posting((doc,), 1)]})
        reference = _reference(path)
        decodes = []

        def counting(*args):
            decodes.append(args)
            return decode_posting_block(*args)

        monkeypatch.setattr(store_v2, "decode_posting_block", counting)
        assert _merged(path) == reference
        assert decodes == []


class TestSegmentBoundaries:
    """Where one segment's codes meet the next: only a block wholly
    below the next one joins by copying; the rest sum or interleave."""

    @pytest.mark.parametrize("older,newer", [
        ([(1,), (2,)], [(3,), (4,)]),        # wholly below
        ([(1, 2)], [(1, 3), (1, 3, 0)]),     # below, sharing a step
        ([(1,)], [(1, 0)]),                  # below: a prefix first
        ([(1,), (2,)], [(2,), (3,)]),        # meet: frequencies sum
        ([(1,), (3,)], [(2,), (4,)]),        # interleave
        ([(1, 2)], [(1,)]),                  # a prefix last: above
        ([(5,)], [(0,)]),                    # wholly above
    ])
    def test_merge_equals_a_fresh_encode(self, tmp_path, older, newer):
        path = tmp_path / "meet.ckx"
        save_index_v2(InvertedIndex({"k": [Posting(code, 2)
                                           for code in older]}), path)
        append_segment(path, {"k": [Posting(code, 3) for code in newer]})
        append_segment(path, {"k": []})
        merged = _merged(path)
        assert merged == _reference(path)
        with load_index_v2(path) as lazy:
            total = sum(posting.frequency for posting in lazy.postings("k"))
        assert total == 2 * len(older) + 3 * len(newer)


class TestNonCanonicalBlocks:
    """Blocks the encoder would not write still merge to its bytes."""

    @pytest.mark.parametrize("block,npost", [
        # shared=0 written as the two-byte 0x80 0x00
        (b"\x80\x00" + _varints(1, 5, 1), 1),
        # codes (5,) then (3,): out of order
        (_varints(0, 1, 5, 1, 0, 1, 3, 2), 2),
        # (1, 2) then (1, 3) sharing nothing instead of one step
        (_varints(0, 2, 1, 2, 1, 0, 2, 1, 3, 1), 2),
        # the same code twice
        (_varints(0, 1, 7, 1, 1, 0, 4), 2),
    ], ids=["overlong-varint", "unsorted", "short-prefix", "repeated"])
    def test_merges_to_the_reference(self, tmp_path, block, npost):
        path = tmp_path / "odd.ckx"
        path.write_bytes(_hand_built({"k": (block, npost),
                                      "z": (_varints(0, 1, 1, 1), 1)}))
        assert _walk_canonical(block, npost) is None
        assert _merged(path) == _reference(path)
        append_segment(path, {"k": [Posting((200,), 3)],
                              "z": [Posting((200,), 3)]})
        assert _merged(path) == _reference(path)


def _decodes(path) -> bool:
    try:
        _reference(path)
    except StoreFormatError:
        return False
    return True


class TestCorruptBlocks:
    def test_flipping_any_base_block_byte(self, tmp_path):
        """Every base payload byte, flipped or zeroed or set to a bare
        continuation byte: the merge raises exactly when decoding the
        live postings does, and otherwise writes the reference."""
        path = tmp_path / "base.ckx"
        save_index_v2(InvertedIndex({
            "a": [Posting((1, 200), 1), Posting((1, 300, 2), 129),
                  Posting((2,), 1)],
            "b": [Posting((), 3), Posting((0, 0), 1)],
            "c": [Posting((5, 6, 7), 2)]}), path)
        # the base's payload ends where its directory starts
        _, _, payload_end, _, _ = struct.unpack(
            "<QQQI8s", path.read_bytes()[-FOOTER_SIZE:])
        append_segment(path, {"a": [Posting((3, 1), 1)],
                              "c": [Posting((5, 6, 8), 1)]})
        pristine = path.read_bytes()
        checked = rejected = 0
        for position in range(len(MAGIC_V2), payload_end):
            for value in (pristine[position] ^ 0xFF, 0x00, 0x80):
                if value == pristine[position]:
                    continue
                blob = bytearray(pristine)
                blob[position] = value
                path.write_bytes(bytes(blob))
                if _decodes(path):
                    assert _merged(path) == _reference(path), position
                else:
                    rejected += 1
                    with pytest.raises(StoreFormatError):
                        _merged(path)
                checked += 1
        assert checked and 0 < rejected < checked


blocks = st.one_of(
    st.lists(st.tuples(codes, frequencies), max_size=6).map(
        lambda pairs: (encode_posting_block(_postings(pairs)), len(pairs))),
    st.tuples(st.binary(max_size=24), st.integers(0, 6)))


class TestWalker:
    @given(block=blocks, flip=st.integers(0, 30),
           value=st.integers(0, 255))
    def test_agrees_with_the_decoder(self, block, flip, value):
        data, npost = block
        if data and flip < 2 * len(data):
            mutated = bytearray(data)
            mutated[flip % len(data)] = value
            data = bytes(mutated)
        try:
            decoded = decode_posting_block(data, 0, len(data), npost)
        except StoreFormatError:
            decoded = None
        try:
            walked = _walk_canonical(data, npost)
        except StoreFormatError:
            assert decoded is None
            return
        if walked is None:
            if decoded is not None:
                decoded_codes = [posting.code for posting in decoded]
                assert encode_posting_block(decoded) != data or \
                    decoded_codes != sorted(set(decoded_codes))
            return
        assert decoded is not None
        assert encode_posting_block(decoded) == data
        first, frequency_at, last = walked
        if not decoded:
            assert first is None
            return
        decoded_codes = [posting.code for posting in decoded]
        assert decoded_codes == sorted(set(decoded_codes))
        assert (first, last) == (decoded_codes[0], decoded_codes[-1])
        head = encode_posting_block(decoded[:1])
        assert frequency_at == \
            len(head) - len(_varints(decoded[0].frequency))
