"""CKSIDX2 store: round trips, laziness, segments, corruption."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IndexError_, StoreFormatError
from repro.index.inverted import InvertedIndex, Posting
from repro.index.store import MAGIC as MAGIC_V1
from repro.index.store import load_index, save_index
from repro.index.store_v2 import (FOOTER_SIZE, LEGACY_TAIL_MAGIC,
                                  MAGIC_V2, TAIL_MAGIC,
                                  LazyIndex, append_segment,
                                  append_tombstones, decode_dedup_block,
                                  decode_subtree_table, encode_dedup_block,
                                  encode_index_v2, encode_index_v2_dedup,
                                  encode_posting_block,
                                  encode_subtree_table,
                                  find_duplicate_subtrees, inspect_index,
                                  load_index_v2, merge_index, open_index,
                                  save_index_v2, save_index_v2_dedup,
                                  verify_index)
from repro.obs import metrics_scope

posting_lists = st.dictionaries(
    st.text(alphabet="abcdefg", min_size=1, max_size=6),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 30), max_size=6).map(tuple),
            st.integers(1, 5),
        ),
        max_size=10,
        unique_by=lambda pair: pair[0],
    ),
    max_size=6,
)


def _index(lists) -> InvertedIndex:
    return InvertedIndex({
        keyword: [Posting(code, freq) for code, freq in pairs]
        for keyword, pairs in lists.items()
    })


class TestRoundtrip:
    @given(lists=posting_lists)
    def test_v2_roundtrip(self, tmp_path_factory, lists):
        """load(save(idx)) == idx for the v2 format."""
        path = tmp_path_factory.mktemp("v2") / "index.idx2"
        index = _index(lists)
        written = save_index_v2(index, path)
        assert written == path.stat().st_size
        with load_index_v2(path) as lazy:
            assert lazy.raw_postings() == index.raw_postings()

    @given(lists=posting_lists)
    def test_v1_roundtrip(self, tmp_path_factory, lists):
        """The same property holds for v1 (shared harness)."""
        path = tmp_path_factory.mktemp("v1") / "index.idx"
        index = _index(lists)
        save_index(index, path)
        assert load_index(path).raw_postings() == index.raw_postings()

    @given(lists=posting_lists)
    def test_v2_lazy_equals_v1_eager_keyword_by_keyword(
            self, tmp_path_factory, lists):
        directory = tmp_path_factory.mktemp("both")
        index = _index(lists)
        save_index(index, directory / "v1.idx")
        save_index_v2(index, directory / "v2.idx2")
        eager = load_index(directory / "v1.idx")
        with load_index_v2(directory / "v2.idx2") as lazy:
            assert set(lazy.keywords()) == set(eager.keywords())
            for keyword in eager.keywords():
                assert lazy.postings(keyword) == eager.postings(keyword)
                assert lazy.frequency(keyword) == eager.frequency(keyword)

    def test_roundtrip_from_tree(self, figure1_tree, tmp_path):
        index = InvertedIndex.from_tree(figure1_tree)
        path = tmp_path / "fig1.idx2"
        save_index_v2(index, path)
        with load_index_v2(path) as lazy:
            assert lazy.raw_postings() == index.raw_postings()
            assert lazy.most_frequent(3) == index.most_frequent(3)


class TestLaziness:
    def test_open_decodes_nothing(self, figure1_index, tmp_path):
        path = tmp_path / "lazy.idx2"
        save_index_v2(figure1_index, path)
        with load_index_v2(path) as lazy:
            assert lazy.decoded_keywords() == frozenset()
            assert len(lazy) == len(figure1_index)  # directory only

    def test_access_decodes_exactly_one_block(self, figure1_index,
                                              tmp_path):
        path = tmp_path / "lazy.idx2"
        save_index_v2(figure1_index, path)
        with load_index_v2(path) as lazy:
            lazy.postings("xml")
            assert lazy.decoded_keywords() == {"xml"}

    def test_decode_counters(self, figure1_index, tmp_path):
        path = tmp_path / "metrics.idx2"
        save_index_v2(figure1_index, path)
        with metrics_scope() as metrics:
            with load_index_v2(path) as lazy:
                assert metrics.counter("index_open_v2") == 1
                assert metrics.counter("posting_decode_blocks") == 0
                lazy.postings("xml")
                assert metrics.counter("posting_decode_blocks") == 1
                assert metrics.counter("posting_decode_postings") > 0
                lazy.postings("xml")  # cached: no second decode
                assert metrics.counter("posting_decode_blocks") == 1
                assert metrics.counter("posting_decode_cache_hits") >= 1

    def test_frequency_needs_no_decode(self, figure1_index, tmp_path):
        path = tmp_path / "freq.idx2"
        save_index_v2(figure1_index, path)
        with load_index_v2(path) as lazy:
            assert lazy.frequency("xml") == figure1_index.frequency("xml")
            assert lazy.most_frequent(5) == figure1_index.most_frequent(5)
            assert lazy.decoded_keywords() == frozenset()

    def test_immutable_views(self, figure1_index, tmp_path):
        path = tmp_path / "imm.idx2"
        save_index_v2(figure1_index, path)
        with load_index_v2(path) as lazy:
            view = lazy.raw_postings()
            with pytest.raises(TypeError):
                view["xml"] = ()
            assert isinstance(lazy.postings("xml"), tuple)

    def test_read_api_parity(self, figure1_index, tmp_path):
        path = tmp_path / "api.idx2"
        save_index_v2(figure1_index, path)
        with load_index_v2(path) as lazy:
            assert "xml" in lazy and "notaword" not in lazy
            code = figure1_index.postings("xml")[0].code
            assert lazy.node_count("xml", code) == \
                figure1_index.node_count("xml", code)
            with pytest.raises(IndexError_):
                lazy.require(["xml", "notaword"])
            merged = lazy.merged_with(InvertedIndex(
                {"extra": [Posting((9,), 1)]}))
            assert "extra" in merged and "xml" in merged


class TestSegments:
    def test_append_merges_lists(self, tmp_path):
        path = tmp_path / "seg.idx2"
        save_index_v2(InvertedIndex({"k": [Posting((0,), 1)]}), path)
        append_segment(path, InvertedIndex({"k": [Posting((1,), 2)],
                                            "new": [Posting((2,), 1)]}))
        with load_index_v2(path) as lazy:
            assert lazy.segment_count == 2
            assert lazy.postings("k") == (Posting((0,), 1),
                                          Posting((1,), 2))
            assert lazy.postings("new") == (Posting((2,), 1),)

    def test_append_sums_same_code_frequencies(self, tmp_path):
        """Segment merge must match InvertedIndex.merged_with."""
        path = tmp_path / "sum.idx2"
        first = InvertedIndex({"k": [Posting((0,), 1)]})
        second = InvertedIndex({"k": [Posting((0,), 2)]})
        save_index_v2(first, path)
        append_segment(path, second)
        with load_index_v2(path) as lazy:
            assert lazy.postings("k") == \
                first.merged_with(second).postings("k")

    def test_tombstone_shadows_older_segments(self, tmp_path):
        path = tmp_path / "tomb.idx2"
        save_index_v2(InvertedIndex({"dead": [Posting((0,), 1)],
                                     "kept": [Posting((1,), 1)]}), path)
        append_tombstones(path, ["dead"])
        with load_index_v2(path) as lazy:
            assert "dead" not in lazy
            assert lazy.postings("dead") == ()
            assert lazy.postings("kept") == (Posting((1,), 1),)

    def test_reinsert_after_tombstone(self, tmp_path):
        path = tmp_path / "re.idx2"
        save_index_v2(InvertedIndex({"k": [Posting((0,), 1)]}), path)
        append_tombstones(path, ["k"])
        append_segment(path, InvertedIndex({"k": [Posting((5,), 3)]}))
        with load_index_v2(path) as lazy:
            assert lazy.postings("k") == (Posting((5,), 3),)

    def test_open_snapshot_survives_append(self, tmp_path):
        path = tmp_path / "snap.idx2"
        save_index_v2(InvertedIndex({"k": [Posting((0,), 1)]}), path)
        with load_index_v2(path) as snapshot:
            append_segment(path, InvertedIndex({"k": [Posting((1,), 1)]}))
            assert snapshot.postings("k") == (Posting((0,), 1),)
        with load_index_v2(path) as fresh:
            assert len(fresh.postings("k")) == 2

    def test_merge_compacts_to_one_segment(self, tmp_path):
        path = tmp_path / "compact.idx2"
        save_index_v2(InvertedIndex({"k": [Posting((0,), 1)]}), path)
        append_segment(path, InvertedIndex({"k": [Posting((1,), 1)]}))
        append_tombstones(path, ["k"])
        append_segment(path, InvertedIndex({"k": [Posting((2,), 7)],
                                            "j": [Posting((3,), 1)]}))
        before = inspect_index(path)
        assert before["segments"] == 4 and before["tombstones"] == 1
        merge_index(path)
        after = inspect_index(path)
        assert after["segments"] == 1 and after["tombstones"] == 0
        assert after["bytes"] < before["bytes"]
        with load_index_v2(path) as lazy:
            assert lazy.postings("k") == (Posting((2,), 7),)
            assert lazy.postings("j") == (Posting((3,), 1),)

    def test_merge_to_output_leaves_source(self, tmp_path):
        source = tmp_path / "src.idx2"
        target = tmp_path / "dst.idx2"
        save_index_v2(InvertedIndex({"k": [Posting((0,), 1)]}), source)
        append_segment(source, InvertedIndex({"k": [Posting((1,), 1)]}))
        merge_index(source, output=target)
        assert inspect_index(source)["segments"] == 2
        assert inspect_index(target)["segments"] == 1

    def test_segment_counters(self, tmp_path):
        path = tmp_path / "cnt.idx2"
        save_index_v2(InvertedIndex({"k": [Posting((0,), 1)]}), path)
        with metrics_scope() as metrics:
            append_segment(path, InvertedIndex({"k": [Posting((1,), 1)]}))
            append_tombstones(path, ["k"])
            merge_index(path)
            assert metrics.counter("segment_appends") == 2
            assert metrics.counter("segment_tombstones") == 1
            assert metrics.counter("segment_merges") == 1


class TestAutodetect:
    def test_open_v1(self, figure1_index, tmp_path):
        path = tmp_path / "v1.idx"
        save_index(figure1_index, path)
        opened = open_index(path)
        assert not isinstance(opened, LazyIndex)
        assert opened.raw_postings() == figure1_index.raw_postings()

    def test_open_v2(self, figure1_index, tmp_path):
        path = tmp_path / "v2.idx2"
        save_index_v2(figure1_index, path)
        opened = open_index(path)
        assert isinstance(opened, LazyIndex)
        assert opened.raw_postings() == figure1_index.raw_postings()
        opened.close()

    def test_open_counters(self, figure1_index, tmp_path):
        save_index(figure1_index, tmp_path / "a.idx")
        save_index_v2(figure1_index, tmp_path / "b.idx2")
        with metrics_scope() as metrics:
            open_index(tmp_path / "a.idx")
            open_index(tmp_path / "b.idx2").close()
            assert metrics.counter("index_open_v1") == 1
            assert metrics.counter("index_open_v2") == 1

    def test_open_unknown_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTASTORE-------")
        with pytest.raises(StoreFormatError):
            open_index(path)

    def test_merge_upgrades_v1(self, figure1_index, tmp_path):
        path = tmp_path / "old.idx"
        save_index(figure1_index, path)
        merge_index(path)
        assert inspect_index(path)["format"] == "CKSIDX2"
        with load_index_v2(path) as lazy:
            assert lazy.raw_postings() == figure1_index.raw_postings()

    def test_inspect_v1(self, figure1_index, tmp_path):
        path = tmp_path / "v1.idx"
        save_index(figure1_index, path)
        summary = inspect_index(path)
        assert summary["format"] == "CKSIDX1"
        assert summary["keywords"] == len(figure1_index)
        assert summary["lazy"] is False


def _store_bytes(index: InvertedIndex) -> bytearray:
    from repro.index.store_v2 import encode_index_v2
    return bytearray(encode_index_v2(index))


class TestCorruption:
    """Every malformed input must raise StoreFormatError — never
    IndexError, struct.error or an unhandled crash (v1 behaves the
    same; see tests/index/test_store.py)."""

    def _load(self, tmp_path, blob: bytes):
        path = tmp_path / "corrupt.idx2"
        path.write_bytes(blob)
        return load_index_v2(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(StoreFormatError):
            self._load(tmp_path, b"")

    def test_bad_magic(self, tmp_path):
        with pytest.raises(StoreFormatError):
            self._load(tmp_path, b"NOTANIDX" + bytes(FOOTER_SIZE))

    def test_bad_tail_magic(self, tmp_path):
        blob = _store_bytes(InvertedIndex({"k": [Posting((0,), 1)]}))
        blob[-len(TAIL_MAGIC):] = b"XXXXXXXX"
        with pytest.raises(StoreFormatError):
            self._load(tmp_path, bytes(blob))

    def test_truncated_footer(self, tmp_path):
        blob = _store_bytes(InvertedIndex({"k": [Posting((0,), 1)]}))
        with pytest.raises(StoreFormatError):
            self._load(tmp_path, bytes(blob[:len(MAGIC_V2) + 3]))

    def test_directory_offset_past_eof(self, tmp_path):
        blob = _store_bytes(InvertedIndex({"k": [Posting((0,), 1)]}))
        for footer in (struct.pack("<QQQI8s", 0, 10_000, 10_000, 0,
                                   TAIL_MAGIC),
                       struct.pack("<QQ8s", 10_000, 5, LEGACY_TAIL_MAGIC)):
            with pytest.raises(StoreFormatError):
                self._load(tmp_path, bytes(blob[:-FOOTER_SIZE]) + footer)

    def test_posting_block_past_eof(self, tmp_path):
        # A directory whose extent points beyond the file body.
        import io

        from repro.index.store import write_varint
        from repro.index.store_v2 import (_encode_directory,
                                          _encode_footer, Extent)
        body = io.BytesIO()
        body.write(MAGIC_V2)
        directory = _encode_directory(
            [[Extent("k", False, 100_000, 30, 3)]])
        offset = body.tell()
        body.write(directory)
        body.write(_encode_footer(0, offset, offset, directory))
        with pytest.raises(StoreFormatError):
            self._load(tmp_path, body.getvalue())

    def test_npost_overflowing_block(self, tmp_path):
        # npost claims more postings than the block could possibly hold.
        import io

        from repro.index.store_v2 import (_encode_directory,
                                          _encode_footer, Extent)
        body = io.BytesIO()
        body.write(MAGIC_V2)
        block = b"\x00\x00\x01"  # one posting: shared=0 extra=0 freq=1
        body.write(block)
        directory = _encode_directory(
            [[Extent("k", False, len(MAGIC_V2), len(block), 500)]])
        offset = body.tell()
        body.write(directory)
        body.write(_encode_footer(0, offset, offset, directory))
        with pytest.raises(StoreFormatError):
            self._load(tmp_path, body.getvalue())

    def test_overflowing_varint_in_directory(self, tmp_path):
        # 10 continuation bytes: shift exceeds 63 -> StoreFormatError.
        import io

        from repro.index.store_v2 import _encode_footer
        body = io.BytesIO()
        body.write(MAGIC_V2)
        directory = b"\xff" * 10 + b"\x7f"
        offset = body.tell()
        body.write(directory)
        body.write(_encode_footer(0, offset, offset, directory))
        with pytest.raises(StoreFormatError):
            self._load(tmp_path, body.getvalue())

    def test_bad_shared_prefix_in_block(self, tmp_path, figure1_index):
        # shared=3 with no previous code must be rejected at decode.
        import io

        from repro.index.store_v2 import (_encode_directory,
                                          _encode_footer, Extent)
        body = io.BytesIO()
        body.write(MAGIC_V2)
        block = b"\x03\x00\x01"  # shared=3 extra=0 freq=1
        body.write(block)
        directory = _encode_directory(
            [[Extent("k", False, len(MAGIC_V2), len(block), 1)]])
        offset = body.tell()
        body.write(directory)
        body.write(_encode_footer(0, offset, offset, directory))
        path = tmp_path / "shared.idx2"
        path.write_bytes(body.getvalue())
        with load_index_v2(path) as lazy:
            with pytest.raises(StoreFormatError):
                lazy.postings("k")

    @given(position=st.integers(min_value=0, max_value=10_000),
           value=st.integers(0, 255))
    def test_single_byte_corruption_never_crashes(self, figure1_tree,
                                                  tmp_path_factory,
                                                  position, value):
        """Flipping any byte must either still open+decode or raise a
        *store* error — never an unhandled crash."""
        path = tmp_path_factory.mktemp("fuzz2") / "f.idx2"
        index = InvertedIndex.from_tree(figure1_tree)
        save_index_v2(index, path)
        blob = bytearray(path.read_bytes())
        position %= len(blob)
        blob[position] = value
        path.write_bytes(bytes(blob))
        try:
            with load_index_v2(path) as lazy:
                for keyword in lazy.keywords():
                    lazy.postings(keyword)
        except (StoreFormatError, MemoryError):
            pass

    def test_append_to_v1_store_rejected(self, figure1_index, tmp_path):
        path = tmp_path / "v1.idx"
        save_index(figure1_index, path)
        assert path.read_bytes().startswith(MAGIC_V1)
        with pytest.raises(StoreFormatError):
            append_segment(path, figure1_index)


def _duplicated_index(copies: int = 8) -> InvertedIndex:
    """``copies`` structurally identical subtrees under distinct roots.

    Every root r carries the same relative postings (a@(0,), a@(1,2),
    b@(1,3)), so the dedup builder must collapse them into one group
    with ``copies`` occurrences."""
    lists: dict[str, list[Posting]] = {}
    for root in range(copies):
        for keyword, rel, freq in (("a", (0,), 1), ("a", (1, 2), 2),
                                   ("b", (1, 3), 1)):
            lists.setdefault(keyword, []).append(
                Posting((root,) + rel, freq))
    return InvertedIndex({
        keyword: sorted(plist, key=lambda posting: posting.code)
        for keyword, plist in lists.items()
    })


class TestDedup:
    """The DAG-deduped layout changes bytes, never answers: flag-3
    blocks must fan back out to the exact plain postings through every
    lifecycle step (load, append, tombstone, merge)."""

    @given(lists=posting_lists)
    def test_dedup_roundtrip(self, tmp_path_factory, lists):
        """load(save_dedup(idx)) == idx for arbitrary posting lists —
        including ones with nothing worth deduplicating."""
        path = tmp_path_factory.mktemp("dedup") / "index.idx2"
        index = _index(lists)
        save_index_v2_dedup(index, path)
        with load_index_v2(path) as lazy:
            assert lazy.raw_postings() == index.raw_postings()

    def test_dedup_store_is_smaller(self):
        index = _duplicated_index(copies=40)
        assert len(encode_index_v2_dedup(index)) < \
            len(encode_index_v2(index))

    def test_find_duplicate_subtrees(self):
        groups = find_duplicate_subtrees(_duplicated_index(copies=8))
        assert len(groups) == 1
        assert groups[0] == tuple((root,) for root in range(8))

    def test_find_duplicate_subtrees_min_postings(self):
        # Each subtree holds 3 postings; a floor above that finds none.
        index = _duplicated_index(copies=8)
        assert find_duplicate_subtrees(index, min_postings=4) == []

    def test_inspect_reports_dedup(self, tmp_path):
        path = tmp_path / "dedup.idx2"
        save_index_v2_dedup(_duplicated_index(), path)
        info = inspect_index(path)
        assert info["dedup_groups"] >= 1
        assert info["dedup_blocks"] >= 1

    def test_fanout_roundtrips_through_merge(self, tmp_path):
        # dedup store --merge--> plain --merge(dedup)--> dedup again;
        # the postings never change.
        index = _duplicated_index()
        path = tmp_path / "cycle.idx2"
        save_index_v2_dedup(index, path)
        merge_index(path)
        assert inspect_index(path)["dedup_blocks"] == 0
        with load_index_v2(path) as lazy:
            assert lazy.raw_postings() == index.raw_postings()
        merge_index(path, dedup=True)
        assert inspect_index(path)["dedup_blocks"] >= 1
        with load_index_v2(path) as lazy:
            assert lazy.raw_postings() == index.raw_postings()

    def test_tombstone_shadows_dedup_postings(self, tmp_path):
        index = _duplicated_index()
        path = tmp_path / "tomb.idx2"
        save_index_v2_dedup(index, path)
        append_tombstones(path, ["a"])
        with load_index_v2(path) as lazy:
            assert lazy.postings("a") == ()
            assert lazy.postings("b") == index.postings("b")
        # Reinsert after the tombstone: only the new postings survive.
        append_segment(path, InvertedIndex({"a": [Posting((9, 9), 7)]}))
        with load_index_v2(path) as lazy:
            assert lazy.postings("a") == (Posting((9, 9), 7),)

    def test_append_sums_into_dedup_base(self, tmp_path):
        index = _duplicated_index()
        path = tmp_path / "sum.idx2"
        save_index_v2_dedup(index, path)
        append_segment(path, InvertedIndex({"a": [Posting((0, 0), 5)]}))
        with load_index_v2(path) as lazy:
            merged = {posting.code: posting.frequency
                      for posting in lazy.postings("a")}
            assert merged[(0, 0)] == 1 + 5

    def test_dedup_counters(self, tmp_path):
        path = tmp_path / "count.idx2"
        with metrics_scope() as registry:
            save_index_v2_dedup(_duplicated_index(), path)
            assert registry.counter("dedup_groups_written") >= 1
            assert registry.counter("dedup_postings_saved") >= 1
        with metrics_scope() as registry:
            with load_index_v2(path) as lazy:
                lazy.postings("a")
            assert registry.counter("dedup_blocks_expanded") >= 1
            assert registry.counter("dedup_postings_expanded") >= 1


class TestDedupCorruption:
    """Adversarial bytes against the flag-2/flag-3 layout: every
    malformed structure stops at StoreFormatError."""

    def _body(self, blocks):
        """Assemble a store from (extent_args, payload) pairs."""
        import io

        from repro.index.store_v2 import (Extent, _encode_directory,
                                          _encode_footer)
        body = io.BytesIO()
        body.write(MAGIC_V2)
        extents = []
        for args, payload in blocks:
            offset = body.tell()
            body.write(payload)
            extents.append(Extent(args[0], False, offset, len(payload),
                                  args[1], kind=args[2]))
        directory = _encode_directory([extents])
        offset = body.tell()
        body.write(directory)
        body.write(_encode_footer(0, offset, offset, directory))
        return body.getvalue()

    def test_table_flag_requires_empty_keyword(self, tmp_path):
        table = encode_subtree_table((((0,),),))
        blob = self._body([(("k", 1, "table"), table)])
        path = tmp_path / "named-table.idx2"
        path.write_bytes(blob)
        with pytest.raises(StoreFormatError):
            load_index_v2(path)

    def test_empty_keyword_requires_table_flag(self, tmp_path):
        blob = self._body([(("", 1, "postings"), b"\x00\x00\x01")])
        path = tmp_path / "anon-postings.idx2"
        path.write_bytes(blob)
        with pytest.raises(StoreFormatError):
            load_index_v2(path)

    def test_dedup_extent_without_table(self, tmp_path):
        block = encode_dedup_block([(0, [Posting((0,), 1)])], [])
        blob = self._body([(("k", 1, "dedup"), block)])
        path = tmp_path / "no-table.idx2"
        path.write_bytes(blob)
        with load_index_v2(path) as lazy:
            with pytest.raises(StoreFormatError):
                lazy.postings("k")

    def test_bad_group_id(self):
        groups = (((0,), (1,)),)  # one group
        block = encode_dedup_block([(3, [Posting((0,), 1)])], [])
        with pytest.raises(StoreFormatError):
            decode_dedup_block(block, 0, len(block), 2, groups)

    def test_expanded_count_mismatch(self):
        groups = (((0,), (1,)),)
        block = encode_dedup_block([(0, [Posting((5,), 1)])], [])
        expanded = decode_dedup_block(block, 0, len(block), 2, groups)
        assert [posting.code for posting in expanded] == [(0, 5), (1, 5)]
        with pytest.raises(StoreFormatError):
            decode_dedup_block(block, 0, len(block), 3, groups)

    def test_table_with_empty_group(self):
        blob = b"\x01\x00\x00\x00"  # ngroups=1, noccur=0, padding
        with pytest.raises(StoreFormatError):
            decode_subtree_table(blob, 0, len(blob))

    def test_table_ngroups_overflow(self):
        blob = b"\xff\x7f"  # ngroups=16383 in a 2-byte block
        with pytest.raises(StoreFormatError):
            decode_subtree_table(blob, 0, len(blob))

    def test_table_trailing_bytes(self):
        table = encode_subtree_table((((0,),),)) + b"\x00"
        with pytest.raises(StoreFormatError):
            decode_subtree_table(table, 0, len(table))

    def test_dedup_nsections_overflow(self):
        blob = b"\xff\x7f"  # nsections=16383 in a 2-byte block
        with pytest.raises(StoreFormatError):
            decode_dedup_block(blob, 0, len(blob), 0, ())

    def test_dedup_nrel_overflow(self):
        # One section claiming more relative postings than fit.
        blob = b"\x01\x00\xff\x7f"
        with pytest.raises(StoreFormatError):
            decode_dedup_block(blob, 0, len(blob), 0, (((0,),),))

    def test_dedup_trailing_bytes(self):
        block = encode_dedup_block([], [Posting((0,), 1)]) + b"\x00"
        with pytest.raises(StoreFormatError):
            decode_dedup_block(block, 0, len(block), 1, ())

    @given(position=st.integers(min_value=0, max_value=10_000),
           value=st.integers(0, 255))
    def test_single_byte_corruption_never_crashes(self, tmp_path_factory,
                                                  position, value):
        """The fuzz guarantee of TestCorruption, over a store whose
        bytes actually exercise flags 2 and 3: any flip either still
        decodes or stops at a *store* error."""
        path = tmp_path_factory.mktemp("dedup-fuzz") / "f.idx2"
        save_index_v2_dedup(_duplicated_index(), path)
        blob = bytearray(path.read_bytes())
        position %= len(blob)
        blob[position] = value
        path.write_bytes(bytes(blob))
        try:
            with load_index_v2(path) as lazy:
                for keyword in lazy.keywords():
                    lazy.postings(keyword)
        except (StoreFormatError, MemoryError):
            pass


#: Rebuilds ``argv[1]`` in place with the writer named ``argv[2]``
#: while a LazyIndex still maps the old file, then reads every keyword
#: (last first, so the reads land beyond the new, smaller file's end)
#: through the old handle.
_REWRITE_UNDER_READER = """
import sys
from importlib import import_module
from repro.datasets.dblp import generate_dblp
from repro.index.inverted import InvertedIndex
from repro.index.store_v2 import load_index_v2, save_index_v2

path = sys.argv[1]
module, writer = sys.argv[2].rsplit(".", 1)
full = InvertedIndex.from_tree(generate_dblp(scale=200, seed=1).tree)
save_index_v2(full, path)
expected = dict(full.raw_postings())
with load_index_v2(path) as old:
    first = min(expected)
    assert old.raw_postings()[first] == expected[first]
    getattr(import_module(module), writer)(
        InvertedIndex({first: list(expected[first])}), path)
    for keyword in sorted(expected, reverse=True):
        assert old.raw_postings()[keyword] == expected[keyword], keyword
print("old answers", len(expected))
"""


class TestRewriteUnderReader:
    @pytest.mark.parametrize("writer", [
        "repro.index.store_v2.save_index_v2",
        "repro.index.store_v2.save_index_v2_dedup",
        "repro.index.store.save_index",
    ])
    def test_rebuild_in_place_keeps_the_open_reader_alive(
            self, tmp_path, writer):
        """Rebuilding a store an open LazyIndex maps must not truncate
        the mapped file: a truncating write makes the old handle read
        garbage or die of SIGBUS.  The reader runs in a subprocess so
        a signal fails this test instead of killing the suite."""
        import subprocess
        import sys

        import repro
        src = str(next(iter(repro.__path__)) + "/..")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv.pop())\n"
             + _REWRITE_UNDER_READER,
             str(tmp_path / "dblp.ckx"), writer, src],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
        assert proc.stdout.startswith("old answers")
        assert not list(tmp_path.glob("*.tmp"))
        # the path now holds the one-keyword rebuild
        rebuilt = open_index(tmp_path / "dblp.ckx")
        try:
            assert len(rebuilt) == 1
        finally:
            getattr(rebuilt, "close", lambda: None)()


def _lists(index) -> dict:
    """keyword → posting tuple, for keyword-by-keyword comparison."""
    try:
        return {keyword: tuple(plist)
                for keyword, plist in index.raw_postings().items()}
    finally:
        getattr(index, "close", lambda: None)()


def _segment(number: int) -> dict:
    """A small segment: one keyword of its own and one shared one."""
    return {f"only{number}": [Posting((number, 1), 1)],
            "shared": [Posting((number, 2), 2), Posting((number, 3), 1)]}


def _union(*parts) -> dict:
    merged = InvertedIndex({})
    for part in parts:
        merged = merged.merged_with(InvertedIndex(part))
    return {keyword: tuple(plist)
            for keyword, plist in merged.raw_postings().items()}


class TestCrashRecovery:
    """An append is payload, directory, footer; a crash or a flipped
    byte anywhere in it must leave the pre-append index, never wrong
    postings."""

    @pytest.fixture
    def chain(self, tmp_path):
        """A base and one delta (``pre``), then a second append whose
        bytes are the region under test."""
        path = tmp_path / "chain.idx2"
        save_index_v2(InvertedIndex(_segment(0)), path)
        append_segment(path, _segment(1))
        pre = path.read_bytes()
        append_segment(path, _segment(2))
        post = path.read_bytes()
        assert post.startswith(pre)
        return path, pre, post

    def test_truncation_at_every_offset_opens_the_pre_append_index(
            self, chain):
        path, pre, post = chain
        before = _union(_segment(0), _segment(1))
        after = _union(before, _segment(2))
        for cut in range(len(pre), len(post) + 1):
            path.write_bytes(post[:cut])
            expected = after if cut == len(post) else before
            assert _lists(open_index(path)) == expected, cut

    def test_flipping_any_append_byte_opens_the_pre_append_index(
            self, chain):
        path, pre, post = chain
        before = _union(_segment(0), _segment(1))
        for position in range(len(pre), len(post)):
            blob = bytearray(post)
            blob[position] ^= 0xFF
            path.write_bytes(bytes(blob))
            assert _lists(open_index(path)) == before, position

    def test_append_after_a_torn_tail(self, chain):
        path, pre, post = chain
        for cut in (len(pre) + 1, (len(pre) + len(post)) // 2,
                    len(post) - 1):
            path.write_bytes(post[:cut])
            append_segment(path, _segment(3))
            assert _lists(open_index(path)) == _union(
                _segment(0), _segment(1), _segment(3)), cut
            report = inspect_index(path)
            assert report["dead_bytes"] == cut - len(pre)
            assert report["chain_length"] == 3
            verify_index(path)

    def test_corrupt_delta_below_a_valid_footer_raises(self, chain):
        path, pre, post = chain
        blob = bytearray(post)
        blob[len(pre) - FOOTER_SIZE - 1] ^= 0xFF  # delta 1's directory
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreFormatError, match="below"):
            open_index(path)
        # an append reads only the newest record, so it lands; the
        # chain below it stays broken rather than being cut short
        append_segment(path, _segment(3))
        with pytest.raises(StoreFormatError, match="below"):
            open_index(path)

    def test_corrupt_base_footer_with_nothing_older_raises(self, tmp_path):
        path = tmp_path / "base.idx2"
        save_index_v2(InvertedIndex(_segment(0)), path)
        blob = bytearray(path.read_bytes())
        blob[-FOOTER_SIZE] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreFormatError):
            open_index(path)


def _legacy_store(*segments) -> bytes:
    """A store in the first layout, as the parent format's appends left
    it: per segment, its payload, a full directory of every segment so
    far and a 24-byte ``CKS2TAIL`` footer without a CRC."""
    import io

    from repro.index.store_v2 import Extent, _encode_directory
    body = io.BytesIO()
    body.write(MAGIC_V2)
    directory = []
    for number, postings in enumerate(segments):
        extents = []
        for keyword in sorted(postings):
            block = encode_posting_block(postings[keyword])
            extents.append(Extent(keyword, False, body.tell(), len(block),
                                  len(postings[keyword]),
                                  segment=number))
            body.write(block)
        directory.append(extents)
        encoded = _encode_directory(directory)
        offset = body.tell()
        body.write(encoded)
        body.write(struct.pack("<QQ8s", offset, len(encoded),
                               LEGACY_TAIL_MAGIC))
    return body.getvalue()


class TestLegacyLayout:
    """Stores written before the directory chain existed open, accept
    appends and merge unchanged."""

    def test_open_append_merge(self, tmp_path):
        path = tmp_path / "legacy.idx2"
        path.write_bytes(_legacy_store(_segment(0), _segment(1)))
        assert _lists(open_index(path)) == _union(_segment(0), _segment(1))
        report = inspect_index(path)
        assert report["segments"] == 2
        assert report["chain_length"] == 1
        # the first full directory and its footer are dead
        assert report["dead_bytes"] > 0
        append_segment(path, _segment(2))
        expected = _union(_segment(0), _segment(1), _segment(2))
        assert _lists(open_index(path)) == expected
        assert inspect_index(path)["chain_length"] == 2
        verify_index(path)
        merge_index(path)
        assert _lists(open_index(path)) == expected
        report = inspect_index(path)
        assert (report["segments"], report["chain_length"],
                report["dead_bytes"]) == (1, 1, 0)

    def test_torn_legacy_tail_falls_back_to_the_older_full_directory(
            self, tmp_path):
        path = tmp_path / "legacy.idx2"
        blob = _legacy_store(_segment(0), _segment(1))
        path.write_bytes(blob[:-3])
        assert _lists(open_index(path)) == _union(_segment(0))
        append_segment(path, _segment(2))
        assert _lists(open_index(path)) == _union(_segment(0), _segment(2))


class TestInspectChain:
    def test_fresh_store_has_no_dead_bytes_after_appends(self, tmp_path):
        path = tmp_path / "fresh.idx2"
        save_index_v2(InvertedIndex(_segment(0)), path)
        for number in range(1, 6):
            append_segment(path, _segment(number))
            report = inspect_index(path)
            assert report["dead_bytes"] == 0
            assert report["chain_length"] == number + 1
            assert report["segments"] == number + 1

    def test_torn_tail_is_dead_bytes(self, tmp_path):
        path = tmp_path / "torn.idx2"
        save_index_v2(InvertedIndex(_segment(0)), path)
        append_segment(path, _segment(1))
        with open(path, "ab") as out:
            out.write(b"\x01" * 17)
        report = inspect_index(path)
        assert report["dead_bytes"] == 17
        assert report["chain_length"] == 2

    def test_tombstoned_blocks_are_dead_bytes(self, tmp_path):
        path = tmp_path / "tomb.idx2"
        save_index_v2(InvertedIndex(_segment(0)), path)
        append_tombstones(path, ["only0"])
        with load_index_v2(path) as lazy:
            assert "only0" not in lazy.keywords()
        assert inspect_index(path)["dead_bytes"] == len(
            encode_posting_block(_segment(0)["only0"]))


class TestVerify:
    def test_good_store(self, tmp_path):
        path = tmp_path / "good.idx2"
        save_index_v2_dedup(_duplicated_index(), path)
        append_segment(path, _segment(1))
        report = verify_index(path)
        assert (report["records"], report["segments"]) == (2, 2)
        with load_index_v2(path) as lazy:
            assert report["postings"] == sum(
                len(lazy.postings(keyword)) for keyword in lazy.keywords())

    def test_torn_tail_fails_verify_but_opens(self, tmp_path):
        path = tmp_path / "torn.idx2"
        save_index_v2(InvertedIndex(_segment(0)), path)
        with open(path, "ab") as out:
            out.write(b"\x00" * 5)
        with pytest.raises(StoreFormatError, match="torn"):
            verify_index(path)
        assert _lists(open_index(path)) == _union(_segment(0))

    def test_undecodable_block_fails_verify(self, tmp_path):
        # shared=3 with no previous code: the directory is sound, the
        # block is not — only a decode finds it.
        import io

        from repro.index.store_v2 import (Extent, _encode_directory,
                                          _encode_footer)
        body = io.BytesIO()
        body.write(MAGIC_V2)
        body.write(b"\x03\x00\x01")
        directory = _encode_directory(
            [[Extent("k", False, len(MAGIC_V2), 3, 1)]])
        offset = body.tell()
        body.write(directory)
        body.write(_encode_footer(0, offset, offset, directory))
        path = tmp_path / "block.idx2"
        path.write_bytes(body.getvalue())
        with pytest.raises(StoreFormatError, match="shared prefix"):
            verify_index(path)

    def test_v1_store(self, figure1_index, tmp_path):
        path = tmp_path / "v1.idx"
        save_index(figure1_index, path)
        assert verify_index(path)["keywords"] == len(figure1_index)


class TestConcurrentWriters:
    def test_two_threads_append_concurrently(self, tmp_path):
        import threading

        path = tmp_path / "shared.idx2"
        save_index_v2(InvertedIndex(_segment(0)), path)
        numbers = (range(1, 21), range(21, 41))

        def writer(mine):
            for number in mine:
                append_segment(path, _segment(number))

        threads = [threading.Thread(target=writer, args=(mine,))
                   for mine in numbers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert _lists(open_index(path)) == _union(
            *(_segment(number) for number in range(41)))
        assert inspect_index(path)["chain_length"] == 41
        verify_index(path)

    def test_append_racing_merge_loses_no_segment(self, tmp_path):
        import threading

        path = tmp_path / "raced.idx2"
        save_index_v2(InvertedIndex(_segment(0)), path)
        done = threading.Event()
        merges = []

        def merger():
            while not done.is_set():
                merge_index(path)
                merges.append(1)

        thread = threading.Thread(target=merger)
        thread.start()
        try:
            for number in range(1, 31):
                append_segment(path, _segment(number))
        finally:
            done.set()
            thread.join()
        assert merges
        assert _lists(open_index(path)) == _union(
            *(_segment(number) for number in range(31)))
