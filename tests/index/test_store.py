"""Tests for the binary posting store (format + round trips)."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StoreFormatError
from repro.index.inverted import InvertedIndex, Posting
from repro.index.store import (MAGIC, load_index, read_varint, save_index,
                               write_varint)


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**60))
    def test_roundtrip(self, value):
        buffer = io.BytesIO()
        write_varint(buffer, value)
        buffer.seek(0)
        assert read_varint(buffer) == value

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_varint(io.BytesIO(), -1)

    def test_truncated_raises(self):
        with pytest.raises(StoreFormatError):
            read_varint(io.BytesIO(b"\x80"))

    def test_small_values_one_byte(self):
        buffer = io.BytesIO()
        write_varint(buffer, 127)
        assert len(buffer.getvalue()) == 1


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


class TestStoreRoundtrip:
    @given(lists=posting_lists)
    def test_roundtrip(self, tmp_path_factory, lists):
        path = tmp_path_factory.mktemp("store") / "index.bin"
        index = InvertedIndex({
            keyword: [Posting(code, freq) for code, freq in pairs]
            for keyword, pairs in lists.items()
        })
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.raw_postings() == index.raw_postings()

    def test_roundtrip_from_tree(self, figure1_tree, tmp_path):
        index = InvertedIndex.from_tree(figure1_tree)
        path = tmp_path / "fig1.bin"
        written = save_index(index, path)
        assert written == path.stat().st_size
        loaded = load_index(path)
        assert loaded.raw_postings() == index.raw_postings()

    def test_front_coding_compresses(self, figure1_tree, tmp_path):
        # Dewey codes share long prefixes; the store should be much
        # smaller than a naive textual dump.
        index = InvertedIndex.from_tree(figure1_tree)
        written = save_index(index, tmp_path / "c.bin")
        naive = sum(
            len(keyword) + sum(4 * (len(p.code) + 1) for p in plist)
            for keyword, plist in index.raw_postings().items())
        assert written < naive


class TestCorruptionFuzz:
    @given(position=st.integers(min_value=0, max_value=10_000),
           value=st.integers(0, 255))
    def test_single_byte_corruption_never_crashes(self, figure1_tree,
                                                  tmp_path_factory,
                                                  position, value):
        """Flipping any byte must either still decode (the byte may be
        unused or coincidentally valid) or raise a *store* error — never
        an unhandled crash."""
        path = tmp_path_factory.mktemp("fuzz") / "f.bin"
        index = InvertedIndex.from_tree(figure1_tree)
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        position %= len(blob)
        blob[position] = value
        path.write_bytes(bytes(blob))
        try:
            load_index(path)
        except (StoreFormatError, UnicodeDecodeError, MemoryError):
            pass


class TestStoreErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTANIDX" + b"\x00")
        with pytest.raises(StoreFormatError):
            load_index(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "trail.bin"
        index = InvertedIndex({"k": [Posting((0,))]})
        save_index(index, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(StoreFormatError):
            load_index(path)

    def test_truncated_keyword(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(MAGIC + b"\x01" + b"\x05ab")
        with pytest.raises(StoreFormatError):
            load_index(path)

    def test_bad_shared_prefix(self, tmp_path):
        # shared=3 with no previous code must be rejected.
        path = tmp_path / "shared.bin"
        path.write_bytes(MAGIC + b"\x01" + b"\x01k" + b"\x01" +
                         b"\x03\x00\x01")
        with pytest.raises(StoreFormatError):
            load_index(path)


class TestReplaceFile:
    @pytest.mark.parametrize("writer", ["v1", "v2"])
    def test_concurrent_saves_both_leave_a_valid_store(self, tmp_path,
                                                       writer):
        """Two writers saving over one path each use their own temp
        file, so every replace installs a whole store."""
        import threading

        from repro.index.store_v2 import open_index, save_index_v2
        save = save_index if writer == "v1" else save_index_v2
        path = tmp_path / "shared.idx"
        indexes = [InvertedIndex({f"k{number}": [Posting((number,), 1)]})
                   for number in range(2)]
        errors = []

        def saver(index):
            try:
                for _ in range(30):
                    save(index, path)
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=saver, args=(index,))
                   for index in indexes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        opened = open_index(path)
        try:
            assert dict(opened.raw_postings()) in [
                dict(index.raw_postings()) for index in indexes]
        finally:
            getattr(opened, "close", lambda: None)()
        assert list(tmp_path.iterdir()) == [path]
