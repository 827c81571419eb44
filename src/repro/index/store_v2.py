"""CKSIDX2: the mmap-backed, segmented, lazily-decoded posting store.

The v1 format (:mod:`repro.index.store`) interleaves keywords and
posting blocks, so :func:`~repro.index.store.load_index` must decode the
*whole* file before the first query — cold-start cost scales with the
index even when a query touches two keywords.  CKSIDX2 separates data
from metadata: posting blocks (front-coded exactly as in v1) sit in the
body, and a *directory* at the end of the file maps every keyword to its
``(offset, length, npost)`` extent.  :func:`load_index_v2` memory-maps
the file, parses only the directory, and returns a :class:`LazyIndex`
that decodes a keyword's block on first access.

Incremental updates are append-only *segments*: :func:`append_segment`
writes a new payload of posting blocks after the current end of file,
then a *delta* directory holding only the new segment's extents, then a
footer that points back at the previous footer.  The directory is thus
a chain of records — one *base* (the full directory a whole-file writer
or :func:`merge_index` produces) followed by zero or more deltas — and
an append costs the size of its segment, never the size of the index.
A segment entry may also be a *tombstone* (:func:`append_tombstones`),
which shadows every older segment's postings for that keyword.

Layout::

    magic      8 bytes  b"CKSIDX2\\n"
    base record         payload* directory footer
    delta record*       payload* directory footer    # one per append

    footer    36 bytes  prev u64 LE        # end of the previous record's
                                           # footer; 0 for the base
                        | start u64 LE     # first byte the CRC covers
                        | dir_offset u64 LE
                        | crc u32 LE       # zlib.crc32 over
                                           # [start, footer) + the three
                                           # fields above
                        | b"CKS2LOG1"

    A base's CRC starts at its directory (its payload is read lazily
    and is not checked at open); a delta's starts at its payload, so a
    torn or flipped byte anywhere in an append fails the CRC.  The
    first layout's footer — dir_offset u64 LE | dir_length u64 LE |
    b"CKS2TAIL", 24 bytes, no CRC, one full directory — is still read
    as a base, so stores written before the chain existed open and
    accept appends unchanged.

    directory (of a base or a delta):
        nseg varint                       # segments, oldest first
        per segment:
            nkw varint
            per keyword (sorted):
                klen varint, key bytes (UTF-8)
                flag varint               # 0 postings, 1 tombstone,
                                          # 2 subtree table, 3 dedup
                offset varint             # absolute file offset,
                                          # inside the record's payload
                length varint             # block length in bytes
                npost varint              # postings in the block
                                          # (flag 2: dedup groups;
                                          #  flag 3: EXPANDED postings)

    posting block (same front coding as v1, npost lives in the
    directory):
        per posting:
            shared varint   # prefix steps shared with previous code
            extra  varint   # number of new steps
            step*  varint   # the new steps
            freq   varint

**Subtree deduplication** (the DAG compression of the flat kernel):
:func:`save_index_v2_dedup` detects repeated subtrees — Dewey prefixes
whose *entire* relative posting contents are identical — and stores
each distinct subtree's postings once.  A dedup segment carries one
*subtree table* extent (flag 2) under the reserved empty keyword
``""`` listing, per group, every occurrence prefix; keywords whose
postings fall inside a group use a *dedup* extent (flag 3) that stores
the postings relative to the group root, once, plus any residual
(un-grouped) postings.  Readers expand a dedup block by fanning the
relative postings out under every occurrence prefix, so a deduped
store decodes to byte-identical posting tuples.

    subtree table block (flag 2, keyword ""):
        ngroups varint
        per group:
            noccur varint
            per occurrence (sorted; front coding resets per group):
                shared varint, extra varint, step* varint

    dedup posting block (flag 3):
        nsections varint
        per section:
            group varint    # index into the segment's subtree table
            nrel varint     # relative postings stored once
            rel posting*    # front-coded; coding resets per section
        nresidual varint
        residual posting*   # front-coded; coding resets

Readers take the footer at EOF and walk the ``prev`` chain back to the
base.  A footer at EOF that is torn or fails its CRC (a crash mid-append)
falls back to the newest earlier footer that verifies; a record below a
valid footer that fails its CRC is an error, never silently dropped.
See docs/INDEX_FORMAT.md for the full specification and lifecycle.
"""

from __future__ import annotations

import fcntl
import io
import mmap
import os
import re
import struct
import zlib
from collections.abc import Mapping as MappingABC
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import (Iterable, Mapping, NamedTuple, Optional, Sequence,
                    Union)

from repro.errors import StoreFormatError
from repro.index.inverted import InvertedIndex, Posting
from repro.index.store import MAGIC as MAGIC_V1
from repro.index.store import load_index as _load_index_v1
from repro.index.store import replace_file, write_varint
from repro.index.tokenizer import Tokenizer, default_tokenizer
from repro.obs import get_logger, get_metrics
from repro.tree import dewey

MAGIC_V2 = b"CKSIDX2\n"
#: Tail magic of a chained record's footer (see the module docstring).
TAIL_MAGIC = b"CKS2LOG1"
_FOOTER_STRUCT = struct.Struct("<QQQI8s")
_FOOTER_FIELDS = struct.Struct("<QQQ")  # the CRC'd prefix of a footer
FOOTER_SIZE = _FOOTER_STRUCT.size
#: The first layout's footer: one full directory and no CRC.  Read as a
#: chain base; never written.
LEGACY_TAIL_MAGIC = b"CKS2TAIL"
_LEGACY_FOOTER_STRUCT = struct.Struct("<QQ8s")
LEGACY_FOOTER_SIZE = _LEGACY_FOOTER_STRUCT.size

_log = get_logger("index.store_v2")

PathLike = Union[str, Path]

#: Counter catalogue of the v2 store (see docs/INDEX_FORMAT.md).
STORE_V2_COUNTERS = (
    "index_open_v1",
    "index_open_v2",
    "posting_decode_blocks",
    "posting_decode_postings",
    "posting_decode_bytes",
    "posting_decode_cache_hits",
    "segment_appends",
    "segment_tombstones",
    "segment_merges",
    "dedup_groups_written",
    "dedup_postings_saved",
    "dedup_blocks_expanded",
    "dedup_postings_expanded",
)

#: The reserved directory key of a segment's subtree table (flag 2).
#: The empty string can never be a real keyword — tokenizers drop
#: empty tokens — so the table never shadows postings.
TABLE_KEYWORD = ""

#: Directory extent flags (see the module docstring's layout).
_FLAG_POSTINGS = 0
_FLAG_TOMBSTONE = 1
_FLAG_TABLE = 2
_FLAG_DEDUP = 3

_KIND_BY_FLAG = {
    _FLAG_POSTINGS: "postings",
    _FLAG_TOMBSTONE: "tombstone",
    _FLAG_TABLE: "table",
    _FLAG_DEDUP: "dedup",
}
_FLAG_BY_KIND = {kind: flag for flag, kind in _KIND_BY_FLAG.items()}

#: Gauge catalogue of the v2 store: decoded-block residency of the
#: lazy posting cache (see docs/OBSERVABILITY.md).
STORE_V2_GAUGES = (
    "index_decoded_blocks",
    "index_decoded_bytes",
)


# -- varint reading over a buffer ------------------------------------------

def _read_varint_at(buffer, position: int, end: int) -> tuple[int, int]:
    """Read an LEB128 varint from ``buffer[position:end]``.

    Returns ``(value, next_position)``; raises
    :class:`~repro.errors.StoreFormatError` on truncation or overflow.
    """
    result = 0
    shift = 0
    while True:
        if position >= end:
            raise StoreFormatError("truncated varint")
        byte = buffer[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 63:
            raise StoreFormatError("varint too long")


# -- posting blocks ---------------------------------------------------------

def _write_front_coded(buffer: io.BytesIO, previous: Sequence[int],
                       code: Sequence[int]) -> None:
    """Write ``code`` front-coded against ``previous``: the longest
    shared prefix, the number of new steps, the new steps."""
    shared = 0
    for a, b in zip(previous, code):
        if a != b:
            break
        shared += 1
    write_varint(buffer, shared)
    write_varint(buffer, len(code) - shared)
    for step in code[shared:]:
        write_varint(buffer, step)


def encode_posting_block(plist: Sequence[Posting]) -> bytes:
    """Front-code one posting list (the v1 body encoding, sans count)."""
    buffer = io.BytesIO()
    previous: tuple[int, ...] = ()
    for posting in plist:
        _write_front_coded(buffer, previous, posting.code)
        write_varint(buffer, posting.frequency)
        previous = posting.code
    return buffer.getvalue()


def _decode_postings(data, position: int,
                     npost: int) -> tuple[list[Posting], int]:
    """Decode ``npost`` front-coded postings starting at ``position``.

    ``data`` ends where the block ends (a slice, never the whole map):
    reading past it is a truncated varint.  Returns ``(postings,
    next_position)``.  Front coding starts fresh (the first posting
    must carry its full code).  Cold reads and merges spend their time
    here, so single-byte varints (nearly every count, step and
    frequency) are read inline.
    """
    end = len(data)
    read = _read_varint_at
    postings: list[Posting] = []
    append = postings.append
    previous: tuple[int, ...] = ()
    try:
        for _ in range(npost):
            shared = data[position]
            if shared < 0x80:
                position += 1
            else:
                shared, position = read(data, position, end)
            if shared > len(previous):
                raise StoreFormatError(
                    f"shared prefix {shared} longer than previous code")
            extra = data[position]
            if extra < 0x80:
                position += 1
            else:
                extra, position = read(data, position, end)
            steps = []
            for _ in range(extra):
                step = data[position]
                if step < 0x80:
                    position += 1
                else:
                    step, position = read(data, position, end)
                steps.append(step)
            code = previous[:shared] + tuple(steps)
            frequency = data[position]
            if frequency < 0x80:
                position += 1
            else:
                frequency, position = read(data, position, end)
            append(Posting(code, frequency))
            previous = code
    except IndexError:  # an inline read ran off the block
        raise StoreFormatError("truncated varint") from None
    return postings, position


def decode_posting_block(buffer, start: int, length: int,
                         npost: int) -> tuple[Posting, ...]:
    """Decode a front-coded block of exactly ``npost`` postings.

    ``buffer`` may be any byte-indexable object (bytes, mmap).  The
    block must consume exactly ``length`` bytes.
    """
    postings, position = _decode_postings(buffer[start:start + length],
                                          0, npost)
    if position != length:
        raise StoreFormatError("trailing bytes after posting block")
    return tuple(postings)


#: A continuation byte followed by a zero byte: the last byte of a
#: varint written longer than it needs to be (``0x80 0x00`` for 0).
_NON_MINIMAL_VARINT = re.compile(rb"[\x80-\xff]\x00")


def _walk_canonical(data: bytes, npost: int
                    ) -> Optional[tuple[Optional[tuple[int, ...]], int,
                                        tuple[int, ...]]]:
    """Check a posting block as :func:`decode_posting_block` does,
    without building its postings.

    ``data`` is exactly the block.  Raises
    :class:`~repro.errors.StoreFormatError` on the faults the decode
    raises on: a truncated varint or one of more than ten bytes, a
    shared prefix longer than the previous code, too few postings or
    trailing bytes.
    Returns ``None`` if the block is not *canonical*, i.e. not what
    :func:`encode_posting_block` writes for its decoded postings: a
    varint is longer than it needs to be, or a code is not strictly
    above the previous one, or shares less of it than it could.
    Otherwise returns the first code (``None`` for an empty block), the
    offset of the first posting's frequency and the last code.  Only
    the current code is kept, and single-byte varints are read inline.
    """
    if _NON_MINIMAL_VARINT.search(data) is not None:
        return None
    end = len(data)
    read = _read_varint_at
    code: list[int] = []
    first: Optional[tuple[int, ...]] = None
    frequency_at = position = 0
    try:
        for number in range(npost):
            shared = data[position]
            if shared < 0x80:
                position += 1
            else:
                shared, position = read(data, position, end)
            if shared > len(code):
                raise StoreFormatError(
                    f"shared prefix {shared} longer than previous code")
            extra = data[position]
            if extra < 0x80:
                position += 1
            else:
                extra, position = read(data, position, end)
            if extra:
                step = data[position]
                if step < 0x80:
                    position += 1
                else:
                    step, position = read(data, position, end)
                if shared < len(code):
                    # A first new step equal to the previous code's
                    # would extend the shared prefix; a smaller one
                    # sorts the code below its predecessor.
                    if step <= code[shared]:
                        return None
                    del code[shared:]
                code.append(step)
                for _ in range(extra - 1):
                    step = data[position]
                    if step < 0x80:
                        position += 1
                    else:
                        step, position = read(data, position, end)
                    code.append(step)
            elif number:  # a prefix of (or equal to) its predecessor
                return None
            if not number:
                first = tuple(code)
                frequency_at = position
            if data[position] < 0x80:
                position += 1
            else:
                _, position = read(data, position, end)
    except IndexError:  # an inline read ran off the block
        raise StoreFormatError("truncated varint") from None
    if position != end:
        raise StoreFormatError("trailing bytes after posting block")
    return first, frequency_at, tuple(code)


# -- subtree deduplication codecs -------------------------------------------

def encode_subtree_table(groups: Sequence[Sequence[dewey.Code]]) -> bytes:
    """Encode the subtree table: per group, its occurrence prefixes."""
    buffer = io.BytesIO()
    write_varint(buffer, len(groups))
    for occurrences in groups:
        write_varint(buffer, len(occurrences))
        previous: Sequence[int] = ()
        for code in occurrences:
            _write_front_coded(buffer, previous, code)
            previous = code
    return buffer.getvalue()


def decode_subtree_table(buffer, start: int, length: int
                         ) -> tuple[tuple[dewey.Code, ...], ...]:
    """Decode a flag-2 subtree table block.

    Every structural count is validated against the remaining bytes
    before any allocation, so a corrupt count raises
    :class:`~repro.errors.StoreFormatError` instead of ballooning.
    """
    end = start + length
    position = start
    ngroups, position = _read_varint_at(buffer, position, end)
    if ngroups * 3 > length:
        raise StoreFormatError(
            f"{ngroups} subtree groups cannot fit in {length} bytes")
    groups: list[tuple[dewey.Code, ...]] = []
    for _ in range(ngroups):
        noccur, position = _read_varint_at(buffer, position, end)
        if noccur < 1:
            raise StoreFormatError("subtree group with no occurrences")
        if noccur * 2 > end - position:
            raise StoreFormatError(
                f"{noccur} occurrences cannot fit in the subtree table")
        occurrences: list[dewey.Code] = []
        previous: tuple[int, ...] = ()
        for _ in range(noccur):
            shared, position = _read_varint_at(buffer, position, end)
            if shared > len(previous):
                raise StoreFormatError(
                    f"shared prefix {shared} longer than previous "
                    "occurrence")
            extra, position = _read_varint_at(buffer, position, end)
            steps = []
            for _ in range(extra):
                step, position = _read_varint_at(buffer, position, end)
                steps.append(step)
            code = previous[:shared] + tuple(steps)
            occurrences.append(code)
            previous = code
        groups.append(tuple(occurrences))
    if position != end:
        raise StoreFormatError("trailing bytes after subtree table")
    return tuple(groups)


def encode_dedup_block(sections: Sequence[tuple[int, Sequence[Posting]]],
                       residual: Sequence[Posting]) -> bytes:
    """Encode a flag-3 dedup posting block (see the module docstring)."""
    buffer = io.BytesIO()
    write_varint(buffer, len(sections))
    for group_id, relative in sections:
        write_varint(buffer, group_id)
        block = encode_posting_block(relative)
        write_varint(buffer, len(relative))
        buffer.write(block)
    write_varint(buffer, len(residual))
    buffer.write(encode_posting_block(residual))
    return buffer.getvalue()


def decode_dedup_block(buffer, start: int, length: int, npost: int,
                       groups: Sequence[Sequence[dewey.Code]]
                       ) -> tuple[Posting, ...]:
    """Decode a flag-3 block, fanning grouped postings back out.

    ``groups`` is the owning segment's decoded subtree table; every
    section's relative postings are replicated under each of its
    group's occurrence prefixes.  The expanded posting count must
    equal the directory's ``npost`` — a mismatch means the table and
    the block disagree, i.e. corruption.
    """
    data = buffer[start:start + length]
    end = len(data)
    nsections, position = _read_varint_at(data, 0, end)
    if nsections * 2 > length:
        raise StoreFormatError(
            f"{nsections} dedup sections cannot fit in {length} bytes")
    expanded: list[Posting] = []
    for _ in range(nsections):
        group_id, position = _read_varint_at(data, position, end)
        if group_id >= len(groups):
            raise StoreFormatError(
                f"dedup section references group {group_id} but the "
                f"subtree table has {len(groups)} group(s)")
        nrel, position = _read_varint_at(data, position, end)
        if nrel * 3 > end - position:
            raise StoreFormatError(
                f"{nrel} relative postings cannot fit in the dedup block")
        relative, position = _decode_postings(data, position, nrel)
        for prefix in groups[group_id]:
            for posting in relative:
                expanded.append(Posting(prefix + posting.code,
                                        posting.frequency))
    nresidual, position = _read_varint_at(data, position, end)
    if nresidual * 3 > end - position:
        raise StoreFormatError(
            f"{nresidual} residual postings cannot fit in the dedup "
            "block")
    residual, position = _decode_postings(data, position, nresidual)
    if position != end:
        raise StoreFormatError("trailing bytes after dedup block")
    expanded.extend(residual)
    expanded.sort(key=lambda posting: posting.code)
    if len(expanded) != npost:
        raise StoreFormatError(
            f"dedup block expanded to {len(expanded)} postings; the "
            f"directory says {npost}")
    return tuple(expanded)


# -- the directory ----------------------------------------------------------

class _ExtentFields(NamedTuple):
    keyword: str
    tombstone: bool
    offset: int
    length: int
    npost: int
    kind: str = ""
    segment: int = 0


class Extent(_ExtentFields):
    """One directory entry: where a keyword's block lives in one segment.

    ``kind`` distinguishes the four extent flavors (``postings``,
    ``tombstone``, ``table``, ``dedup``); when omitted it is inferred
    from ``tombstone`` so the historical five-argument constructor
    keeps working.  ``segment`` is the index of the owning segment —
    a dedup extent resolves its group ids against *its own* segment's
    subtree table, never another segment's.

    A named tuple rather than a frozen dataclass because an open builds
    one per directory entry: the directory parser, which always knows
    the kind, builds them with ``Extent._make`` at a third of a frozen
    dataclass's cost.
    """

    __slots__ = ()

    def __new__(cls, keyword: str, tombstone: bool, offset: int,
                length: int, npost: int, kind: str = "",
                segment: int = 0) -> "Extent":
        if not kind:
            kind = "tombstone" if tombstone else "postings"
        elif kind == "tombstone":
            tombstone = True
        return super().__new__(cls, keyword, tombstone, offset, length,
                               npost, kind, segment)


def _encode_segment_payload(postings: Mapping[str, Sequence[Posting]],
                            base_offset: int,
                            tombstones: Iterable[str] = ()
                            ) -> tuple[bytes, list[Extent]]:
    """Encode one segment's blocks; extents carry absolute offsets."""
    payload = io.BytesIO()
    extents: list[Extent] = []
    entries: dict[str, Optional[Sequence[Posting]]] = {
        keyword: plist for keyword, plist in postings.items()}
    for keyword in tombstones:
        entries[keyword] = None
    for keyword in sorted(entries):
        plist = entries[keyword]
        if plist is None:
            extents.append(Extent(keyword, True, 0, 0, 0))
            continue
        block = encode_posting_block(
            sorted(plist, key=lambda posting: posting.code))
        extents.append(Extent(keyword, False,
                              base_offset + payload.tell(),
                              len(block), len(plist)))
        payload.write(block)
    return payload.getvalue(), extents


def _encode_directory(segments: Sequence[Sequence[Extent]]) -> bytes:
    buffer = io.BytesIO()
    write_varint(buffer, len(segments))
    for extents in segments:
        write_varint(buffer, len(extents))
        for extent in extents:
            encoded = extent.keyword.encode("utf-8")
            write_varint(buffer, len(encoded))
            buffer.write(encoded)
            write_varint(buffer, _FLAG_BY_KIND[extent.kind])
            write_varint(buffer, extent.offset)
            write_varint(buffer, extent.length)
            write_varint(buffer, extent.npost)
    return buffer.getvalue()


def _encode_footer(prev: int, start: int, dir_offset: int,
                   covered: bytes) -> bytes:
    """A record's footer; ``covered`` is the bytes ``[start, footer)``."""
    fields = _FOOTER_FIELDS.pack(prev, start, dir_offset)
    crc = zlib.crc32(fields, zlib.crc32(covered))
    return _FOOTER_STRUCT.pack(prev, start, dir_offset, crc, TAIL_MAGIC)


@dataclass(frozen=True)
class _Record:
    """One verified directory record of the chain: a base or a delta.

    ``prev`` is where the previous record ends (0 for a base),
    ``low`` the first byte its extents may point at, and
    ``[dir_offset, dir_end)`` its directory; its footer ends at ``end``.
    """

    prev: int
    low: int
    dir_offset: int
    dir_end: int
    end: int


def _record_ending_at(buffer, end: int) -> _Record:
    """The record whose footer ends at byte ``end``, verified.

    A chained footer must hold ordered fields and a matching CRC; a
    first-layout footer must sit right after its directory.  Raises
    :class:`~repro.errors.StoreFormatError` otherwise.
    """
    tail = bytes(buffer[max(0, end - len(TAIL_MAGIC)):end])
    if tail == TAIL_MAGIC and end >= len(MAGIC_V2) + FOOTER_SIZE:
        footer = end - FOOTER_SIZE
        prev, start, dir_offset, crc, _ = _FOOTER_STRUCT.unpack(
            bytes(buffer[footer:end]))
        if prev == 0:
            ordered = len(MAGIC_V2) <= start == dir_offset <= footer
        else:
            ordered = len(MAGIC_V2) < prev <= start <= dir_offset <= footer
        if not ordered:
            raise StoreFormatError(
                f"footer ending at {end} has out-of-order fields "
                f"(prev {prev}, start {start}, directory {dir_offset})")
        fields = _FOOTER_FIELDS.pack(prev, start, dir_offset)
        if zlib.crc32(fields, zlib.crc32(buffer[start:footer])) != crc:
            raise StoreFormatError(
                f"CRC mismatch in the record ending at {end}")
        return _Record(prev, start if prev else len(MAGIC_V2),
                       dir_offset, footer, end)
    if tail == LEGACY_TAIL_MAGIC and \
            end >= len(MAGIC_V2) + LEGACY_FOOTER_SIZE:
        footer = end - LEGACY_FOOTER_SIZE
        dir_offset, dir_length, _ = _LEGACY_FOOTER_STRUCT.unpack(
            bytes(buffer[footer:end]))
        if dir_offset < len(MAGIC_V2) or dir_offset + dir_length != footer:
            raise StoreFormatError(
                f"directory extent [{dir_offset}, {dir_offset + dir_length})"
                f" does not end at its footer ({footer})")
        return _Record(0, len(MAGIC_V2), dir_offset, footer, end)
    raise StoreFormatError(f"bad footer magic {tail!r} at {end}")


def _read_head(buffer, strict: bool = False) -> _Record:
    """Check a v2 container's magic and return its newest record: the
    one whose footer ends at EOF or, unless ``strict``, the newest
    earlier footer that verifies (the recovery from a torn tail)."""
    size = len(buffer)
    if size < len(MAGIC_V2) + LEGACY_FOOTER_SIZE:
        raise StoreFormatError("file too short for a CKSIDX2 store")
    if bytes(buffer[:len(MAGIC_V2)]) != MAGIC_V2:
        raise StoreFormatError(
            f"bad magic {bytes(buffer[:len(MAGIC_V2)])!r}; not a CKSIDX2 "
            "store")
    try:
        return _record_ending_at(buffer, size)
    except StoreFormatError as error:
        if strict:
            raise StoreFormatError(
                f"torn or corrupt tail: {error}") from None
        failure = error
    search_end = size - 1
    while True:
        found = max(buffer.rfind(TAIL_MAGIC, 0, search_end),
                    buffer.rfind(LEGACY_TAIL_MAGIC, 0, search_end))
        if found < 0:
            raise failure
        try:
            return _record_ending_at(buffer, found + len(TAIL_MAGIC))
        except StoreFormatError:
            search_end = found + len(TAIL_MAGIC) - 1


def _read_chain(buffer, strict: bool = False
                ) -> tuple[list[_Record], list[list[Extent]]]:
    """Verify a v2 container's record chain and parse its directories.

    Returns the chain's records and segments, both oldest first;
    segment indices count from the base's first segment.  A record
    below the head that fails to verify raises — newer segments are
    never dropped silently.
    """
    records = [_read_head(buffer, strict)]
    while records[-1].prev:
        try:
            records.append(_record_ending_at(buffer, records[-1].prev))
        except StoreFormatError as error:
            raise StoreFormatError(
                f"the record below the one ending at {records[-1].end} "
                f"is corrupt: {error}") from None
    records.reverse()
    segments: list[list[Extent]] = []
    for record in records:
        segments.extend(_parse_directory(buffer, record, len(segments)))
    return records, segments


def _parse_directory(buffer, record: _Record,
                     first_segment: int) -> list[list[Extent]]:
    """Parse one record's directory; its segments are numbered from
    ``first_segment``.

    Validates every extent against the record's own payload, so a
    corrupt directory can never send a reader past its bytes.  Open
    time is this loop, so single-byte varints (nearly every key
    length, flag and count) are read inline.
    """
    data = bytes(buffer[record.dir_offset:record.dir_end])
    end = len(data)
    low, high = record.low, record.dir_offset
    read = _read_varint_at
    make_extent = Extent._make
    segments: list[list[Extent]] = []
    try:
        nseg, position = read(data, 0, end)
        for segment_index in range(first_segment, first_segment + nseg):
            nkw, position = read(data, position, end)
            extents: list[Extent] = []
            for _ in range(nkw):
                klen = data[position]
                if klen < 0x80:
                    position += 1
                else:
                    klen, position = read(data, position, end)
                if position + klen > end:
                    raise StoreFormatError("truncated keyword in directory")
                try:
                    keyword = data[position:position + klen].decode("utf-8")
                except UnicodeDecodeError as error:
                    raise StoreFormatError(
                        f"undecodable keyword in directory: {error}"
                    ) from None
                position += klen
                flag = data[position]
                if flag < 0x80:
                    position += 1
                else:
                    flag, position = read(data, position, end)
                offset, position = read(data, position, end)
                length = data[position]
                if length < 0x80:
                    position += 1
                else:
                    length, position = read(data, position, end)
                npost = data[position]
                if npost < 0x80:
                    position += 1
                else:
                    npost, position = read(data, position, end)
                kind = _KIND_BY_FLAG.get(flag)
                if kind is None:
                    raise StoreFormatError(f"bad extent flag {flag}")
                # The empty keyword is reserved for the subtree table
                # and the table may use no other key: a flipped flag
                # byte on a real keyword (or a flipped key length on a
                # table) fails here instead of silently shadowing
                # postings.
                if (kind == "table") != (keyword == TABLE_KEYWORD):
                    raise StoreFormatError(
                        f"extent flag {flag} is invalid for keyword "
                        f"{keyword!r}: the empty keyword is reserved for "
                        "the subtree table")
                tombstone = kind == "tombstone"
                if not tombstone:
                    if offset < low or offset + length > high:
                        raise StoreFormatError(
                            f"posting block [{offset}, {offset + length}) "
                            f"for {keyword!r} outside its record's payload "
                            f"[{low}, {high})")
                    # A posting needs >= 3 bytes (shared, extra, freq)
                    # and a subtree group >= 3 (count + one bare
                    # occurrence), so an absurd count is caught before
                    # any decode attempt.  Dedup extents are exempt:
                    # their npost is the EXPANDED posting count, which
                    # fan-out makes larger than the stored bytes — that
                    # is the point.
                    if kind != "dedup" and npost * 3 > length:
                        raise StoreFormatError(
                            f"{npost} postings cannot fit in {length} "
                            "bytes")
                extents.append(make_extent((keyword, tombstone, offset,
                                            length, npost, kind,
                                            segment_index)))
            segments.append(extents)
    except IndexError:  # an inline varint read ran off the directory
        raise StoreFormatError("truncated varint") from None
    if position != end:
        raise StoreFormatError("trailing bytes after directory")
    return segments


def _live_extents(segments: Sequence[Sequence[Extent]]
                  ) -> dict[str, tuple[Extent, ...]]:
    """keyword → its live extents, oldest first.

    Scans oldest → newest; a tombstone drops every older extent of its
    keyword, and a later segment may insert the keyword again.
    """
    live: dict[str, tuple[Extent, ...]] = {}
    for extents in segments:
        for extent in extents:
            if extent.kind == "table":  # metadata, not a keyword
                continue
            if extent.tombstone:
                live.pop(extent.keyword, None)
            else:
                live[extent.keyword] = \
                    live.get(extent.keyword, ()) + (extent,)
    return live


def _segment_tables(segments: Sequence[Sequence[Extent]]
                    ) -> dict[int, Extent]:
    """segment index → its subtree-table extent (flag 2), if any."""
    tables: dict[int, Extent] = {}
    for extents in segments:
        for extent in extents:
            if extent.kind == "table":
                tables[extent.segment] = extent
    return tables


# -- lazy reading -----------------------------------------------------------

def _merge_decoded(lists: Sequence[tuple[Posting, ...]]
                   ) -> tuple[Posting, ...]:
    """Merge per-segment lists: Dewey order, same-code frequencies sum
    (the :meth:`InvertedIndex.merged_with` semantics)."""
    if len(lists) == 1:
        return lists[0]
    bucket: dict[dewey.Code, int] = {}
    for plist in lists:
        for posting in plist:
            bucket[posting.code] = bucket.get(posting.code, 0) + \
                posting.frequency
    return tuple(Posting(code, frequency)
                 for code, frequency in sorted(bucket.items()))


class _LazyPostings(MappingABC):
    """keyword → posting tuple, decoded from the store on first access.

    The mapping protocol (plus :class:`collections.abc.Mapping`'s
    ``get``/``items``/``__eq__`` mixins) is exactly what
    :class:`~repro.index.inverted.InvertedIndex` expects of its
    ``_postings``, so a :class:`LazyIndex` inherits the whole read API.
    """

    __slots__ = ("_buffer", "_extents", "_tables", "_table_cache",
                 "_cache", "bytes_decoded")

    def __init__(self, buffer, extents: dict[str, tuple[Extent, ...]],
                 tables: Optional[dict[int, Extent]] = None):
        self._buffer = buffer
        self._extents = extents
        self._tables = tables or {}
        self._table_cache: dict[int, tuple] = {}
        self._cache: dict[str, tuple[Posting, ...]] = {}
        # Lifetime bytes pulled off disk by block decodes — plain int
        # so the accounting survives metrics_scope boundaries and the
        # query profiler can report it even with observability off.
        self.bytes_decoded = 0

    def segment_groups(self, segment: int
                       ) -> tuple[tuple[dewey.Code, ...], ...]:
        """The decoded subtree table of ``segment`` (cached).

        Raises :class:`~repro.errors.StoreFormatError` when the
        segment has no table — a dedup extent without one is
        unresolvable.
        """
        groups = self._table_cache.get(segment)
        if groups is None:
            extent = self._tables.get(segment)
            if extent is None:
                raise StoreFormatError(
                    f"dedup block in segment {segment} but the segment "
                    "has no subtree table")
            groups = decode_subtree_table(self._buffer, extent.offset,
                                          extent.length)
            if len(groups) != extent.npost:
                raise StoreFormatError(
                    f"subtree table holds {len(groups)} group(s); the "
                    f"directory says {extent.npost}")
            self._table_cache[segment] = groups
        return groups

    def _decode_extent(self, extent: Extent) -> tuple[Posting, ...]:
        if extent.kind != "dedup":
            return decode_posting_block(self._buffer, extent.offset,
                                        extent.length, extent.npost)
        decoded = decode_dedup_block(
            self._buffer, extent.offset, extent.length, extent.npost,
            self.segment_groups(extent.segment))
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("dedup_blocks_expanded")
            metrics.inc("dedup_postings_expanded", len(decoded))
        return decoded

    def __getitem__(self, keyword: str) -> tuple[Posting, ...]:
        cached = self._cache.get(keyword)
        metrics = get_metrics()
        if cached is not None:
            if metrics.enabled:
                metrics.inc("posting_decode_cache_hits")
            return cached
        extents = self._extents[keyword]  # KeyError → keyword absent
        decoded = _merge_decoded([
            self._decode_extent(extent) for extent in extents])
        self._cache[keyword] = decoded
        block_bytes = sum(extent.length for extent in extents)
        self.bytes_decoded += block_bytes
        if metrics.enabled:
            metrics.inc("posting_decode_blocks", len(extents))
            metrics.inc("posting_decode_postings", len(decoded))
            metrics.inc("posting_decode_bytes", block_bytes)
            # Residency gauges: how much of the store is materialized
            # in this process right now (only moves on a decode, so
            # the cache-hit fast path stays untouched).
            metrics.gauge_set("index_decoded_blocks", len(self._cache))
            metrics.gauge_set("index_decoded_bytes", self.bytes_decoded)
        return decoded

    def list_bytes(self, keyword: str) -> int:
        """On-disk bytes of a keyword's live posting blocks (0 if
        absent) — read from the directory, no decode."""
        extents = self._extents.get(keyword)
        if extents is None:
            return 0
        return sum(extent.length for extent in extents)

    def __iter__(self):
        return iter(self._extents)

    def __len__(self) -> int:
        return len(self._extents)

    def __contains__(self, keyword) -> bool:  # skip the decode .get does
        return keyword in self._extents

    def list_length(self, keyword: str) -> int:
        """Exact list length, without decoding when one segment holds
        the keyword (the directory's ``npost`` is authoritative)."""
        extents = self._extents.get(keyword)
        if extents is None:
            return 0
        if len(extents) == 1:
            return extents[0].npost
        return len(self[keyword])

    def decoded_keywords(self) -> frozenset:
        """The keywords whose blocks have been decoded so far."""
        return frozenset(self._cache)


class LazyIndex(InvertedIndex):
    """An :class:`InvertedIndex` served lazily from a CKSIDX2 store.

    Satisfies the full read API — :meth:`postings`, :meth:`keywords`,
    :meth:`most_frequent`, :meth:`raw_postings` (immutable view),
    :meth:`merged_with` — but decodes a keyword's posting block only on
    first access, and keeps it cached thereafter.  Open with
    :func:`load_index_v2` (or :func:`open_index`); close with
    :meth:`close` or a ``with`` block.  The view is a snapshot: segments
    appended to the file after opening are not visible until re-open.
    """

    def __init__(self, path: Path, file, buffer,
                 segments: list[list[Extent]],
                 tokenizer: Optional[Tokenizer] = None):
        # Deliberately no super().__init__(): _postings is the lazy
        # mapping, which the inherited read methods consume as-is.
        self._postings = _LazyPostings(buffer, _live_extents(segments),
                                       _segment_tables(segments))
        self._tokenizer = tokenizer or default_tokenizer()
        self._path = path
        self._file = file
        self._buffer = buffer
        self._segments = segments

    # -- store-specific surface ---------------------------------------------

    @property
    def path(self) -> Path:
        """The store file this index reads from."""
        return self._path

    @property
    def segment_count(self) -> int:
        """Number of segments in the directory snapshot."""
        return len(self._segments)

    def decoded_keywords(self) -> frozenset:
        """Keywords decoded so far (observability / test hook)."""
        return self._postings.decoded_keywords()

    @property
    def bytes_decoded(self) -> int:
        """Lifetime on-disk bytes decoded by this index's lazy reads."""
        return self._postings.bytes_decoded

    def list_bytes(self, keyword: str) -> int:
        """On-disk byte size of a keyword's live posting blocks, from
        the directory (no decode; 0 for an absent keyword)."""
        return self._postings.list_bytes(self._normalize(keyword))

    def close(self) -> None:
        """Release the mmap and the file handle (idempotent)."""
        buffer, self._buffer = self._buffer, None
        if isinstance(buffer, mmap.mmap):
            buffer.close()
        file, self._file = self._file, None
        if file is not None:
            file.close()

    def __enter__(self) -> "LazyIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- read-API overrides that exploit the directory ----------------------

    def frequency(self, keyword: str) -> int:
        """List length from the directory — no decode for the common
        single-segment case."""
        return self._postings.list_length(self._normalize(keyword))

    def most_frequent(self, n: int) -> list[str]:
        ranked = sorted(self._postings._extents,
                        key=lambda k: (-self._postings.list_length(k), k))
        return ranked[:n]

    def raw_postings(self) -> Mapping[str, tuple[Posting, ...]]:
        """The lazy keyword → posting-list mapping, read-only."""
        return MappingProxyType(self._postings)


# -- public entry points ----------------------------------------------------

def encode_index_v2(index: Union[InvertedIndex,
                                 Mapping[str, Sequence[Posting]]]) -> bytes:
    """Serialize an index as a single-segment CKSIDX2 container."""
    postings = index.raw_postings() if isinstance(index, InvertedIndex) \
        else index
    buffer = io.BytesIO()
    buffer.write(MAGIC_V2)
    payload, extents = _encode_segment_payload(postings, len(MAGIC_V2))
    buffer.write(payload)
    _write_base_directory(buffer, [extents])
    return buffer.getvalue()


def _write_base_directory(buffer: io.BytesIO,
                          segments: Sequence[Sequence[Extent]]) -> None:
    """Finish a whole-file container: its base directory and footer."""
    dir_offset = buffer.tell()
    directory = _encode_directory(segments)
    buffer.write(directory)
    buffer.write(_encode_footer(0, dir_offset, dir_offset, directory))


def save_index_v2(index: InvertedIndex, path: PathLike) -> int:
    """Persist ``index`` at ``path`` in the v2 format (atomically, via
    :func:`~repro.index.store.replace_file`); returns bytes written."""
    blob = encode_index_v2(index)
    replace_file(path, blob)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("store_bytes_written", len(blob))
    _log.debug("wrote %d v2 bytes to %s", len(blob), path)
    return len(blob)


def find_duplicate_subtrees(postings: Union[InvertedIndex,
                                            Mapping[str,
                                                    Sequence[Posting]]],
                            min_postings: int = 2
                            ) -> list[tuple[dewey.Code, ...]]:
    """Detect repeated subtrees in an index's posting data.

    Two Dewey prefixes are *duplicates* when the postings beneath them
    are identical relative to the prefix — same relative codes, same
    keywords, same frequencies — which is exactly the condition under
    which storing (and evaluating) one of them suffices.  Detection
    builds the trie of all posting codes and hashes it bottom-up
    (iterative postorder, so 5000-level-deep paper trees don't
    recurse): a node's signature is its own ``(keyword, frequency)``
    payload plus its children's ``(step, signature)`` pairs, so equal
    signatures ⇔ identical relative contents.

    A node founds a *group* when its signature occurs at least twice,
    its subtree holds at least ``min_postings`` postings, and no
    ancestor already founded one (groups are disjoint; a nested
    duplicate is stored once inside its ancestor's canonical copy).
    Groups whose occurrences all fall inside selected ancestors
    dissolve back into plain postings.  Returns one sorted occurrence
    tuple per group, deterministic for a given index.
    """
    if isinstance(postings, InvertedIndex):
        postings = postings.raw_postings()
    children: list[dict[int, int]] = [{}]
    payload: list[list] = [[]]
    for keyword in sorted(postings):
        for posting in postings[keyword]:
            node = 0
            for step in posting.code:
                nxt = children[node].get(step)
                if nxt is None:
                    children.append({})
                    payload.append([])
                    nxt = len(children) - 1
                    children[node][step] = nxt
                node = nxt
            payload[node].append((keyword, posting.frequency))
    # Bottom-up signatures: reversed preorder visits every child
    # before its parent without recursion.
    preorder: list[int] = []
    stack = [0]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(children[node].values())
    signature = [0] * len(children)
    subtree_postings = [0] * len(children)
    intern: dict = {}
    occurrences: dict[int, int] = {}
    for node in reversed(preorder):
        kids = children[node]
        key = (tuple(sorted(payload[node])),
               tuple(sorted((step, signature[child])
                            for step, child in kids.items())))
        sid = intern.setdefault(key, len(intern))
        signature[node] = sid
        subtree_postings[node] = len(payload[node]) + \
            sum(subtree_postings[child] for child in kids.values())
        occurrences[sid] = occurrences.get(sid, 0) + 1
    candidates = {signature[node] for node in preorder
                  if occurrences[signature[node]] >= 2
                  and subtree_postings[node] >= min_postings}
    # Top-down selection: a candidate under a selected ancestor is
    # already covered by that ancestor's canonical copy.
    selected: dict[int, list[dewey.Code]] = {}
    walk: list[tuple[int, dewey.Code, bool]] = [(0, (), False)]
    while walk:
        node, code, covered = walk.pop()
        sid = signature[node]
        take = not covered and sid in candidates
        if take:
            selected.setdefault(sid, []).append(code)
        for step, child in children[node].items():
            walk.append((child, code + (step,), covered or take))
    groups = [tuple(sorted(codes)) for codes in selected.values()
              if len(codes) >= 2]
    groups.sort()
    return groups


def encode_index_v2_dedup(index: Union[InvertedIndex,
                                       Mapping[str, Sequence[Posting]]],
                          min_postings: int = 2) -> bytes:
    """Serialize an index with subtree deduplication (flags 2/3).

    Detects duplicate subtrees (:func:`find_duplicate_subtrees`),
    writes one subtree-table extent plus dedup posting extents that
    store each group's postings once (relative to the group root),
    and plain extents for keywords untouched by any group.  An index
    with no qualifying duplicates encodes as a plain v2 container —
    the reader cannot tell the difference either way, because dedup
    blocks decode to byte-identical posting tuples.
    """
    postings = index.raw_postings() if isinstance(index, InvertedIndex) \
        else index
    groups = find_duplicate_subtrees(postings, min_postings)
    if not groups:
        return encode_index_v2(postings)
    # occurrence prefix → (group id, canonical?).  The sorted-first
    # occurrence is canonical: its postings are stored; the others'
    # are implied by fan-out.
    cover: dict[dewey.Code, tuple[int, bool]] = {}
    for group_id, occurrence_list in enumerate(groups):
        for index_in_group, occurrence in enumerate(occurrence_list):
            cover[occurrence] = (group_id, index_in_group == 0)
    buffer = io.BytesIO()
    buffer.write(MAGIC_V2)
    extents: list[Extent] = []
    table_block = encode_subtree_table(groups)
    extents.append(Extent(TABLE_KEYWORD, False, buffer.tell(),
                          len(table_block), len(groups), "table"))
    buffer.write(table_block)
    saved = 0
    for keyword in sorted(postings):
        plist = sorted(postings[keyword],
                       key=lambda posting: posting.code)
        sections: dict[int, list[Posting]] = {}
        residual: list[Posting] = []
        for posting in plist:
            code = posting.code
            owner = None
            for cut in range(len(code) + 1):
                owner = cover.get(code[:cut])
                if owner is not None:
                    break
            if owner is None:
                residual.append(posting)
                continue
            group_id, canonical = owner
            if canonical:
                sections.setdefault(group_id, []).append(
                    Posting(code[cut:], posting.frequency))
            else:
                saved += 1  # implied by fan-out; not stored
        if not sections:
            block = encode_posting_block(plist)
            extents.append(Extent(keyword, False, buffer.tell(),
                                  len(block), len(plist)))
            buffer.write(block)
            continue
        block = encode_dedup_block(sorted(sections.items()), residual)
        extents.append(Extent(keyword, False, buffer.tell(),
                              len(block), len(plist), "dedup"))
        buffer.write(block)
    _write_base_directory(buffer, [extents])
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("dedup_groups_written", len(groups))
        metrics.inc("dedup_postings_saved", saved)
    return buffer.getvalue()


def save_index_v2_dedup(index: InvertedIndex, path: PathLike,
                        min_postings: int = 2) -> int:
    """Persist ``index`` at ``path`` with subtree deduplication
    (atomically); returns bytes written."""
    blob = encode_index_v2_dedup(index, min_postings)
    replace_file(path, blob)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("store_bytes_written", len(blob))
    _log.debug("wrote %d deduped v2 bytes to %s", len(blob), path)
    return len(blob)


def load_index_v2(path: PathLike,
                  tokenizer: Optional[Tokenizer] = None) -> LazyIndex:
    """Memory-map a CKSIDX2 store; postings decode on first access."""
    path = Path(path)
    metrics = get_metrics()
    with metrics.span("index-open"):
        file = open(path, "rb")
        try:
            buffer = _map(file)
            try:
                _, segments = _read_chain(buffer)
            except BaseException:
                buffer.close()
                raise
        except BaseException:
            file.close()
            raise
    if metrics.enabled:
        metrics.inc("index_open_v2")
    _log.debug("opened %s lazily: %d segment(s)", path, len(segments))
    return LazyIndex(path, file, buffer, segments, tokenizer)


def _map(file) -> mmap.mmap:
    """A read-only map of an open store file."""
    if os.fstat(file.fileno()).st_size == 0:
        raise StoreFormatError("empty file is not a CKSIDX2 store")
    return mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)


@contextmanager
def _locked(path: Path, mode: str):
    """Open ``path`` holding its exclusive writer lock.

    Appends and merges serialize on ``fcntl.flock``.  A merge installs
    a new file under the path, so a writer that waited for the lock
    re-opens until the file it locked is the one the path names —
    otherwise its append would land in the replaced file and be lost.
    """
    while True:
        file = open(path, mode)
        try:
            fcntl.flock(file.fileno(), fcntl.LOCK_EX)
            locked, named = os.fstat(file.fileno()), os.stat(path)
        except BaseException:
            file.close()
            raise
        if (locked.st_dev, locked.st_ino) == (named.st_dev, named.st_ino):
            break
        file.close()
    try:
        yield file
    finally:
        file.close()  # releases the lock


def open_index(path: PathLike,
               tokenizer: Optional[Tokenizer] = None) -> InvertedIndex:
    """Open a posting store of either format, autodetected on magic.

    CKSIDX2 stores open lazily (:class:`LazyIndex`); legacy CKSIDX1
    stores keep their eager read path, so every existing file stays
    readable with no deprecation step.
    """
    path = Path(path)
    if _probe_magic(path) == MAGIC_V2:
        return load_index_v2(path, tokenizer)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("index_open_v1")
    index = _load_index_v1(path)
    if tokenizer is not None:
        index = InvertedIndex(index.raw_postings(), tokenizer)
    return index


def _probe_magic(path: Path) -> bytes:
    with open(path, "rb") as probe:
        magic = probe.read(len(MAGIC_V2))
    if magic not in (MAGIC_V1, MAGIC_V2):
        raise StoreFormatError(
            f"bad magic {magic!r}; not a posting store or unsupported "
            "version")
    return magic


def append_segment(path: PathLike,
                   postings: Union[InvertedIndex,
                                   Mapping[str, Sequence[Posting]]]) -> int:
    """Append one segment of postings to an existing v2 store.

    Returns the number of bytes appended.  The new segment's lists merge
    with (not replace) older segments' lists for the same keyword —
    same-code frequencies sum, matching
    :meth:`InvertedIndex.merged_with`.  Readers that opened the store
    before the append keep serving their snapshot.
    """
    if isinstance(postings, InvertedIndex):
        postings = postings.raw_postings()
    return _append(path, postings, ())


def append_tombstones(path: PathLike, keywords: Iterable[str]) -> int:
    """Append a tombstone segment deleting ``keywords``.

    A tombstone shadows every older segment's postings for the keyword;
    the bytes are reclaimed by the next :func:`merge_index`.
    """
    keywords = list(keywords)
    appended = _append(path, {}, keywords)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("segment_tombstones", len(keywords))
    return appended


def _append(path: PathLike, postings: Mapping[str, Sequence[Posting]],
            tombstones: Sequence[str]) -> int:
    """Append one delta record: payload, directory, ``fsync``, footer,
    ``fsync``.  Only the newest record is read; a torn tail is left
    behind as dead bytes and the new record chains to the newest
    footer that verifies."""
    with _locked(Path(path), "r+b") as file:
        with _map(file) as buffer:
            size = len(buffer)
            head = _read_head(buffer)
        payload, extents = _encode_segment_payload(postings, size,
                                                   tombstones)
        body = payload + _encode_directory([extents])
        file.seek(size)
        file.write(body)
        file.flush()
        os.fsync(file.fileno())
        footer = _encode_footer(head.end, size, size + len(payload), body)
        file.write(footer)
        file.flush()
        os.fsync(file.fileno())
    appended = len(body) + len(footer)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("segment_appends")
        metrics.inc("store_bytes_written", appended)
    _log.debug("appended a %d-byte segment to %s", appended, path)
    return appended


def merge_index(path: PathLike, output: Optional[PathLike] = None,
                dedup: bool = False) -> int:
    """Compact a store to a single-segment CKSIDX2 file.

    In place by default (atomic: temp file + ``os.replace``); pass
    ``output`` to write elsewhere and leave the source untouched.
    Accepts a v1 store too, which upgrades it to v2.  The output is
    byte-identical to :func:`encode_index_v2` of the live postings;
    most keywords get there by copying their blocks (see
    :func:`_compacted`).  ``dedup=True`` re-runs subtree deduplication
    on the merged postings (a deduped source merges to a plain store
    otherwise — compaction expands the fan-out and keeps the expanded
    postings byte-identical).  Holds the store's writer lock
    throughout, so no append lands in the file the merge replaces.
    Returns the bytes written.
    """
    path = Path(path)
    target = Path(output) if output is not None else path
    with _locked(path, "rb") as file:
        magic = _probe_magic(path)
        if magic == MAGIC_V2 and not dedup:
            with _map(file) as buffer:
                _, segments = _read_chain(buffer)
                blob = _compacted(buffer, segments)
            dropped = len(segments)
        else:
            if magic == MAGIC_V1:
                index: InvertedIndex = _load_index_v1(path)
                merged = dict(index.raw_postings())
                dropped = 1  # one v1 "segment" rewritten
            else:
                with load_index_v2(path) as lazy:
                    merged = {keyword: lazy.raw_postings()[keyword]
                              for keyword in lazy.raw_postings()}
                    dropped = lazy.segment_count
            blob = encode_index_v2_dedup(merged) if dedup \
                else encode_index_v2(merged)
        replace_file(target, blob)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("segment_merges")
        metrics.inc("store_bytes_written", len(blob))
    _log.debug("merged %s (%d segment(s)) -> %s (%d bytes)",
               path, dropped, target, len(blob))
    return len(blob)


def _compacted(buffer, segments: Sequence[Sequence[Extent]]) -> bytes:
    """One base holding the live postings of ``segments``.

    Byte-identical to :func:`encode_index_v2` of the decoded postings.
    A keyword whose live extents are all plain postings blocks, each
    canonical and each wholly below the next, is joined from its
    blocks' bytes (:func:`_joined_block`); any other keyword is
    decoded, merged and encoded again.
    """
    live = _live_extents(segments)
    lazy = _LazyPostings(buffer, live, _segment_tables(segments))
    out = io.BytesIO()
    out.write(MAGIC_V2)
    extents: list[Extent] = []
    for keyword in sorted(live):
        joined = _joined_block(buffer, live[keyword])
        if joined is not None:
            block, npost = joined
        else:
            plist = _merge_decoded([lazy._decode_extent(extent)
                                    for extent in live[keyword]])
            block = encode_posting_block(
                sorted(plist, key=lambda posting: posting.code))
            npost = len(plist)
        extents.append(Extent(keyword, False, out.tell(), len(block),
                              npost))
        out.write(block)
    _write_base_directory(out, [extents])
    return out.getvalue()


def _joined_block(buffer, extents: Sequence[Extent]
                  ) -> Optional[tuple[bytes, int]]:
    """A keyword's merged block and posting count, from block bytes.

    The merged block is the first non-empty block verbatim, then for
    each later one its first posting front-coded against the previous
    block's last code, followed by the rest of that block verbatim.
    That is what :func:`encode_posting_block` writes for the merged
    list when every block is canonical and each block's codes all sort
    below the next block's: no code repeats, so no frequencies sum.
    ``None`` when that does not hold, or an extent is not a plain
    postings block.  A block that decoding would reject raises
    :class:`~repro.errors.StoreFormatError`: here, or in the decode the
    caller falls back to after a ``None``.
    """
    if any(extent.kind != "postings" for extent in extents):
        return None
    chunks: list[bytes] = []
    last: Optional[tuple[int, ...]] = None
    npost = 0
    for extent in extents:
        data = buffer[extent.offset:extent.offset + extent.length]
        walked = _walk_canonical(data, extent.npost)
        if walked is None:
            return None
        first, frequency_at, final = walked
        if first is None:  # an empty block adds nothing
            continue
        if last is None:
            chunks.append(data)
        elif last < first:
            head = io.BytesIO()
            _write_front_coded(head, last, first)
            chunks.append(head.getvalue())
            chunks.append(data[frequency_at:])
        else:
            return None
        last = final
        npost += extent.npost
    return b"".join(chunks), npost


def inspect_index(path: PathLike) -> dict:
    """Structural summary of a store file (either format), JSON-ready.

    ``dead_bytes`` counts everything that no live record references:
    shadowed blocks, torn tails and first-layout directories superseded
    by a later one.  ``chain_length`` is the number of directory
    records (the base plus one delta per append since the last merge).
    """
    path = Path(path)
    if _probe_magic(path) == MAGIC_V1:
        index = _load_index_v1(path)
        postings = index.raw_postings()
        return {
            "path": str(path),
            "format": "CKSIDX1",
            "bytes": path.stat().st_size,
            "keywords": len(postings),
            "postings": sum(len(plist) for plist in postings.values()),
            "segments": 1,
            "tombstones": 0,
            "lazy": False,
        }
    with open(path, "rb") as file, _map(file) as buffer:
        size = len(buffer)
        records, segments = _read_chain(buffer)
    live = _live_extents(segments)
    tables = _segment_tables(segments)
    live_bytes = sum(extent.length for extents in live.values()
                     for extent in extents)
    live_bytes += sum(extent.length for extent in tables.values())
    dedup_blocks = sum(1 for extents in live.values()
                       for extent in extents if extent.kind == "dedup")
    directory_bytes = sum(record.end - record.dir_offset
                          for record in records)
    return {
        "path": str(path),
        "format": "CKSIDX2",
        "bytes": size,
        "keywords": len(live),
        "postings": sum(extent.npost for extents in live.values()
                        for extent in extents),
        "segments": len(segments),
        "segment_keywords": [len(extents) for extents in segments],
        "chain_length": len(records),
        "tombstones": sum(1 for extents in segments
                          for extent in extents if extent.tombstone),
        "dedup_groups": sum(extent.npost for extent in tables.values()),
        "dedup_blocks": dedup_blocks,
        "live_payload_bytes": live_bytes,
        "dead_bytes": size - len(MAGIC_V2) - live_bytes - directory_bytes,
        "lazy": True,
    }


def verify_index(path: PathLike) -> dict:
    """Check a store end to end and summarize what was checked.

    For CKSIDX2: the footer at EOF must verify (a torn tail, which
    :func:`load_index_v2` recovers from, is a fault here), every record
    of the chain must pass its CRC, and every live block — posting,
    dedup and subtree-table extents — must decode.  A CKSIDX1 store is
    decoded whole.  Raises :class:`~repro.errors.StoreFormatError` on
    the first fault.
    """
    path = Path(path)
    if _probe_magic(path) == MAGIC_V1:
        postings = _load_index_v1(path).raw_postings()
        return {"path": str(path), "format": "CKSIDX1", "records": 1,
                "segments": 1, "keywords": len(postings),
                "postings": sum(len(plist) for plist in postings.values())}
    with open(path, "rb") as file, _map(file) as buffer:
        records, segments = _read_chain(buffer, strict=True)
        tables = _segment_tables(segments)
        lazy = _LazyPostings(buffer, _live_extents(segments), tables)
        total = sum(len(lazy[keyword]) for keyword in lazy)
        for segment in tables:
            lazy.segment_groups(segment)
    return {"path": str(path), "format": "CKSIDX2",
            "records": len(records), "segments": len(segments),
            "keywords": len(lazy), "postings": total}
