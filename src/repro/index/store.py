"""Binary on-disk format for inverted indexes.

This module substitutes for the paper's MySQL posting storage with an
embedded, dependency-free format.  Posting lists are *front-coded*: each
Dewey code is written as the length of the prefix it shares with its
predecessor plus the remaining steps, all as LEB128 varints — the standard
compression trick for sorted hierarchical keys.

Layout::

    magic   8 bytes  b"CKSIDX1\\n"
    nkw     varint
    per keyword (sorted):
        klen varint, key bytes (UTF-8)
        npost varint
        per posting:
            shared varint   # prefix steps shared with previous code
            extra  varint   # number of new steps
            step*  varint   # the new steps
            freq   varint
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import BinaryIO, Union

from repro.errors import StoreFormatError
from repro.index.inverted import InvertedIndex, Posting
from repro.obs import get_logger, get_metrics

MAGIC = b"CKSIDX1\n"

_log = get_logger("index.store")

PathLike = Union[str, Path]


def write_varint(out: BinaryIO, value: int) -> None:
    """Write an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def read_varint(data: BinaryIO) -> int:
    """Read an unsigned LEB128 varint."""
    result = 0
    shift = 0
    while True:
        raw = data.read(1)
        if not raw:
            raise StoreFormatError("truncated varint")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise StoreFormatError("varint too long")


def replace_file(path: PathLike, blob: bytes) -> None:
    """Write ``blob`` to a sibling temp file and ``os.replace`` it over
    ``path``, so a reader that has the old file mmap'd keeps its old
    bytes instead of faulting on a truncated mapping.

    The temp name is unique per call, so concurrent writers never share
    one; the temp file is ``fsync``'d before the replace and the
    directory after it, so a crash leaves the old file or the new one.
    """
    target = Path(path)
    scratch = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(scratch, "xb") as out:
            out.write(blob)
            out.flush()
            os.fsync(out.fileno())
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    directory = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save_index(index: InvertedIndex, path: PathLike) -> int:
    """Persist ``index`` to ``path`` (atomically, via
    :func:`replace_file`); returns the number of bytes written."""
    blob = encode_index(index)
    replace_file(path, blob)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("store_bytes_written", len(blob))
    _log.debug("wrote %d bytes to %s", len(blob), path)
    return len(blob)


def encode_index(index: InvertedIndex) -> bytes:
    """Serialize ``index`` to the binary store format."""
    buffer = io.BytesIO()
    buffer.write(MAGIC)
    postings = index.raw_postings()
    write_varint(buffer, len(postings))
    for keyword in sorted(postings):
        encoded = keyword.encode("utf-8")
        write_varint(buffer, len(encoded))
        buffer.write(encoded)
        plist = postings[keyword]
        write_varint(buffer, len(plist))
        previous: tuple[int, ...] = ()
        for posting in plist:
            code = posting.code
            shared = 0
            for a, b in zip(previous, code):
                if a != b:
                    break
                shared += 1
            write_varint(buffer, shared)
            write_varint(buffer, len(code) - shared)
            for step in code[shared:]:
                write_varint(buffer, step)
            write_varint(buffer, posting.frequency)
            previous = code
    return buffer.getvalue()


def load_index(path: PathLike) -> InvertedIndex:
    """Load an index previously written by :func:`save_index`."""
    metrics = get_metrics()
    with metrics.span("index-load"):
        blob = Path(path).read_bytes()
        index = decode_index(blob)
    if metrics.enabled:
        metrics.inc("store_bytes_read", len(blob))
    _log.debug("read %d bytes from %s", len(blob), path)
    return index


def decode_index(blob: bytes) -> InvertedIndex:
    """Deserialize an index from the binary store format."""
    data = io.BytesIO(blob)
    magic = data.read(len(MAGIC))
    if magic != MAGIC:
        raise StoreFormatError(
            f"bad magic {magic!r}; not a posting store or unsupported version")
    nkw = read_varint(data)
    lists: dict[str, list[Posting]] = {}
    for _ in range(nkw):
        klen = read_varint(data)
        raw = data.read(klen)
        if len(raw) != klen:
            raise StoreFormatError("truncated keyword")
        keyword = raw.decode("utf-8")
        npost = read_varint(data)
        plist: list[Posting] = []
        previous: tuple[int, ...] = ()
        for _ in range(npost):
            shared = read_varint(data)
            if shared > len(previous):
                raise StoreFormatError(
                    f"shared prefix {shared} longer than previous code")
            extra = read_varint(data)
            steps = tuple(read_varint(data) for _ in range(extra))
            code = previous[:shared] + steps
            frequency = read_varint(data)
            plist.append(Posting(code, frequency))
            previous = code
        lists[keyword] = plist
    trailing = data.read(1)
    if trailing:
        raise StoreFormatError("trailing bytes after posting store")
    return InvertedIndex(lists)
