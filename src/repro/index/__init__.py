"""Inverted-list indexing substrate.

The paper evaluates CohesiveLCA over per-keyword inverted lists of Dewey
codes ("The keyword inverted lists of the parsed datasets were stored in a
MySQL database", §4.1).  This package replaces that storage layer with an
embedded one:

* :mod:`repro.index.tokenizer` — turns node labels/values into keywords;
* :class:`repro.index.inverted.InvertedIndex` — keyword → sorted posting
  list of ``(dewey, term_frequency)`` pairs, built from a
  :class:`~repro.tree.tree.DataTree`;
* :mod:`repro.index.store` — the legacy eager CKSIDX1 binary format;
* :mod:`repro.index.store_v2` — the mmap-backed, segmented CKSIDX2
  format with lazy posting decode (:class:`LazyIndex`), append-only
  incremental segments, tombstones, :func:`merge_index` compaction and
  :func:`verify_index` checking;
* :class:`repro.index.segmented.SegmentedIndex` — lazy in-memory union
  of member indexes (incremental corpora without rebuilds);
* :class:`repro.index.catalog.Catalog` — label / label-path statistics.

:func:`open_index` autodetects either on-disk format on its magic.
"""

from repro.index.catalog import Catalog
from repro.index.inverted import InvertedIndex, Posting
from repro.index.segmented import SegmentedIndex
from repro.index.store import load_index, save_index
from repro.index.store_v2 import (LazyIndex, append_segment,
                                  append_tombstones, inspect_index,
                                  load_index_v2, merge_index, open_index,
                                  save_index_v2, verify_index)
from repro.index.streaming import (StreamingIndexer, index_xml,
                                   index_xml_path)
from repro.index.tokenizer import (Tokenizer, default_tokenizer,
                                   unicode_tokenizer)

__all__ = [
    "Tokenizer",
    "default_tokenizer",
    "unicode_tokenizer",
    "StreamingIndexer",
    "index_xml",
    "index_xml_path",
    "InvertedIndex",
    "Posting",
    "SegmentedIndex",
    "LazyIndex",
    "Catalog",
    "save_index",
    "load_index",
    "save_index_v2",
    "load_index_v2",
    "open_index",
    "append_segment",
    "append_tombstones",
    "merge_index",
    "inspect_index",
    "verify_index",
]
