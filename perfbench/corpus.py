"""Set-up inputs: generated XML collections, streamed into CKSIDX2 stores.

A collection is several generated documents side by side, document
``i`` under the Dewey prefix ``(i,)`` as in :mod:`repro.corpus`.  The
pull parser's cost grows faster than linearly with one document's
length (see README.md), so many mid-sized documents keep set-up time
proportional to the bytes ingested.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

from repro.index.inverted import InvertedIndex
from repro.index.store_v2 import save_index_v2
from repro.index.streaming import StreamingIndexer
from repro.xmlio.pull_parser import PullParser
from repro.xmlio.writer import dump_tree


def generate_trees(generate: Callable, scale: int, count: int,
                   seed: int) -> list:
    """``count`` trees from a dataset generator, seeded apart."""
    return [generate(scale=scale, seed=seed * 1000 + number).tree
            for number in range(count)]


def generate_documents(generate: Callable, scale: int, count: int,
                       seed: int) -> list[str]:
    """``count`` XML documents from a dataset generator, seeded apart."""
    return [dump_tree(tree)
            for tree in generate_trees(generate, scale, count, seed)]


def index_document(xml: str, prefix: tuple) -> dict:
    """Stream one document into postings under ``prefix``."""
    indexer = StreamingIndexer(root_prefix=prefix)
    for event in PullParser(xml):
        indexer.feed(event)
    return dict(indexer.finish().raw_postings())


def index_collection(documents: Sequence[str],
                     first_prefix: int = 0) -> InvertedIndex:
    """One index over documents placed side by side (disjoint prefixes,
    so the per-document lists concatenate)."""
    lists: dict[str, list] = {}
    for number, xml in enumerate(documents, first_prefix):
        for keyword, plist in index_document(xml, (number,)).items():
            lists.setdefault(keyword, []).extend(plist)
    return InvertedIndex(lists)


def write_store(documents: Sequence[str], path: Path) -> InvertedIndex:
    """Index ``documents`` and write them as a one-segment store."""
    index = index_collection(documents)
    save_index_v2(index, path)
    return index


def input_bytes(documents: Sequence[str]) -> int:
    return sum(len(xml.encode("utf-8")) for xml in documents)
