"""Multi-document corpora.

The paper evaluates one large document per dataset, but real deployments
search *collections*.  A :class:`Corpus` places every document under a
virtual corpus root — document ``i`` occupies the Dewey subtree
``(i,)`` — so the single-tree machinery (engine, baselines, ranking)
works unchanged across the collection, and results attribute naturally
to documents via their first Dewey step.

Documents are indexed with the streaming indexer (never materialized)
and the corpus index is a :class:`~repro.index.segmented.SegmentedIndex`
over the per-document indexes: adding a document appends a segment in
O(1) instead of re-merging the whole collection, and keyword lists merge
lazily on first access.  Call :meth:`Corpus.compact` to fold the
segments into one flat index when the collection stops growing.

Note on semantics: with a virtual root, a result may span several
documents (its LCA is the corpus root).  That is usually noise, so
:meth:`Corpus.search` drops corpus-root results by default; pass
``within_documents=False`` to keep them.

Large collections can fan the search out over processes: pass
``workers=N`` to :meth:`Corpus.search`.  Documents are sharded across
the pool, each worker runs its own :class:`~repro.runtime.SearchSession`
over its shard's postings, and the parent merges the ranked shard
answers.  This is exact (not approximate) because a within-document
result depends only on its own document's postings — the corpus root is
the only cross-document LCA, and the within-document mode drops it
anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.core.parser import parse_query
from repro.core.query import Query
from repro.core.results import Result
from repro.errors import ReproError
from repro.index.inverted import InvertedIndex, Posting
from repro.index.segmented import SegmentedIndex
from repro.index.streaming import StreamingIndexer
from repro.index.tokenizer import Tokenizer, default_tokenizer
from repro.obs import get_logger
from repro.obs.tracing import (Tracer, activate_wire, current_trace_wire,
                               get_tracer, trace_scope)
from repro.tree import dewey
from repro.xmlio.pull_parser import PullParser

_log = get_logger("repro.corpus")


def _search_shard(query_text: str,
                  postings: dict[str, tuple[Posting, ...]],
                  tokenizer: Optional[Tokenizer],
                  trace_wire: Optional[dict] = None,
                  shard: Optional[int] = None
                  ) -> tuple[list[Result], list[dict]]:
    """Worker: evaluate ``query_text`` over one shard's postings.

    Runs in a pool process.  The shard postings are already sliced to
    any ``list_limit`` by the parent, so the session searches
    unlimited.  With a serialized ``trace_wire`` the worker re-enters
    the parent's trace context under a local tracer, so its spans —
    stamped with the worker's own pid — come back as the second element
    for the parent to :meth:`~repro.obs.tracing.Tracer.adopt` into one
    coherent cross-process trace.
    """
    from repro.runtime import SearchSession
    index = InvertedIndex(postings, tokenizer)
    if trace_wire is None:
        return SearchSession(index).search(query_text), []
    tracer = Tracer(memory=trace_wire.get("memory", False))
    try:
        with trace_scope(tracer), activate_wire(trace_wire):
            with tracer.span("shard", shard=shard):
                results = SearchSession(index).search(query_text)
    finally:
        tracer.close()
    return results, [span.as_dict() for span in tracer.spans()]


@dataclass(frozen=True)
class DocumentResult:
    """One search result attributed to its document."""

    document: str
    result: Result

    @property
    def code_in_document(self) -> dewey.Code:
        """The LCA's Dewey code relative to its own document root."""
        return self.result.code[1:]


class Corpus:
    """A searchable collection of XML documents."""

    def __init__(self, tokenizer: Optional[Tokenizer] = None):
        self._tokenizer = tokenizer or default_tokenizer()
        self._names: list[str] = []
        self._index: InvertedIndex = SegmentedIndex((), self._tokenizer)
        self._session = None

    # -- building ------------------------------------------------------------

    def add_document(self, name: str, xml_text: str) -> int:
        """Index one document; returns its document id (Dewey step).

        The document becomes a new index *segment* (O(1) append; no
        rebuild of the merged index), mirroring the append-only
        segments of the on-disk CKSIDX2 store.
        """
        document_id = len(self._names)
        indexer = StreamingIndexer(self._tokenizer,
                                   root_prefix=(document_id,))
        for event in PullParser(xml_text):
            indexer.feed(event)
        segment = indexer.finish()
        if isinstance(self._index, SegmentedIndex):
            self._index = self._index.with_segment(segment)
        else:  # a loaded/compacted flat index becomes segment 0
            self._index = SegmentedIndex((self._index, segment),
                                         self._tokenizer)
        self._names.append(name)
        if self._session is not None:
            # Keep the long-lived session's caches honest: swapping the
            # index flushes both the plan and posting caches.
            self._session.swap_index(self._index)
        return document_id

    def add_path(self, path: Union[str, Path],
                 encoding: str = "utf-8") -> int:
        """Index one XML file; the file name becomes the document name."""
        path = Path(path)
        return self.add_document(path.name,
                                 path.read_text(encoding=encoding))

    def add_paths(self, paths: Iterable[Union[str, Path]]) -> list[int]:
        return [self.add_path(path) for path in paths]

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        """Number of documents."""
        return len(self._names)

    @property
    def documents(self) -> list[str]:
        return list(self._names)

    @property
    def index(self) -> InvertedIndex:
        """The merged corpus-wide inverted index (a lazy segment view
        while the corpus grows; see :meth:`compact`)."""
        return self._index

    @property
    def segment_count(self) -> int:
        """Index segments backing the corpus (one per added document;
        1 after :meth:`compact` or :meth:`load`)."""
        if isinstance(self._index, SegmentedIndex):
            return self._index.segment_count
        return 1

    def compact(self) -> None:
        """Fold the per-document segments into one flat index.

        Worth doing once a collection stops growing: per-keyword merge
        work disappears from the query path.  The session's caches are
        flushed (the swap discipline of :meth:`add_document`).
        """
        if not isinstance(self._index, SegmentedIndex):
            return
        self._index = SegmentedIndex((self._index.compact(),),
                                     self._tokenizer)
        if self._session is not None:
            self._session.swap_index(self._index)

    @property
    def session(self):
        """The corpus's long-lived :class:`~repro.runtime.SearchSession`.

        Created on first use; :meth:`add_document` swaps the new merged
        index in (flushing the caches) so the session never serves stale
        plans or postings.
        """
        if self._session is None:
            from repro.runtime import SearchSession
            self._session = SearchSession(self._index)
        return self._session

    def document_name(self, code: dewey.Code) -> str:
        if not code:
            raise ValueError("the corpus root belongs to no document")
        return self._names[code[0]]

    # -- persistence ------------------------------------------------------------

    MAGIC = b"CKSCRP1\n"

    def save(self, path: Union[str, Path]) -> int:
        """Persist the corpus (document names + merged index) to one
        file; returns the number of bytes written."""
        import io

        from repro.index.store import encode_index, write_varint
        buffer = io.BytesIO()
        buffer.write(self.MAGIC)
        write_varint(buffer, len(self._names))
        for name in self._names:
            encoded = name.encode("utf-8")
            write_varint(buffer, len(encoded))
            buffer.write(encoded)
        blob = encode_index(self._index)
        write_varint(buffer, len(blob))
        buffer.write(blob)
        data = buffer.getvalue()
        Path(path).write_bytes(data)
        return len(data)

    @classmethod
    def load(cls, path: Union[str, Path],
             tokenizer: Optional[Tokenizer] = None) -> "Corpus":
        """Reload a corpus written by :meth:`save`."""
        import io

        from repro.errors import StoreFormatError
        from repro.index.store import decode_index, read_varint
        data = io.BytesIO(Path(path).read_bytes())
        magic = data.read(len(cls.MAGIC))
        if magic != cls.MAGIC:
            raise StoreFormatError(
                f"bad magic {magic!r}; not a corpus file")
        count = read_varint(data)
        names = []
        for _ in range(count):
            length = read_varint(data)
            raw = data.read(length)
            if len(raw) != length:
                raise StoreFormatError("truncated document name")
            names.append(raw.decode("utf-8"))
        blob_length = read_varint(data)
        blob = data.read(blob_length)
        if len(blob) != blob_length:
            raise StoreFormatError("truncated embedded index")
        index = decode_index(blob)
        corpus = cls(tokenizer)
        corpus._names = names
        corpus._index = SegmentedIndex(
            (InvertedIndex(index.raw_postings(), corpus._tokenizer),),
            corpus._tokenizer)
        return corpus

    # -- searching ------------------------------------------------------------

    def search(self, query: Union[str, Query],
               list_limit: Optional[int] = None,
               within_documents: bool = True,
               workers: Optional[int] = None) -> list[DocumentResult]:
        """Evaluate a cohesive query across the whole collection.

        Results come back ranked by LCA size, each tagged with its
        document.  ``within_documents=True`` (default) drops results
        whose LCA is the virtual corpus root (matches stitched together
        from several documents).

        ``workers=N`` (N > 1) shards the documents across a process
        pool, one :class:`~repro.runtime.SearchSession` per worker, and
        merges the ranked shard answers — the answer is identical to the
        sequential one.  Requires ``within_documents=True`` (only the
        corpus root spans shards).  If the pool cannot start, the search
        falls back to sequential with a warning.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._search_impl(query, list_limit, within_documents,
                                     workers)
        with tracer.span("corpus-search", query=str(query),
                         workers=workers or 1) as span:
            attributed = self._search_impl(query, list_limit,
                                           within_documents, workers)
            span.set_attr("result_count", len(attributed))
        return attributed

    def _search_impl(self, query: Union[str, Query],
                     list_limit: Optional[int],
                     within_documents: bool,
                     workers: Optional[int]) -> list[DocumentResult]:
        if workers is not None and workers > 1:
            if not within_documents:
                raise ReproError(
                    "workers>1 requires within_documents=True: the "
                    "corpus-root result spans shards")
            results = self._search_parallel(query, list_limit, workers)
            if results is not None:
                return self._attribute(results, within_documents=True)
        results = self.session.search(query, list_limit=list_limit)
        return self._attribute(results, within_documents)

    def _attribute(self, results: Sequence[Result],
                   within_documents: bool) -> list[DocumentResult]:
        attributed: list[DocumentResult] = []
        for result in results:
            if not result.code:
                if within_documents:
                    continue
                attributed.append(DocumentResult("<corpus>", result))
                continue
            attributed.append(
                DocumentResult(self._names[result.code[0]], result))
        return attributed

    def _search_parallel(self, query: Union[str, Query],
                         list_limit: Optional[int],
                         workers: int) -> Optional[list[Result]]:
        """Fan the search out over a process pool; ``None`` on failure.

        The parent slices every keyword's *corpus-wide* list to
        ``list_limit`` first, then shards the slices by document id —
        sharding before slicing would change which instances survive the
        limit and break the identical-answer guarantee.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        # Key the lists as the worker's index looks them up: by the
        # tokenizer-normalised keyword, not as the query spells it.
        keywords = sorted({self._index._normalize(keyword)
                           for keyword in parsed.distinct_keywords()})
        lists = {keyword: self._index.postings(keyword, limit=list_limit)
                 for keyword in keywords}
        if any(not plist for plist in lists.values()):
            return []
        shards = self._shard_postings(lists, workers)
        if len(shards) <= 1:
            return None  # nothing to parallelize; run sequentially
        tracer = get_tracer()
        wire = current_trace_wire(tracer) if tracer.enabled else None
        try:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                futures = [
                    pool.submit(_search_shard, str(parsed), shard,
                                self._tokenizer, wire, number)
                    for number, shard in enumerate(shards)
                ]
                merged: list[Result] = []
                for future in futures:
                    results, shard_spans = future.result()
                    merged.extend(results)
                    if shard_spans:
                        tracer.adopt(shard_spans)
        except (OSError, ValueError, TypeError, AttributeError,
                ImportError, BrokenProcessPool) as error:
            _log.warning("parallel search unavailable (%s); "
                         "falling back to sequential", error)
            return None
        merged.sort(key=Result.sort_key)
        return merged

    def _shard_postings(self, lists: dict[str, tuple[Posting, ...]],
                        workers: int
                        ) -> list[dict[str, tuple[Posting, ...]]]:
        """Split keyword lists into per-shard sub-lists by document id.

        Documents are assigned to shards contiguously; a shard keeps a
        keyword only if the shard holds at least one of its postings (a
        worker whose shard misses any query keyword answers empty, which
        is exactly the sequential semantics for those documents).
        """
        count = len(self._names)
        shard_count = min(workers, count)
        if shard_count <= 1:
            return [dict(lists)]
        bounds = [(shard * count) // shard_count
                  for shard in range(shard_count + 1)]
        shards: list[dict[str, tuple[Posting, ...]]] = []
        for shard in range(shard_count):
            low, high = bounds[shard], bounds[shard + 1]
            sliced = {}
            for keyword, plist in lists.items():
                part = tuple(posting for posting in plist
                             if low <= posting.code[0] < high)
                if part:
                    sliced[keyword] = part
            if sliced:
                shards.append(sliced)
        return shards
