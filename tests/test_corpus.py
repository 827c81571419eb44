"""Tests for multi-document corpora."""

import pytest

from repro.corpus import Corpus

DOC_A = """<bib>
  <article>
    <title>xml keyword search</title>
    <author>john smith</author>
  </article>
</bib>"""

DOC_B = """<bib>
  <article>
    <title>graph databases</title>
    <author>george brown</author>
  </article>
  <article>
    <title>xml views</title>
    <author>john brown</author>
  </article>
</bib>"""


@pytest.fixture
def corpus():
    corpus = Corpus()
    corpus.add_document("a.xml", DOC_A)
    corpus.add_document("b.xml", DOC_B)
    return corpus


class TestBuilding:
    def test_document_ids_sequential(self):
        corpus = Corpus()
        assert corpus.add_document("x", DOC_A) == 0
        assert corpus.add_document("y", DOC_B) == 1
        assert len(corpus) == 2
        assert corpus.documents == ["x", "y"]

    def test_add_path(self, tmp_path):
        target = tmp_path / "doc.xml"
        target.write_text(DOC_A)
        corpus = Corpus()
        corpus.add_paths([target])
        assert corpus.documents == ["doc.xml"]

    def test_documents_share_keyword_space(self, corpus):
        # 'xml' appears in both documents: postings span both subtrees.
        codes = [p.code for p in corpus.index.postings("xml")]
        assert any(code[0] == 0 for code in codes)
        assert any(code[0] == 1 for code in codes)


class TestPersistence:
    def test_save_load_roundtrip(self, corpus, tmp_path):
        path = tmp_path / "collection.ckscorpus"
        written = corpus.save(path)
        assert written == path.stat().st_size
        reloaded = Corpus.load(path)
        assert reloaded.documents == corpus.documents
        assert reloaded.index.raw_postings() == \
            corpus.index.raw_postings()

    def test_reloaded_corpus_searches(self, corpus, tmp_path):
        path = tmp_path / "collection.ckscorpus"
        corpus.save(path)
        reloaded = Corpus.load(path)
        original = [(r.document, r.result.code, r.result.size)
                    for r in corpus.search("(xml (john smith))")]
        restored = [(r.document, r.result.code, r.result.size)
                    for r in reloaded.search("(xml (john smith))")]
        assert original == restored

    def test_bad_magic_rejected(self, tmp_path):
        from repro.errors import StoreFormatError
        path = tmp_path / "bad.ckscorpus"
        path.write_bytes(b"NOTACORP" + b"\x00" * 8)
        with pytest.raises(StoreFormatError):
            Corpus.load(path)

    def test_truncated_file_rejected(self, corpus, tmp_path):
        from repro.errors import StoreFormatError
        path = tmp_path / "trunc.ckscorpus"
        corpus.save(path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(StoreFormatError):
            Corpus.load(path)


class TestSearching:
    def test_results_attributed_to_documents(self, corpus):
        results = corpus.search("(xml (john smith))")
        assert results
        assert results[0].document == "a.xml"
        assert results[0].result.code[0] == 0

    def test_cohesiveness_across_corpus(self, corpus):
        # john brown in b.xml must not satisfy (john smith).
        names = {r.document for r in corpus.search("(xml (john smith))")}
        assert names == {"a.xml"}

    def test_cross_document_results_dropped_by_default(self, corpus):
        # 'smith' only in a.xml, 'george' only in b.xml: any combined
        # match would sit at the corpus root.
        assert corpus.search("(smith george)") == []
        kept = corpus.search("(smith george)", within_documents=False)
        assert [r.document for r in kept] == ["<corpus>"]

    def test_code_in_document(self, corpus):
        result = corpus.search("(george brown)")[0]
        assert result.document == "b.xml"
        assert result.code_in_document == result.result.code[1:]

    def test_document_name_lookup(self, corpus):
        assert corpus.document_name((1, 0)) == "b.xml"
        with pytest.raises(ValueError):
            corpus.document_name(())


class TestIncrementalSegments:
    """add_document appends a segment instead of re-merging the index."""

    def test_segment_count_grows_per_document(self):
        corpus = Corpus()
        assert corpus.segment_count == 0
        corpus.add_document("a.xml", DOC_A)
        assert corpus.segment_count == 1
        corpus.add_document("b.xml", DOC_B)
        assert corpus.segment_count == 2

    def test_compact_folds_segments(self, corpus):
        before = corpus.search("(xml john)")
        assert corpus.segment_count == 2
        corpus.compact()
        assert corpus.segment_count == 1
        assert _rows(corpus.search("(xml john)")) == _rows(before)

    def test_compact_then_add_appends_again(self, corpus):
        corpus.compact()
        corpus.add_document("c.xml", DOC_A)
        assert corpus.segment_count == 2
        names = {r.document for r in corpus.search("(xml john smith)")}
        assert names == {"a.xml", "c.xml"}

    def test_segmented_index_equals_flat_merge(self, corpus):
        """The lazy union must match an eager merged_with fold of the
        same per-document segments."""
        segments = list(corpus.index.segments)
        assert len(segments) == 2
        flat = segments[0]
        for segment in segments[1:]:
            flat = flat.merged_with(segment)
        assert corpus.index.raw_postings() == flat.raw_postings()

    def test_save_load_roundtrip_with_segments(self, corpus, tmp_path):
        path = tmp_path / "seg.ckscorpus"
        corpus.add_document("c.xml", DOC_A)
        corpus.save(path)
        reloaded = Corpus.load(path)
        assert reloaded.index.raw_postings() == \
            corpus.index.raw_postings()
        assert reloaded.segment_count == 1  # persisted form is flat


def _rows(results):
    return [(r.document, r.result) for r in results]


class TestParallelSearch:
    @pytest.fixture
    def big_corpus(self):
        corpus = Corpus()
        for step in range(5):
            corpus.add_document(f"doc{step}.xml", DOC_A if step % 2
                                else DOC_B)
        return corpus

    def test_parallel_equals_sequential(self, big_corpus):
        sequential = big_corpus.search("(xml john)")
        parallel = big_corpus.search("(xml john)", workers=3)
        assert _rows(parallel) == _rows(sequential)

    def test_parallel_normalises_mixed_case_keywords(self, big_corpus):
        # The shards are keyed as the workers look keywords up, so a
        # query spelled in mixed case finds the same lists both ways.
        sequential = big_corpus.search("(XML John)")
        assert sequential
        assert _rows(big_corpus.search("(XML John)", workers=2)) == \
            _rows(sequential) == _rows(big_corpus.search("(xml john)"))

    def test_parallel_with_list_limit(self, big_corpus):
        # The limit is applied to the corpus-wide list before sharding,
        # so the surviving instances are the same in both modes.
        sequential = big_corpus.search("(xml john)", list_limit=3)
        parallel = big_corpus.search("(xml john)", list_limit=3,
                                     workers=2)
        assert _rows(parallel) == _rows(sequential)

    def test_parallel_missing_keyword(self, big_corpus):
        assert big_corpus.search("(xml zzznothing)", workers=2) == []

    def test_more_workers_than_documents(self, corpus):
        sequential = corpus.search("(xml john)")
        parallel = corpus.search("(xml john)", workers=16)
        assert _rows(parallel) == _rows(sequential)

    def test_single_document_falls_back_sequential(self):
        corpus = Corpus()
        corpus.add_document("only.xml", DOC_A)
        assert _rows(corpus.search("(xml john)", workers=4)) == \
            _rows(corpus.search("(xml john)"))

    def test_workers_require_within_documents(self, corpus):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            corpus.search("(xml john)", workers=2,
                          within_documents=False)

    @pytest.mark.parametrize("kernel", ["flat"])
    def test_parallel_respects_kernel(self, big_corpus, monkeypatch,
                                      kernel):
        """Worker shards evaluate on the flat kernel, the one kernel,
        and together give exactly the sequential answer."""
        from repro.core import kernel as kernel_module
        from repro.corpus import _search_shard

        sequential = big_corpus.search("(xml john)")
        parallel = big_corpus.search("(xml john)", workers=3)
        assert _rows(parallel) == _rows(sequential)

        # Run each shard in this process to see which engine it uses.
        built = []

        class _Spy(kernel_module._FlatEvaluation):
            def __init__(self, *args, **kwargs):
                built.append(kernel)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(kernel_module, "_FlatEvaluation", _Spy)
        lists = {word: big_corpus.index.postings(word)
                 for word in ("john", "xml")}
        shards = big_corpus._shard_postings(lists, 3)
        assert len(shards) == 3
        merged = []
        for shard in shards:
            results, spans = _search_shard("(xml john)", shard, None)
            assert spans == []
            merged.extend(results)
        assert built == [kernel] * len(shards)
        by_code = sorted((r.code, r.size) for r in merged
                         if r.code)
        assert by_code == sorted((r.result.code, r.result.size)
                                 for r in sequential)

    def test_session_persists_and_invalidates(self, corpus):
        corpus.search("(xml john)")
        session = corpus.session
        assert session.cache_stats()["plan_cache"]["size"] > 0
        corpus.add_document("c.xml", DOC_A)
        assert corpus.session is session  # same long-lived session
        assert session.cache_stats()["plan_cache"]["size"] == 0
        # the new document is immediately visible
        names = {r.document for r in corpus.search("(xml john smith)")}
        assert names == {"a.xml", "c.xml"}
