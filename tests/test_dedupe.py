import itertools
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpuskit import dedupe, shard_io
from corpuskit.bloom import BloomFilter, ExactSet
from corpuskit.dedupe import (
    CONTAMINATED,
    DOC_DUPLICATE,
    PARAGRAPH_DUPLICATE,
    URL_DUPLICATE,
    ccnet_group_dedupe,
    decontaminate_seed,
    decontaminate_tag,
    dedupe_by_document,
    dedupe_by_paragraph,
    dedupe_by_url,
    normalize_url,
    plan_shard_groups,
)
from corpuskit.documents import AttributeSpan, Document, count_words, segment_paragraphs, segment_words
from corpuskit.shard_io import TAG_CHUNK_BYTES, TAG_CHUNK_DOCS, write_documents


def url_doc(i, url):
    return Document(id=f"d{i}", text=f"text {i}", metadata={"url": url})


class TestNormalizeUrl:
    def test_lowercases_scheme_and_host(self):
        assert normalize_url("HTTP://Example.COM/Path") == "http://example.com/Path"

    def test_strips_fragment_and_trailing_slash(self):
        assert normalize_url("http://a.com/x/#frag") == "http://a.com/x"
        assert normalize_url("http://a.com/x/") == normalize_url("http://a.com/x")

    def test_keeps_query(self):
        assert normalize_url("http://a.com/x?q=1") == "http://a.com/x?q=1"


class TestUrlDedupe:
    def test_second_occurrence_flagged(self):
        docs = [url_doc(0, "http://a.com/x"), url_doc(1, "http://a.com/x")]
        results = list(dedupe_by_url(iter(docs), ExactSet()))
        assert URL_DUPLICATE not in results[0][1].attributes
        assert URL_DUPLICATE in results[1][1].attributes

    def test_trailing_slash_variants_share_key(self):
        docs = [url_doc(0, "http://a.com/x"), url_doc(1, "http://a.com/x/")]
        results = list(dedupe_by_url(iter(docs), ExactSet()))
        assert URL_DUPLICATE in results[1][1].attributes

    def test_missing_url_passes_unflagged(self):
        docs = [Document(id="n", text="no url")]
        results = list(dedupe_by_url(iter(docs), ExactSet()))
        assert results[0][1].attributes == {}

    def test_bloom_matches_exact_oracle_on_planted_dupes(self):
        rng = random.Random(0)
        docs = []
        for i in range(800):
            docs.append(url_doc(i, f"http://site{i}.com/page"))
        for j in range(200):  # plant duplicates of existing URLs
            src = rng.randrange(800)
            docs.append(url_doc(800 + j, f"http://site{src}.com/page"))
        flagged_exact = {
            doc.id
            for doc, attrs in dedupe_by_url(iter(docs), ExactSet())
            if URL_DUPLICATE in attrs.attributes
        }
        bloom = BloomFilter.create(len(docs), 1e-4, 0)
        flagged_bloom = {
            doc.id
            for doc, attrs in dedupe_by_url(iter(docs), bloom)
            if URL_DUPLICATE in attrs.attributes
        }
        assert flagged_exact <= flagged_bloom  # no false negatives
        assert len(flagged_bloom - flagged_exact) <= 2 * 1e-4 * len(docs)
        assert len(flagged_exact) == 200


class TestDocumentDedupe:
    def test_empty_documents_are_duplicates(self):
        docs = [Document(id="a", text=""), Document(id="b", text="")]
        results = list(dedupe_by_document(iter(docs), ExactSet()))
        assert DOC_DUPLICATE not in results[0][1].attributes
        assert DOC_DUPLICATE in results[1][1].attributes

    def test_single_space_difference_not_duplicate(self):
        docs = [Document(id="a", text="same text"), Document(id="b", text="same  text")]
        results = list(dedupe_by_document(iter(docs), ExactSet()))
        assert DOC_DUPLICATE not in results[1][1].attributes

    def test_matches_hash_set_oracle(self):
        rng = random.Random(1)
        texts = [f"document body {rng.randrange(300)}" for _ in range(1000)]
        docs = [Document(id=str(i), text=t) for i, t in enumerate(texts)]
        seen = set()
        expected = set()
        for doc in docs:
            if doc.text in seen:
                expected.add(doc.id)
            seen.add(doc.text)
        got = {
            doc.id
            for doc, attrs in dedupe_by_document(iter(docs), ExactSet())
            if DOC_DUPLICATE in attrs.attributes
        }
        assert got == expected

    def test_first_kept_under_permutation(self):
        texts = ["alpha", "beta", "alpha", "gamma", "beta"]
        for seed in range(5):
            docs = [Document(id=str(i), text=t) for i, t in enumerate(texts)]
            rng = random.Random(seed)
            rng.shuffle(docs)
            results = list(dedupe_by_document(iter(docs), ExactSet()))
            kept = [doc.text for doc, attrs in results if DOC_DUPLICATE not in attrs.attributes]
            assert sorted(kept) == ["alpha", "beta", "gamma"]


class TestParagraphDedupe:
    def test_shared_byline_flagged_in_later_docs(self):
        byline = "By Staff Writer"
        docs = [
            Document(id="a", text=f"{byline}\nstory one"),
            Document(id="b", text=f"{byline}\nstory two"),
            Document(id="c", text=f"{byline}\nstory three"),
        ]
        results = list(dedupe_by_paragraph(iter(docs), ExactSet()))
        assert PARAGRAPH_DUPLICATE not in results[0][1].attributes
        for _, attrs in results[1:]:
            spans = attrs.attributes[PARAGRAPH_DUPLICATE]
            assert len(spans) == 1
            assert (spans[0].start, spans[0].end) == (0, len(byline))

    def test_unique_paragraphs_unflagged(self):
        docs = [Document(id="a", text="one\ntwo"), Document(id="b", text="three\nfour")]
        for _, attrs in dedupe_by_paragraph(iter(docs), ExactSet()):
            assert attrs.attributes == {}

    def test_empty_paragraphs_count_as_duplicates(self):
        docs = [Document(id="a", text="x\n\ny"), Document(id="b", text="p\n\nq")]
        results = list(dedupe_by_paragraph(iter(docs), ExactSet()))
        assert PARAGRAPH_DUPLICATE not in results[0][1].attributes
        spans = results[1][1].attributes[PARAGRAPH_DUPLICATE]
        assert [(sp.start, sp.end) for sp in spans] == [(2, 2)]

    def test_repeat_within_one_document_flagged(self):
        doc = Document(id="a", text="same line\nsame line")
        (_, attrs), = dedupe_by_paragraph(iter([doc]), ExactSet())
        spans = attrs.attributes[PARAGRAPH_DUPLICATE]
        assert [(sp.start, sp.end) for sp in spans] == [(10, 19)]


class TestCcnetGroups:
    def make_shards(self, tmp_path, texts_per_shard):
        paths = []
        for i, texts in enumerate(texts_per_shard):
            path = tmp_path / f"shard-{i}.jsonl"
            write_documents(
                [Document(id=f"s{i}-d{j}", text=t) for j, t in enumerate(texts)], path
            )
            paths.append(path)
        return paths

    @staticmethod
    def records(shards):
        """Each shard's attribute records, its stream drawn before the next shard is taken."""
        return {path: [attrs for _, attrs in stream] for path, stream in shards}

    def test_duplicate_within_group_flagged(self, tmp_path):
        paths = self.make_shards(tmp_path, [["shared para\nunique a"], ["shared para\nunique b"]])
        results = self.records(ccnet_group_dedupe(paths, max_group_bytes=10**9))
        assert results[paths[0]][0].attributes == {}
        assert PARAGRAPH_DUPLICATE in results[paths[1]][0].attributes

    def test_duplicate_across_groups_not_flagged(self, tmp_path):
        paths = self.make_shards(tmp_path, [["shared para"], ["shared para"]])
        # cap below the first shard size forces one group per shard
        cap = paths[0].stat().st_size
        groups = plan_shard_groups(paths, cap)
        assert len(groups) == 2
        results = self.records(ccnet_group_dedupe(paths, cap))
        assert results[paths[0]][0].attributes == {}
        assert results[paths[1]][0].attributes == {}

    def test_six_shards_two_groups_match_per_group_oracle(self, tmp_path):
        rng = random.Random(0)
        # fixed-width paragraphs keep every shard the same byte size, so the
        # cap splits the six shards into exactly two groups of three
        pool = [f"paragraph number {i:02d}" for i in range(12)]
        shard_texts = []
        for _ in range(6):
            shard_texts.append(["\n".join(rng.choice(pool) for _ in range(4)) for _ in range(3)])
        paths = self.make_shards(tmp_path, shard_texts)
        sizes = [p.stat().st_size for p in paths]
        assert len(set(sizes)) == 1
        cap = sum(sizes[:3]) + 1  # first three shards fit, rest spill over
        groups = plan_shard_groups(paths, cap)
        assert len(groups) == 2 and [len(g) for g in groups] == [3, 3]

        flagged = {}
        for path, stream in ccnet_group_dedupe(paths, cap):
            for _, rec in stream:
                spans = rec.attributes.get(PARAGRAPH_DUPLICATE, [])
                if spans:
                    flagged[rec.id] = [(sp.start, sp.end) for sp in spans]

        expected = {}
        for group in groups:
            seen = set()
            for path in group:
                from corpuskit.shard_io import read_documents

                for doc in read_documents(path):
                    hits = []
                    pos = 0
                    for para in doc.text.split("\n"):
                        if para in seen:
                            hits.append((pos, pos + len(para)))
                        seen.add(para)
                        pos += len(para) + 1
                    if hits:
                        expected[doc.id] = hits
        assert flagged == expected

    def test_digest_set_looks_up_what_it_inserted(self):
        seen = ExactSet()  # the set of each group, keyed by SHA-1 digests
        assert seen.insert_check_many([b"a", b"b", b"a"]) == [False, False, True]
        assert seen.contains(b"a") and seen.contains_many([b"b", b"c"]) == [True, False]
        assert seen.insert_check(b"b") and not seen.insert_check(b"c")
        assert len(seen) == 3

    def test_streams_each_shard(self, tmp_path, monkeypatch):
        paths = self.make_shards(tmp_path, [["a\nb", "b"], ["a", "c"], ["b"]])
        ids = [[doc.id for doc in shard_io.read_documents(path)] for path in paths]
        read = []

        def spy(path):
            for doc in shard_io.read_documents(path):
                read.append(doc.id)
                yield doc

        monkeypatch.setattr(dedupe, "read_documents", spy)
        shards = ccnet_group_dedupe(paths, paths[0].stat().st_size + paths[1].stat().st_size)
        for path, shard_ids in zip(paths, ids):
            before = list(read)
            got, stream = next(shards)
            assert got == path and read == before  # taking a shard's item reads none of it
            flagged = [bool(attrs.attributes) for _, attrs in stream]
            assert read == before + shard_ids
        assert next(shards, None) is None
        assert flagged == [False]  # the third shard opens a new group, whose set is empty

    def test_oversized_shard_gets_own_group(self, tmp_path):
        paths = self.make_shards(tmp_path, [["x" * 4000], ["small"], ["tiny"]])
        groups = plan_shard_groups(paths, max_group_bytes=1000)
        assert groups[0] == [paths[0]]


class TestDecontamination:
    def para(self, n_tokens, salt=""):
        return " ".join(f"tok{salt}{i}" for i in range(n_tokens))

    def test_13_token_paragraph_not_seeded_14_seeded(self):
        filt = ExactSet()
        test_docs = [Document(id="t", text=self.para(13) + "\n" + self.para(14, "b"))]
        seeded = decontaminate_seed(filt, test_docs)
        assert seeded.read_only
        assert not seeded.contains(self.para(13).encode())
        assert seeded.contains(self.para(14, "b").encode())

    def test_empty_test_set_flags_nothing(self):
        seeded = decontaminate_seed(ExactSet(), [])
        docs = [Document(id="a", text=self.para(20))]
        results = list(decontaminate_tag(iter(docs), seeded))
        assert results[0][1].attributes == {}

    def test_document_sharing_long_paragraph_flagged(self):
        shared = self.para(20, "x")
        seeded = decontaminate_seed(ExactSet(), [Document(id="t", text=shared)])
        doc = Document(id="a", text="intro line\n" + shared + "\noutro line")
        (_, attrs), = decontaminate_tag(iter([doc]), seeded)
        assert CONTAMINATED in attrs.attributes

    def test_short_shared_paragraph_ignored(self):
        shared = self.para(10, "y")
        seeded = decontaminate_seed(ExactSet(), [Document(id="t", text=shared)])
        doc = Document(id="a", text=shared)
        (_, attrs), = decontaminate_tag(iter([doc]), seeded)
        assert attrs.attributes == {}

    def test_mutable_filter_refused_for_tagging(self):
        filt = ExactSet()
        with pytest.raises(ValueError):
            list(decontaminate_tag(iter([Document(id="a", text="x")]), filt))

    def test_seeding_requires_mutable_filter(self):
        filt = ExactSet(read_only=True)
        with pytest.raises(ValueError):
            decontaminate_seed(filt, [])


def reference_paragraphs(doc, gate):
    """``(span, paragraph bytes)`` of each paragraph with more than ``gate``
    words, from the span splitter and the word segmenter."""
    data = doc.text_bytes
    for span in segment_paragraphs(doc.text):
        para = data[span.start : span.end]
        if gate == 0 or len(segment_words(para.decode("utf-8"))) > gate:
            yield span, para


def reference_stage(stage, docs, backend, gate=0):
    """The per-document, one-key-at-a-time loops that the chunked stages
    replaced; ``decontaminate`` tags with a seeded ``backend``."""
    out = []
    for doc in docs:
        whole = [AttributeSpan(0, len(doc.text_bytes), 1.0)]
        attrs = {}
        if stage == "url":
            url = doc.metadata.get("url")
            if url is not None and backend.insert_check(normalize_url(str(url)).encode("utf-8")):
                attrs[URL_DUPLICATE] = whole
        elif stage == "document":
            if backend.insert_check(doc.text_bytes):
                attrs[DOC_DUPLICATE] = whole
        elif stage == "paragraph":
            spans = [span for span, para in reference_paragraphs(doc, gate) if backend.insert_check(para)]
            if spans:
                attrs[PARAGRAPH_DUPLICATE] = spans
        elif any(backend.contains(para) for _, para in reference_paragraphs(doc, gate)):
            attrs[CONTAMINATED] = whole
        out.append((doc.id, attrs))
    return out


class TestKeyChunks:
    """Stages hand a filter the keys of several documents in one call; the
    flags must be those of checking each key in stream order."""

    PARAGRAPHS = ["alpha beta gamma", "delta", "", "epsilon zeta eta theta", "iota kappa", "lambda"]

    def docs(self, rng, n):
        docs = []
        for i in range(n):
            text = "\n".join(rng.choice(self.PARAGRAPHS) for _ in range(rng.choice([1, 1, 2, 4, 9])))
            metadata = {"url": f"http://a.com/{rng.randrange(12)}/"} if rng.random() < 0.7 else {}
            docs.append(Document(id=f"d{i}", text=text, metadata=metadata))
        return docs

    @pytest.mark.parametrize(
        "chunk_docs, chunk_bytes",
        [(1, TAG_CHUNK_BYTES), (2, TAG_CHUNK_BYTES), (5, TAG_CHUNK_BYTES), (32, TAG_CHUNK_BYTES), (32, 8)],
    )
    @pytest.mark.parametrize("make", [ExactSet, lambda: BloomFilter.create(12, 0.3, seed=5)], ids=["exact", "bloom"])
    def test_every_stage_matches_one_key_at_a_time(self, monkeypatch, chunk_docs, chunk_bytes, make):
        # the small Bloom filter fills up, so its answers depend on key order
        monkeypatch.setattr(shard_io, "TAG_CHUNK_DOCS", chunk_docs)
        monkeypatch.setattr(shard_io, "TAG_CHUNK_BYTES", chunk_bytes)
        rng = random.Random(f"{chunk_docs}/{chunk_bytes}")
        docs, test_docs = self.docs(rng, 50), self.docs(rng, 6)
        stages = {"url": dedupe_by_url, "document": dedupe_by_document, "paragraph": dedupe_by_paragraph}
        for stage, run in stages.items():
            got = [(doc.id, attrs.attributes) for doc, attrs in run(iter(docs), make())]
            assert got == reference_stage(stage, docs, make()), stage
        for gate in (0, 2):
            got = [(doc.id, attrs.attributes) for doc, attrs in dedupe_by_paragraph(iter(docs), make(), gate)]
            assert got == reference_stage("paragraph", docs, make(), gate)
            seeded = decontaminate_seed(make(), iter(test_docs), min_paragraph_tokens=gate)
            reference = make()
            for doc in test_docs:
                for _, para in reference_paragraphs(doc, gate):
                    reference.insert_check(para)
            reference.freeze()
            if isinstance(seeded, BloomFilter):
                assert bytes(seeded.bits) == bytes(reference.bits)
            got = [(doc.id, attrs.attributes) for doc, attrs in decontaminate_tag(iter(docs), seeded, gate)]
            assert got == reference_stage("decontaminate", docs, reference, gate)
            assert any(attrs for _, attrs in got)

    def test_chunks_close_at_the_document_count_or_byte_cap_and_stream(self):
        batches = []

        class Recording(ExactSet):
            def insert_check_many(self, keys):
                batches.append(len(keys))
                return super().insert_check_many(keys)

        def paragraph_batches(docs):
            batches.clear()
            assert [doc.id for doc, _ in dedupe_by_paragraph(iter(docs), Recording())] == [d.id for d in docs]
            return list(batches)

        small = [Document(id=f"d{i}", text=f"a{i}\nb{i}\nc{i}") for i in range(2 * TAG_CHUNK_DOCS + 3)]  # 3 keys each
        assert paragraph_batches(small) == [3 * TAG_CHUNK_DOCS, 3 * TAG_CHUNK_DOCS, 9]
        # two keys each, over a third of the byte cap: a chunk closes at three documents
        large = [Document(id=f"l{i}", text="x" * (TAG_CHUNK_BYTES // 3) + f"\ny{i}") for i in range(7)]
        assert paragraph_batches(large) == [6, 6, 2]
        # a document comes out before the stream ends
        endless = (Document(id=str(i), text="x") for i in itertools.count())
        doc, _ = next(dedupe_by_document(endless, Recording()))
        assert doc.id == "0"

    def test_documents_without_keys_close_chunks_too(self):
        # endless streams whose documents give no key: no url, or only
        # paragraphs below the gate; a chunk closes at TAG_CHUNK_DOCS documents
        pulled = []

        def endless(text):
            pulled.clear()
            for i in itertools.count():
                pulled.append(i)
                yield Document(id=str(i), text=text)

        runs = [
            lambda: dedupe_by_url(endless("x"), ExactSet()),
            lambda: dedupe_by_paragraph(endless("a b\nc"), ExactSet(), 5),
            lambda: decontaminate_tag(endless("a b\nc"), ExactSet().freeze()),
        ]
        for run in runs:
            doc, attrs = next(run())
            assert (doc.id, attrs.attributes, len(pulled)) == ("0", {}, TAG_CHUNK_DOCS)


class TestDecontaminationProbesFirst:
    """Tagging probes every paragraph and runs the token gate only on the
    hits; its flags must be those of gating first and probing what the
    gate admits (``reference_stage``)."""

    WORDS = ["tok", "é", "x", "😀", "word"]

    def para(self, rng):
        return " ".join(f"{rng.choice(self.WORDS)}{rng.randrange(3)}" for _ in range(rng.randrange(0, 20)))

    def corpus(self, seed):
        rng = random.Random(seed)
        pool = [self.para(rng) for _ in range(40)]
        # the test set holds paragraphs of every length; the tagged documents
        # share some of them, among paragraphs of their own
        test_docs = [Document(id=f"t{i}", text="\n".join(rng.sample(pool, 3))) for i in range(8)]
        docs = []
        for i in range(60):
            paras = [rng.choice(pool) if rng.random() < 0.3 else self.para(rng) for _ in range(rng.randrange(1, 5))]
            docs.append(Document(id=f"d{i}", text="\n".join(paras)))
        return test_docs, docs

    def count_gated(self, monkeypatch):
        """Record the text of every ``count_words`` call the gate makes."""
        counted = []
        original = dedupe.count_words

        def counting(text):
            counted.append(text)
            return original(text)

        monkeypatch.setattr(dedupe, "count_words", counting)
        return counted

    @pytest.mark.parametrize("make", [ExactSet, lambda: BloomFilter.create(12, 0.3, seed=5)], ids=["exact", "bloom"])
    def test_short_paragraph_seeded_at_gate_0_hits_but_does_not_flag_at_13(self, monkeypatch, make):
        short = "short eval line"
        seeded = decontaminate_seed(make(), [Document(id="t", text=short)], min_paragraph_tokens=0)
        assert seeded.contains(short.encode())
        counted = self.count_gated(monkeypatch)
        docs = [Document(id="a", text=short), Document(id="b", text="other\n" + short)]
        assert [attrs.attributes for _, attrs in decontaminate_tag(iter(docs), seeded, 13)] == [{}, {}]
        assert counted.count(short) == 2
        assert [attrs.attributes for _, attrs in decontaminate_tag(iter(docs), seeded, 0)] == [
            {CONTAMINATED: [AttributeSpan(0, doc.text_size, 1.0)]} for doc in docs
        ]

    # the small Bloom filter is overfull, so it also answers true for
    # paragraphs never seeded, some of them short
    @pytest.mark.parametrize("make", [ExactSet, lambda: BloomFilter.create(12, 0.3, seed=5)], ids=["exact", "bloom"])
    @pytest.mark.parametrize("gate", [0, 5, 13])
    def test_flags_equal_gate_then_probe_and_only_hits_are_counted(self, monkeypatch, make, gate):
        test_docs, docs = self.corpus(gate)
        seeded = decontaminate_seed(make(), test_docs, min_paragraph_tokens=0)
        counted = self.count_gated(monkeypatch)
        got = [(doc.id, attrs.attributes) for doc, attrs in decontaminate_tag(iter(docs), seeded, gate)]
        assert got == reference_stage("decontaminate", docs, seeded, gate)
        flagged = sum(bool(attrs) for _, attrs in got)
        paragraphs = [para for doc in docs for para in doc.text.split("\n")]
        hits = [para for para in paragraphs if seeded.contains(para.encode())]
        # some hits flag and some are stopped by the gate (none at gate 0)
        assert 0 < flagged < len(docs)
        if gate:
            assert any(len(segment_words(para)) <= gate for para in hits)
        # the gate counts hits only, and at gate 0 nothing
        assert all(seeded.contains(text.encode()) for text in counted)
        assert len(counted) <= len(hits) < len(paragraphs)
        assert bool(counted) is (gate > 0)


def split_paragraphs_one_at_a_time(data):
    """The per-paragraph generator the bulk splitter replaced: ``((start,
    end), paragraph)`` of each paragraph, its bounds carried from the last."""
    start = 0
    for para in data.split(b"\n"):
        end = start + len(para)
        yield (start, end), para
        start = end + 1


def set_insert_check(seen):
    """``insert_check`` over the plain set ``seen``: whether the key was in
    it, then add it."""

    def insert_check(key):
        found = key in seen
        seen.add(key)
        return found

    return insert_check


def one_at_a_time(docs, check, gate=0, whole=False):
    """Attributes of each document from the generator and one ``check`` per
    paragraph that has more than ``gate`` words: a span over each paragraph
    ``check`` answers true for, or with ``whole`` the whole document."""
    out = []
    for doc in docs:
        data = doc.text_bytes
        spans = [
            AttributeSpan(start, end, 1.0)
            for (start, end), para in split_paragraphs_one_at_a_time(data)
            if (gate == 0 or count_words(para.decode("utf-8")) > gate) and check(para)
        ]
        if whole and spans:
            spans = [AttributeSpan(0, len(data), 1.0)]
        out.append(spans)
    return out


# empty, \r-ended, non-ASCII and long paragraphs; repeats are likely
PARAGRAPH_POOL = ["", "\r", " ", "a", "a b c d e f", "a b c d e f\r", "é ü ö ä ß ñ", "😀 x y z w v u", "one two"]
PARAGRAPH = st.sampled_from(PARAGRAPH_POOL) | st.text(alphabet="ab é\r😀", max_size=14)
# a text is "\n"-joined paragraphs: [""] is the empty text, a last "" a trailing newline
TEXTS = st.lists(st.lists(PARAGRAPH, min_size=1, max_size=6).map("\n".join), max_size=14)


class TestBulkParagraphsMatchOneAtATime:
    """The bulk paragraph path (one split per document, one filter call per
    chunk, bounds summed only for flagged documents) against the generator
    it replaced, checking one paragraph at a time."""

    BACKENDS = {
        "bloom": lambda: BloomFilter.create(12, 0.3, seed=5),  # overfull: answers depend on order
        "exact": ExactSet,
    }

    @staticmethod
    def docs(texts):
        return [Document(id=f"d{i}", text=text) for i, text in enumerate(texts)]

    @pytest.mark.parametrize("chunk_docs", [1, 32])
    @settings(max_examples=60, deadline=None)
    @given(texts=TEXTS, test_texts=TEXTS)
    def test_dedupe_and_decontaminate(self, chunk_docs, texts, test_texts):
        docs, test_docs = self.docs(texts), self.docs(test_texts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shard_io, "TAG_CHUNK_DOCS", chunk_docs)
            for name, make in self.BACKENDS.items():
                for gate in (0, 5):
                    tagged = dedupe_by_paragraph(iter(docs), make(), gate)
                    got = [attrs.attributes.get(PARAGRAPH_DUPLICATE, []) for _, attrs in tagged]
                    assert got == one_at_a_time(docs, make().insert_check, gate), (name, gate)
                    seeded = decontaminate_seed(make(), iter(test_docs), min_paragraph_tokens=gate)
                    tagged = decontaminate_tag(iter(docs), seeded, gate)
                    got = [attrs.attributes.get(CONTAMINATED, []) for _, attrs in tagged]
                    assert got == one_at_a_time(docs, seeded.contains, gate, whole=True), (name, gate)

    @pytest.mark.parametrize("chunk_docs", [1, 32])
    @settings(max_examples=40, deadline=None)
    @given(shards=st.lists(TEXTS, min_size=1, max_size=4), cap=st.integers(1, 600))
    def test_ccnet_groups(self, chunk_docs, shards, cap):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(shard_io, "TAG_CHUNK_DOCS", chunk_docs)
            paths = []
            for i, texts in enumerate(shards):
                paths.append(Path(tmp) / f"shard-{i}.jsonl")
                write_documents([Document(id=f"s{i}-d{j}", text=t) for j, t in enumerate(texts)], paths[-1])
            expected = []
            for group in plan_shard_groups(paths, cap):
                check = set_insert_check(set())  # one set of raw paragraphs per group
                for path in group:
                    expected.append((path, one_at_a_time(self.docs(shards[paths.index(path)]), check)))
            got = [
                (path, [attrs.attributes.get(PARAGRAPH_DUPLICATE, []) for _, attrs in stream])
                for path, stream in ccnet_group_dedupe(paths, cap)
            ]
            assert got == expected
