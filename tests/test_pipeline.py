import json
import random
import time
from pathlib import Path

import pytest

from conftest import BENIGN_WORDS, ENGLISH_WORDS, TOXIC_MARKERS
from corpuskit import shard_io
from corpuskit.documents import AttributeSpan, Document, DocumentAttributes
from corpuskit.filters import Drop, FilterExpr, Keep, apply_filters
from corpuskit.ngram_classifier import ENGLISH_KEEP_THRESHOLD, save_model
from corpuskit.pii import MAX_SPANS_FOR_MASKING, apply_pii_policy, tag_pii
from corpuskit.pipeline import (
    QUALITY_DROP_FILTERS,
    ChunkTagger,
    TaggerConfigError,
    UnknownTaggerError,
    WebPipelineConfig,
    build_tagger,
    register_tagger,
    run_pipeline_web,
    run_tag,
    tag_report_json,
)
from corpuskit.shard_io import (
    TAG_CHUNK_BYTES,
    TAG_CHUNK_DOCS,
    StageReport,
    read_attributes,
    read_documents,
    tagged,
    write_attributes,
    write_documents,
)


def clean_text(rng=None, n_sentences=10):
    """Text passing every default web quality rule."""
    rng = rng or random.Random(0)
    required = "The band went to the show, and most of that crowd would have stayed with them."
    sentences = [required]
    for i in range(n_sentences):
        words = [rng.choice(BENIGN_WORDS) for _ in range(9)]
        sentences.append((" ".join(words)).capitalize() + ".")
    return "\n".join(sentences)


def write_shards(tmp_path, shard_docs):
    paths = []
    for i, docs in enumerate(shard_docs):
        path = tmp_path / f"shard-{i:02d}.jsonl"
        write_documents(docs, path)
        paths.append(str(path))
    return paths


class TestRunTag:
    def test_zero_taggers_emit_empty_maps(self, tmp_path):
        docs = [Document(id=f"d{i}", text="text") for i in range(5)]
        (shard,) = write_shards(tmp_path, [docs])
        report = run_tag([shard], [], tmp_path / "attrs", workers=1)
        records = list(read_attributes(tmp_path / "attrs" / "shard-00.jsonl"))
        assert all(rec.attributes == {} for rec in records)
        assert report.input_docs == 5
        assert report.flagged_docs == {}

    def test_gopher_fixture_thirty_percent_tagged(self, tmp_path):
        rng = random.Random(0)
        docs = []
        for i in range(10):
            if i < 3:  # too short: trips the word-count rule
                docs.append(Document(id=f"bad{i}", text="tiny"))
            else:
                docs.append(Document(id=f"ok{i}", text=clean_text(rng, 12)))
        (shard,) = write_shards(tmp_path, [docs])
        report = run_tag([shard], [("gopher", {})], tmp_path / "attrs")
        payload = tag_report_json(report)
        assert payload["attributes"]["gopher__matches_any"]["documents"] == 3
        assert payload["attributes"]["gopher__matches_any"]["documents_pct"] == pytest.approx(30.0)

    def test_worker_counts_produce_identical_attribute_files(self, tmp_path):
        rng = random.Random(1)
        shards = write_shards(
            tmp_path,
            [
                [Document(id=f"s{s}d{i}", text=clean_text(rng, 6)) for i in range(10)]
                for s in range(4)
            ],
        )
        specs = [("gopher", {}), ("c4", {}), ("pii", {})]
        run_tag(shards, specs, tmp_path / "a1", workers=1)
        run_tag(shards, specs, tmp_path / "a8", workers=8)
        for name in sorted(p.name for p in (tmp_path / "a1").iterdir()):
            assert (tmp_path / "a1" / name).read_bytes() == (tmp_path / "a8" / name).read_bytes()

    def test_unknown_tagger_rejected(self, tmp_path):
        (shard,) = write_shards(tmp_path, [[Document(id="d", text="x")]])
        with pytest.raises(UnknownTaggerError):
            run_tag([shard], [("nope", {})], tmp_path / "attrs")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "spec,error", [(("nope", {}), UnknownTaggerError), (("gopher", {"treshold": 0.9}), TaggerConfigError)]
    )
    def test_refused_tagger_makes_no_output_directory(self, tmp_path, workers, spec, error):
        shards = write_shards(tmp_path, [[Document(id="d", text="x")], [Document(id="e", text="y")]])
        with pytest.raises(error):
            run_tag(shards, [("c4", {}), spec], tmp_path / "attrs", workers=workers)
        assert not (tmp_path / "attrs").exists()

    def test_characters_tagged_bounded_by_corpus(self, tmp_path):
        docs = [Document(id=f"d{i}", text="short doc") for i in range(8)]
        (shard,) = write_shards(tmp_path, [docs])
        report = run_tag([shard], [("gopher", {}), ("c4", {})], tmp_path / "attrs")
        for name, tagged in report.flagged_bytes.items():
            assert tagged <= report.input_text_bytes

    def test_toxicity_tagger_spec_with_model_files(self, tmp_path, hate_model, nsfw_model):
        from conftest import TOXIC_MARKERS

        hate_path, nsfw_path = tmp_path / "h.bin", tmp_path / "n.bin"
        save_model(hate_model, hate_path)
        save_model(nsfw_model, nsfw_path)
        marker = TOXIC_MARKERS[0]
        docs = [
            Document(id="tox", text=f"Total {marker} {marker} garden."),
            Document(id="ok", text="Lovely morning coffee."),
        ]
        (shard,) = write_shards(tmp_path, [docs])
        specs = [
            (
                "toxicity",
                {"hate_model": str(hate_path), "nsfw_model": str(nsfw_path), "threshold": 0.4},
            )
        ]
        report = run_tag([shard], specs, tmp_path / "attrs", workers=1)
        assert report.flagged_docs["toxicity__hate"] == 1
        records = {r.id: r for r in read_attributes(tmp_path / "attrs" / "shard-00.jsonl")}
        assert "toxicity__hate" in records["tox"].attributes
        assert records["ok"].attributes == {}

    def test_registered_custom_tagger(self, tmp_path):
        def secret_scanner_factory(params):
            needle = params.get("needle", "SECRET")

            def tag(doc):
                if needle in doc.text:
                    return {"secrets__match": [AttributeSpan(0, len(doc.text_bytes), 1.0)]}
                return {}

            return tag

        register_tagger("secret_scanner", secret_scanner_factory)
        tagger = build_tagger("secret_scanner", {"needle": "KEY"})
        hit = tagger(Document(id="a", text="api KEY here"))
        assert "secrets__match" in hit
        (shard,) = write_shards(tmp_path, [[Document(id="a", text="has KEY")]])
        report = run_tag([shard], [("secret_scanner", {"needle": "KEY"})], tmp_path / "attrs")
        assert report.flagged_docs["secrets__match"] == 1


    def test_param_the_tagger_does_not_read_refused(self):
        with pytest.raises(TaggerConfigError, match="'gopher' does not read params 'treshold'"):
            build_tagger("gopher", {"treshold": 0.9})
        # a misspelt threshold would otherwise run at the default
        with pytest.raises(TaggerConfigError, match="'toxicity' does not read params 'treshold'"):
            build_tagger("toxicity", {"treshold": 0.9})
        build_tagger("toxicity", {"threshold": 0.9})

        def needle_factory(params):
            needle = params["needle"]
            return lambda doc: {"needle__match": [AttributeSpan(0, 1, 1.0)]} if needle in doc.text else {}

        register_tagger("needle_scanner", needle_factory)
        build_tagger("needle_scanner", {"needle": "x"})
        with pytest.raises(TaggerConfigError, match="'needle_scanner' does not read params 'a', 'nedle'"):
            build_tagger("needle_scanner", {"needle": "x", "nedle": "y", "a": 1})


class TestWebPipeline:
    def test_clean_corpus_fully_kept(self, tmp_path):
        rng = random.Random(2)
        docs = [
            Document(
                id=f"d{i}",
                text=clean_text(rng, 10 + i),
                metadata={"url": f"http://site{i}.com/"},
            )
            for i in range(10)
        ]
        shards = write_shards(tmp_path, [docs[:5], docs[5:]])
        config = WebPipelineConfig(inputs=shards, out_dir=str(tmp_path / "out"), exact_backend=True)
        reports = run_pipeline_web(config)
        by_stage = {r.stage: r for r in reports}
        assert by_stage["url_dedup"].dropped_docs == 0
        assert by_stage["paragraph_dedup"].kept_docs == 10
        kept = [d for s in sorted((tmp_path / "out").glob("shard-*.jsonl")) for d in read_documents(s)]
        assert [d.id for d in kept] == [d.id for d in docs]

    def test_url_dupes_removed_at_first_stage(self, tmp_path):
        rng = random.Random(3)
        base = clean_text(rng, 10)
        docs = [
            Document(id="a", text=base + "\nUnique ending one.", metadata={"url": "http://x.com/p"}),
            Document(id="b", text=base + "\nUnique ending two.", metadata={"url": "http://x.com/p"}),
        ]
        shards = write_shards(tmp_path, [docs])
        config = WebPipelineConfig(inputs=shards, out_dir=str(tmp_path / "out"), exact_backend=True)
        reports = run_pipeline_web(config)
        by_stage = {r.stage: r for r in reports}
        assert by_stage["url_dedup"].dropped_docs == 1
        assert by_stage["doc_dedup"].input_docs == 1  # later stages see no dupes
        assert by_stage["doc_dedup"].dropped_docs == 0

    def test_stage_order_and_conservation(self, tmp_path):
        rng = random.Random(4)
        docs = []
        for i in range(20):
            docs.append(
                Document(
                    id=f"d{i}",
                    text=clean_text(rng, 10) if i % 4 else "way too short",
                    metadata={"url": f"http://u{i}.org/"},
                )
            )
        shards = write_shards(tmp_path, [docs])
        config = WebPipelineConfig(inputs=shards, out_dir=str(tmp_path / "out"), exact_backend=True)
        reports = run_pipeline_web(config)
        assert [r.stage for r in reports] == [
            "url_dedup",
            "doc_dedup",
            "quality_content",
            "paragraph_dedup",
        ]
        for report in reports:
            assert report.input_docs == report.kept_docs + report.dropped_docs

    def test_pii_dense_documents_dropped(self, tmp_path, lang_model):
        rng = random.Random(5)
        heavy = clean_text(rng, 10) + "\n" + " ".join(f"u{i}@x{i}.com" for i in range(7)) + " end."
        light = clean_text(rng, 10) + "\nWrite a@b.com now."
        docs = [
            Document(id="heavy", text=heavy, metadata={"url": "http://h.com/"}),
            Document(id="light", text=light, metadata={"url": "http://l.com/"}),
        ]
        shards = write_shards(tmp_path, [docs])
        config = WebPipelineConfig(inputs=shards, out_dir=str(tmp_path / "out"), exact_backend=True)
        reports = run_pipeline_web(config)
        by_stage = {r.stage: r for r in reports}
        assert by_stage["quality_content"].drop_reasons.get("pii_density") == 1
        kept = [d for s in (tmp_path / "out").glob("shard-*.jsonl") for d in read_documents(s)]
        (light_doc,) = [d for d in kept if d.id == "light"]
        assert "|||EMAIL_ADDRESS|||" in light_doc.text
        assert "a@b.com" not in light_doc.text

    def test_duplicate_paragraphs_spliced_out(self, tmp_path):
        rng = random.Random(6)
        boiler = "Subscribe to our newsletter for more of the stories that matter to you."
        a = clean_text(rng, 10) + "\n" + boiler
        b = clean_text(rng, 10) + "\n" + boiler
        docs = [
            Document(id="a", text=a, metadata={"url": "http://a.com/"}),
            Document(id="b", text=b, metadata={"url": "http://b.com/"}),
        ]
        shards = write_shards(tmp_path, [docs])
        config = WebPipelineConfig(inputs=shards, out_dir=str(tmp_path / "out"), exact_backend=True)
        run_pipeline_web(config)
        kept = {d.id: d for s in (tmp_path / "out").glob("shard-*.jsonl") for d in read_documents(s)}
        assert boiler in kept["a"].text
        assert boiler not in kept["b"].text

    def test_worker_counts_produce_identical_outputs(self, tmp_path, hate_model):
        rng = random.Random(9)
        from corpuskit.ngram_classifier import save_model as save

        hate_path = tmp_path / "hate.bin"
        save(hate_model, hate_path)
        shards = write_shards(
            tmp_path,
            [
                [
                    Document(
                        id=f"s{s}d{i}",
                        text=clean_text(rng, 8 + i),
                        metadata={"url": f"http://w{s}-{i}.net/"},
                    )
                    for i in range(8)
                ]
                for s in range(4)
            ],
        )
        outputs = {}
        for workers in (1, 4):
            out_dir = tmp_path / f"out-{workers}"
            config = WebPipelineConfig(
                inputs=shards,
                out_dir=str(out_dir),
                exact_backend=True,
                hate_model=str(hate_path),
                workers=workers,
            )
            run_pipeline_web(config)
            outputs[workers] = b"".join(
                p.read_bytes() for p in sorted(out_dir.glob("shard-*.jsonl"))
            )
        assert outputs[1] == outputs[4]

    def test_a_failing_shard_fails_the_job_while_another_runs(self, tmp_path, monkeypatch):
        import corpuskit.pipeline as pipeline

        rng = random.Random(10)
        shards = write_shards(
            tmp_path,
            [[Document(id=f"s{s}", text=clean_text(rng, 10), metadata={"url": f"http://f{s}.org/"})] for s in range(2)],
        )
        failed_at = tmp_path / "failed_at"

        def tag_gopher(doc):
            if doc.id == "s1":
                time.sleep(30)
                return {}
            failed_at.write_text(repr(time.monotonic()))
            raise ValueError("gopher broke")

        monkeypatch.setattr(pipeline, "tag_gopher", tag_gopher)
        config = WebPipelineConfig(inputs=shards, out_dir=str(tmp_path / "out"), exact_backend=True, workers=2)
        with pytest.raises(RuntimeError, match=f"stage quality_content failed on input shard {shards[0]}: gopher broke"):
            run_pipeline_web(config)
        assert time.monotonic() - float(failed_at.read_text()) < 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_dedup_failure_on_the_last_shard_beats_a_quality_failure_on_the_first(
        self, tmp_path, monkeypatch, workers
    ):
        import corpuskit.pipeline as pipeline

        rng = random.Random(11)
        shards = write_shards(
            tmp_path,
            [[Document(id=f"s{s}", text=clean_text(rng, 10), metadata={"url": f"http://e{s}.org/"})] for s in range(3)],
        )
        quality_failed = tmp_path / "quality_failed"

        def tag_gopher(doc):
            quality_failed.touch()
            raise ValueError("gopher broke")

        real_dedupe_by_url = pipeline.dedupe_by_url

        def dedupe_by_url(docs, backend):
            for doc in real_dedupe_by_url(docs, backend):
                if doc[0].id == "s2":
                    # with workers, the first shard's quality task has failed by now
                    deadline = time.monotonic() + 10
                    while workers > 1 and not quality_failed.exists() and time.monotonic() < deadline:
                        time.sleep(0.01)
                    raise OSError("disk full")
                yield doc

        monkeypatch.setattr(pipeline, "tag_gopher", tag_gopher)
        monkeypatch.setattr(pipeline, "dedupe_by_url", dedupe_by_url)
        config = WebPipelineConfig(inputs=shards, out_dir=str(tmp_path / "out"), exact_backend=True, workers=workers)
        with pytest.raises(RuntimeError, match=f"stage url_dedup/doc_dedup failed on input shard {shards[2]}: disk full"):
            run_pipeline_web(config)
        assert quality_failed.exists() == (workers > 1)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_paragraph_failure_comes_before_a_later_shards_quality_failure(self, tmp_path, monkeypatch, workers):
        import corpuskit.pipeline as pipeline

        rng = random.Random(12)
        shards = write_shards(
            tmp_path,
            [[Document(id=f"s{s}", text=clean_text(rng, 10), metadata={"url": f"http://q{s}.org/"})] for s in range(2)],
        )
        real_tag_gopher = pipeline.tag_gopher

        def tag_gopher(doc):
            if doc.id == "s1":
                raise ValueError("gopher broke")
            return real_tag_gopher(doc)

        def dedupe_by_paragraph(docs, backend):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "tag_gopher", tag_gopher)
        monkeypatch.setattr(pipeline, "dedupe_by_paragraph", dedupe_by_paragraph)
        config = WebPipelineConfig(inputs=shards, out_dir=str(tmp_path / "out"), exact_backend=True, workers=workers)
        with pytest.raises(RuntimeError, match=f"stage paragraph_dedup failed on input shard {shards[0]}: disk full"):
            run_pipeline_web(config)
        assert not (tmp_path / "out").exists()

    def test_only_final_shard_keeps_gz_name(self, tmp_path, monkeypatch):
        import corpuskit.pipeline as pipeline

        written = []

        def recording_write(docs, path):
            written.append(Path(path))
            return write_documents(docs, path)

        monkeypatch.setattr(pipeline, "write_documents", recording_write)
        rng = random.Random(6)
        docs = [
            Document(id=f"d{i}", text=clean_text(rng, 10), metadata={"url": f"http://g{i}.org/"})
            for i in range(3)
        ]
        shard = tmp_path / "web-00.jsonl.gz"
        write_documents(docs, shard)
        out = tmp_path / "out"
        run_pipeline_web(WebPipelineConfig(inputs=[str(shard)], out_dir=str(out), exact_backend=True))
        assert len(written) == 3
        assert [p.name for p in written if p.suffix == ".gz"] == ["web-00.jsonl.gz"]
        assert [d.id for d in read_documents(out / "web-00.jsonl.gz")] == ["d0", "d1", "d2"]

    def test_bloom_backend_smoke(self, tmp_path):
        rng = random.Random(8)
        docs = [
            Document(id=f"d{i}", text=clean_text(rng, 11), metadata={"url": f"http://b{i}.io/"})
            for i in range(8)
        ]
        shards = write_shards(tmp_path, [docs])
        config = WebPipelineConfig(
            inputs=shards, out_dir=str(tmp_path / "out"), bloom_n=10_000, bloom_p=1e-4
        )
        reports = run_pipeline_web(config)
        assert reports[-1].kept_docs == 8

    def test_language_filter_drops_foreign_docs(self, tmp_path, lang_model):
        rng = random.Random(7)
        model_path = tmp_path / "lang.bin"
        save_model(lang_model, model_path)
        english = Document(
            id="en",
            text=clean_text(rng, 12),
            metadata={"url": "http://en.com/"},
        )
        # gopher-clean but non-English: required stopwords present, varied
        # lines, sane shape; only the language score should reject it
        foreign_words = ["zxqv", "wqrtz", "kjxy", "qqzt", "vxkw", "jzzq", "xwvk", "qkzv"]
        foreign_lines = []
        for i in range(10):
            words = ["the", "of"] + [rng.choice(foreign_words) for _ in range(7)]
            rng.shuffle(words)
            foreign_lines.append(" ".join(words) + f" nr{i:02d}.")
        foreign = Document(
            id="xx",
            text="\n".join(foreign_lines),
            metadata={"url": "http://xx.com/"},
        )
        from corpuskit.gopher import gopher_report

        assert not gopher_report(foreign.text).matches_any
        shards = write_shards(tmp_path, [[english, foreign]])
        config = WebPipelineConfig(
            inputs=shards,
            out_dir=str(tmp_path / "out"),
            exact_backend=True,
            language_model=str(model_path),
        )
        reports = run_pipeline_web(config)
        by_stage = {r.stage: r for r in reports}
        assert by_stage["quality_content"].drop_reasons.get("lang__en") == 1


def chunked_corpus(n_docs=75, seed=12):
    """Web-like documents, some with toxic sentences, plus documents with no
    sentence, no paragraph or no n-gram, and one over the chunk byte cap."""
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        lines = clean_text(rng, 6 + i % 5).split("\n")
        if i % 3 == 0:
            lines.insert(2, f"Lovely {rng.choice(TOXIC_MARKERS)} {rng.choice(TOXIC_MARKERS)} garden.")
        if i % 4 == 1:
            lines.append(" ".join(rng.choice(ENGLISH_WORDS) for _ in range(10)) + ".")
        docs.append(Document(id=f"d{i}", text="\n".join(lines), metadata={"url": f"http://c{i}.org/"}))
    docs[5] = Document(id="d5", text="", metadata={"url": "http://c5.org/"})
    docs[6] = Document(id="d6", text=" \n\t\n", metadata={"url": "http://c6.org/"})
    docs[7] = Document(id="d7", text="a", metadata={"url": "http://c7.org/"})
    big = "\n".join(clean_text(rng, 20) for _ in range(TAG_CHUNK_BYTES // 1000))
    docs[40] = Document(id="d40", text=big, metadata={"url": "http://c40.org/"})
    assert len(big.encode()) > TAG_CHUNK_BYTES
    return docs


@pytest.fixture
def model_paths(tmp_path, lang_model, hate_model, nsfw_model):
    paths = {}
    for name, model in (("lang", lang_model), ("hate", hate_model), ("nsfw", nsfw_model)):
        paths[name] = str(tmp_path / f"{name}.bin")
        save_model(model, paths[name])
    return paths


def tag_specs(paths):
    toxicity = {"hate_model": paths["hate"], "nsfw_model": paths["nsfw"], "threshold": 0.4}
    return [("gopher", {}), ("language_paragraph", {"model": paths["lang"]}), ("toxicity", toxicity), ("c4", {})]


def one_document_records(docs, specs):
    """Each document tagged on its own by every tagger, in spec order."""
    taggers = [build_tagger(name, params) for name, params in specs]
    records = []
    for doc in docs:
        record = DocumentAttributes(id=doc.id)
        for tagger in taggers:
            record.merge(DocumentAttributes(id=doc.id, attributes=tagger(doc)))
        records.append(record)
    return records


def records_as_bits(records):
    return [
        (r.id, [(name, [(sp.start, sp.end, float(sp.score).hex()) for sp in spans]) for name, spans in r.attributes.items()])
        for r in records
    ]


class TestChunkedTagging:
    def test_chunks_close_at_document_count_or_byte_cap(self):
        sizes = []
        tagger = ChunkTagger(lambda docs: sizes.append(len(docs)) or [{"n": []} for _ in docs])

        def chunk_sizes(docs):
            sizes.clear()
            pairs = list(tagged(docs, [tagger]))
            assert [doc.id for doc, _ in pairs] == [attrs.id for _, attrs in pairs] == [doc.id for doc in docs]
            return list(sizes)

        small = [Document(id=f"s{i}", text="x") for i in range(2 * TAG_CHUNK_DOCS + 6)]
        assert chunk_sizes(small) == [TAG_CHUNK_DOCS, TAG_CHUNK_DOCS, 6]
        # a third of the cap in UTF-8 bytes plus 2, but less than that in characters
        third = [Document(id=f"t{i}", text="é" * (TAG_CHUNK_BYTES // 6 + 1)) for i in range(7)]
        assert chunk_sizes(third) == [3, 3, 1]
        huge = Document(id="h", text="x" * (TAG_CHUNK_BYTES + 1))
        assert chunk_sizes([small[0], huge, small[1], small[2]]) == [2, 2]
        assert chunk_sizes([huge, huge]) == [1, 1]
        assert chunk_sizes([]) == []

    def test_tagged_equals_one_document_path(self, model_paths):
        docs = chunked_corpus()
        specs = tag_specs(model_paths) + [("language", {"model": model_paths["lang"]})]
        taggers = [build_tagger(name, params) for name, params in specs]
        got = [attrs for _, attrs in tagged(docs, taggers)]
        expected = one_document_records(docs, specs)
        assert any("toxicity__hate" in r.attributes for r in expected)
        assert any("lang__degenerate" in r.attributes for r in expected)
        assert records_as_bits(got) == records_as_bits(expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_tag_sidecars_unchanged_across_chunk_boundaries(self, tmp_path, model_paths, workers):
        docs = chunked_corpus()
        shards = write_shards(tmp_path, [docs[:45], docs[45:]])
        specs = tag_specs(model_paths)
        report = run_tag(shards, specs, tmp_path / "attrs", workers=workers)
        for shard, part in zip(shards, (docs[:45], docs[45:])):
            expected = tmp_path / "expected.jsonl"
            write_attributes(one_document_records(part, specs), expected)
            assert (tmp_path / "attrs" / Path(shard).name).read_bytes() == expected.read_bytes()
        assert report.input_docs == len(docs)
        assert report.flagged_docs["toxicity__hate"] > 0

    def test_pipeline_web_unchanged_across_chunk_boundaries(self, tmp_path, model_paths, monkeypatch):
        docs = chunked_corpus()
        shards = write_shards(tmp_path, [docs[:45], docs[45:]])
        results = []
        for chunk_docs in (TAG_CHUNK_DOCS, 1):  # 1: every document tagged on its own
            monkeypatch.setattr(shard_io, "TAG_CHUNK_DOCS", chunk_docs)
            out = tmp_path / f"out-{chunk_docs}"
            config = WebPipelineConfig(
                inputs=shards,
                out_dir=str(out),
                exact_backend=True,
                language_model=model_paths["lang"],
                hate_model=model_paths["hate"],
                nsfw_model=model_paths["nsfw"],
                toxicity_threshold=0.4,
            )
            reports = run_pipeline_web(config)
            results.append(([r.to_json() for r in reports], [p.read_bytes() for p in sorted(out.glob("shard-*"))]))
        assert results[0] == results[1]
        quality = results[0][0][2]
        assert quality["input_docs"] > TAG_CHUNK_DOCS and quality["kept_docs"] > 0
        kept = b"".join(results[0][1])
        assert not [marker for marker in TOXIC_MARKERS if marker.encode() in kept]  # toxic sentences spliced out

    def test_gate_hands_each_chunk_tagger_a_chunks_survivors_in_one_call(self):
        docs = [Document(id=f"d{n}", text="x") for n in range(TAG_CHUNK_DOCS + 7)]
        chunk_calls, last_calls = [], []
        first = lambda doc: {"t__first": []}  # noqa: E731
        middle = ChunkTagger(lambda batch: chunk_calls.append([d.id for d in batch]) or [{"t__middle": []} for _ in batch])
        last = lambda doc: last_calls.append(doc.id) or {"t__last": []}  # noqa: E731

        def dropped(doc, attrs):
            # a third of the documents drop after the first tagger, a third after the second
            n = int(doc.id[1:])
            return n % 3 == 0 or (n % 3 == 1 and "t__middle" in attrs.attributes)

        pairs = list(tagged(docs, [first, middle, last], dropped))
        assert [doc.id for doc, _ in pairs] == [attrs.id for _, attrs in pairs] == [doc.id for doc in docs]
        chunks = [range(TAG_CHUNK_DOCS), range(TAG_CHUNK_DOCS, len(docs))]
        assert chunk_calls == [[f"d{n}" for n in chunk if n % 3] for chunk in chunks]
        assert last_calls == [f"d{n}" for n in range(len(docs)) if n % 3 == 2]
        reached = {0: ["t__first"], 1: ["t__first", "t__middle"], 2: ["t__first", "t__middle", "t__last"]}
        assert [list(attrs.attributes) for _, attrs in pairs] == [reached[n % 3] for n in range(len(docs))]

        # a chunk with no survivor is not handed on
        chunk_calls.clear()
        records = [attrs for _, attrs in tagged(docs, [first, middle], lambda doc, attrs: True)]
        assert chunk_calls == [] and all(list(r.attributes) == ["t__first"] for r in records)

    def test_gate_that_drops_nothing_changes_no_chunk_or_record(self):
        sizes = []
        counter = ChunkTagger(lambda batch: sizes.append(len(batch)) or [{"n__len": [AttributeSpan(0, 1, len(batch))]} for _ in batch])
        taggers = [build_tagger("c4"), counter, build_tagger("repetition")]
        docs = chunked_corpus()
        runs = []
        for gate in ((), (lambda doc, attrs: False,)):
            sizes.clear()
            records = [attrs for _, attrs in tagged(docs, taggers, *gate)]
            runs.append((list(sizes), records_as_bits(records)))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) > 1


def varied_text(rng, n_lines, i):
    """Text passing every web quality rule: a stopword line and lines of
    words from a wide vocabulary, so no line or long n-gram repeats, and
    no paragraph is shared with another document ``i``."""
    lines = [f"The band went to show {i}, and most of that crowd would have stayed with them."]
    for _ in range(n_lines):
        lines.append(" ".join(rng.choice(ENGLISH_WORDS + BENIGN_WORDS) for _ in range(9)).capitalize() + ".")
    return "\n".join(lines)


def cascade_corpus(rng):
    """Documents dropped for every reason of the quality stage, some of
    them at once (a too-short text is also unpunctuated), and kept ones:
    clean, masked, spliced, and spliced and masked."""
    foreign_words = ["zxqv", "wqrtz", "kjxy", "qqzt", "vxkw", "jzzq", "xwvk", "qkzv"]
    toxic = [f"Lovely {rng.choice(TOXIC_MARKERS)} {rng.choice(TOXIC_MARKERS)} garden." for _ in range(8)]
    docs = []
    for i in range(48):
        kind = i % 12
        text = varied_text(rng, 8 + i % 5, i)
        if kind == 1:
            text += "\n" + " ".join(f"u{i}x{j}@h{j}.net" for j in range(7)) + " end."
        elif kind == 2:
            text = f"tiny fragment {i}"
        elif kind == 3:
            text = text.split("\n")[0] + "\n" + "\n".join(" ".join(rng.choice(ENGLISH_WORDS) for _ in range(6)) for _ in range(12))
        elif kind == 4:
            text = varied_text(rng, 110, i) + "\n" + "spam " * 110 + "end."
        elif kind == 5:
            lines = [" ".join(["the", "of"] + [rng.choice(foreign_words) for _ in range(7)]) + f" nr{i}x{j}." for j in range(10)]
            text = "\n".join(lines)
        elif kind == 6:
            text += "\n" + toxic[i // 12]
        elif kind == 7:
            text += f"\nWrite to box{i}@dropmail.org about item {i}.\n" + toxic[4 + i // 12]
        elif kind == 8:
            text += f"\nWrite to box{i}@dropmail.org about item {i}."
        elif kind == 9:  # every sentence toxic
            lines = []
            for j in range(7):
                words = [rng.choice(BENIGN_WORDS) for _ in range(6)] + [rng.choice(TOXIC_MARKERS)]
                rng.shuffle(words)
                lines.append(f"The {' '.join(words)} and {rng.choice(ENGLISH_WORDS)} {i}x{j}.")
            text = "\n".join(lines)
        docs.append(Document(id=f"q{i}", text=text, metadata={"url": f"http://q{i}.org/"}))
    return docs


def reference_quality(docs, paths, tau=0.4):
    """The quality stage without a cascade: every tagger tags every
    document, then its decision: PII density on the original text, the
    filters in order, and PII masking on the text the splice left.
    Returns each document's decision and the ids of the spliced kept ones."""
    toxicity = {"hate_model": paths["hate"], "nsfw_model": paths["nsfw"], "threshold": tau}
    specs = [("gopher", {}), ("c4", {}), ("repetition", {}), ("language", {"model": paths["lang"]}), ("toxicity", toxicity)]
    exprs = QUALITY_DROP_FILTERS + [
        FilterExpr("lang__en", "document", "<", ENGLISH_KEEP_THRESHOLD, "drop_doc"),
        FilterExpr("toxicity__hate", "span", ">", tau, "remove_span"),
        FilterExpr("toxicity__nsfw", "span", ">", tau, "remove_span"),
    ]
    decisions, spliced = [], set()
    for doc, attrs in tagged(docs, [build_tagger(name, params) for name, params in specs]):
        pii = tag_pii(doc)
        if len(pii) > MAX_SPANS_FOR_MASKING:
            decisions.append(Drop("pii_density"))
            continue
        decision = apply_filters(doc, attrs, exprs)
        if isinstance(decision, Keep):
            edited = decision.doc
            if edited is not doc:
                spliced.add(doc.id)
            decision = apply_pii_policy(edited, pii if edited is doc else tag_pii(edited))
        decisions.append(decision)
    return decisions, spliced


class TestQualityCascade:
    """The quality stage tags in drop order and stops at a document's first
    drop, with the outputs of tagging everything and then deciding."""

    @pytest.mark.parametrize("chunk_docs", [TAG_CHUNK_DOCS, 1])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_every_tagger_then_decide(self, tmp_path, model_paths, monkeypatch, workers, chunk_docs):
        import corpuskit.pipeline as pipeline

        docs = cascade_corpus(random.Random(21))
        parts = [docs[:20], docs[20:]]
        shards = write_shards(tmp_path, parts)
        expected_report = StageReport(stage="quality_content")
        reason, spliced = {}, set()  # each document's drop reason (None: kept), the spliced kept ones
        for n, part in enumerate(parts):
            decisions, part_spliced = reference_quality(part, model_paths)
            reason.update((doc.id, getattr(d, "reason", None)) for doc, d in zip(part, decisions))
            spliced |= part_spliced
            write_documents(expected_report.kept(decisions), tmp_path / f"expected-{n}.jsonl")
        reasons = expected_report.drop_reasons
        assert set(reasons) == {"pii_density", *(e.attribute for e in QUALITY_DROP_FILTERS), "lang__en", "emptied"}
        assert [doc.id for doc in docs if doc.id in spliced and "@" in doc.text]  # masked after a splice

        # every call is noted in a file, so that workers' calls count too
        calls = tmp_path / "calls.jsonl"

        def note(kind, ids):
            with open(calls, "a") as f:
                f.write(json.dumps([kind, ids]) + "\n")

        by_text = {doc.text: doc.id for doc in docs}
        score_english, tag_toxicity_many, tag_pii_ = pipeline.score_english, pipeline.tag_toxicity_many, pipeline.tag_pii
        monkeypatch.setattr(pipeline, "score_english", lambda model, text: note("lang", [by_text[text]]) or score_english(model, text))
        monkeypatch.setattr(
            pipeline, "tag_toxicity_many", lambda batch, *a: note("toxicity", [d.id for d in batch]) or tag_toxicity_many(batch, *a)
        )
        monkeypatch.setattr(pipeline, "tag_pii", lambda doc: note("pii", [doc.id]) or tag_pii_(doc))
        monkeypatch.setattr(shard_io, "TAG_CHUNK_DOCS", chunk_docs)
        config = WebPipelineConfig(
            inputs=shards,
            out_dir=str(tmp_path / "out"),
            exact_backend=True,
            language_model=model_paths["lang"],
            hate_model=model_paths["hate"],
            nsfw_model=model_paths["nsfw"],
            toxicity_threshold=0.4,
            workers=workers,
        )
        reports = run_pipeline_web(config)

        # the dedup stages keep every document, so the curated shards are the quality stage's
        assert [r.dropped_docs for r in reports] == [0, 0, sum(reasons.values()), 0]
        assert reports[2].to_json() == expected_report.to_json()
        for n, shard in enumerate(shards):
            assert (tmp_path / "out" / Path(shard).name).read_bytes() == (tmp_path / f"expected-{n}.jsonl").read_bytes()

        before_language = {"pii_density", *(e.attribute for e in QUALITY_DROP_FILTERS)}
        noted = [json.loads(line) for line in calls.read_text().splitlines()]
        lang_ids = [i for kind, ids in noted if kind == "lang" for i in ids]
        toxicity_calls = [ids for kind, ids in noted if kind == "toxicity"]
        pii_ids = [i for kind, ids in noted if kind == "pii" for i in ids]
        assert sorted(lang_ids) == sorted(i for i in reason if reason[i] not in before_language)
        assert sorted(sum(toxicity_calls, [])) == sorted(i for i in reason if reason[i] not in before_language | {"lang__en"})
        order = {doc.id: n for n, doc in enumerate(docs)}
        assert all(ids == sorted(ids, key=order.get) for ids in toxicity_calls)
        assert all(len(ids) <= chunk_docs for ids in toxicity_calls)
        assert sorted(pii_ids) == sorted([doc.id for doc in docs] + list(spliced))
