import random

import pytest

from corpuskit import mixer
from corpuskit.documents import AttributeSpan, Document, DocumentAttributes
from corpuskit.filters import FilterExpr
from corpuskit.mixer import (
    MixConfig,
    MixConfigError,
    StreamConfig,
    iter_doc_attrs,
    measure_source_sizes,
    mix,
    sample_proportions,
)
from corpuskit.shard_io import ShardPool, read_documents, write_attributes, write_documents


def write_corpus(path, docs):
    write_documents(docs, path)
    return str(path)


def output_bytes(out_dir):
    return b"".join(p.read_bytes() for p in sorted(out_dir.glob("part-*.jsonl")))


class TestSampleProportions:
    def test_equal_sizes_equal_weights_sample_everything(self):
        rates = sample_proportions({"a": 1.0, "b": 1.0}, {"a": 100.0, "b": 100.0})
        assert rates == {"a": 1.0, "b": 1.0}

    def test_naive_mix_shares_from_relative_sizes(self):
        # sampling 100% of every source realizes the sources' size shares
        sizes = {"web": 2479.0, "code": 411.0, "ref": 74.3, "books": 6.0}
        rates = sample_proportions(dict(sizes), sizes)
        assert all(rate == 1.0 for rate in rates.values())
        total = sum(sizes.values())
        shares = {name: 100 * size / total for name, size in sizes.items()}
        assert shares["web"] == pytest.approx(83.5, abs=0.05)
        assert shares["code"] == pytest.approx(13.8, abs=0.05)
        assert shares["ref"] == pytest.approx(2.5, abs=0.05)
        assert shares["books"] == pytest.approx(0.2, abs=0.05)

    def test_expected_shares_match_weights_closed_form(self):
        rng = random.Random(42)
        for _ in range(50):
            weights = {f"s{i}": rng.random() + 0.01 for i in range(4)}
            sizes = {f"s{i}": rng.random() * 1000 + 1 for i in range(4)}
            rates = sample_proportions(weights, sizes)
            assert max(rates.values()) == 1.0
            expected_mass = {k: rates[k] * sizes[k] for k in weights}
            total = sum(expected_mass.values())
            weight_total = sum(weights.values())
            for k in weights:
                assert abs(expected_mass[k] / total - weights[k] / weight_total) <= 1e-12

    def test_zero_weight_source_excluded(self):
        rates = sample_proportions({"a": 1.0, "b": 0.0}, {"a": 10.0, "b": 10.0})
        assert rates == {"a": 1.0, "b": 0.0}

    def test_all_zero_weights_rejected(self):
        with pytest.raises(MixConfigError):
            sample_proportions({"a": 0.0}, {"a": 10.0})

    def test_weighted_source_with_no_mass_rejected(self):
        with pytest.raises(MixConfigError):
            sample_proportions({"a": 1.0}, {"a": 0.0})

    def test_source_with_mass_but_no_weight_rejected(self):
        with pytest.raises(MixConfigError, match="source 'c' has input mass but no proportion weight"):
            sample_proportions({"a": 3.0, "b": 1.0}, {"a": 10.0, "c": 10.0, "b": 10.0, "d": 10.0})
        # a source with no mass is never sampled, so it needs no weight
        assert sample_proportions({"a": 1.0}, {"a": 10.0, "c": 0}) == {"a": 1.0}


class TestMixBasics:
    def test_identity_mix_preserves_documents(self, tmp_path):
        docs = [Document(id=f"d{i}", text=f"body {i}", source="src") for i in range(20)]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        config = MixConfig(streams=[StreamConfig(documents=[shard])], seed=0)
        report = mix(config, tmp_path / "out")
        out_docs = []
        for part in sorted((tmp_path / "out").glob("part-*.jsonl")):
            out_docs.extend(read_documents(part))
        assert out_docs == docs
        src = report.sources["src"]
        assert (src.input_docs, src.kept_docs, src.dropped_docs) == (20, 20, 0)
        assert src.kept_text_bytes == sum(len(d.text.encode()) for d in docs)

    def test_upsample_factor_two_duplicates_docs(self, tmp_path):
        docs = [Document(id=f"d{i}", text=f"body {i}", source="up") for i in range(10)]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        config = MixConfig(
            streams=[StreamConfig(documents=[shard])], upsample={"up": 2}, seed=0
        )
        mix(config, tmp_path / "out")
        out_ids = [
            d.id for p in sorted((tmp_path / "out").glob("part-*.jsonl")) for d in read_documents(p)
        ]
        for doc in docs:
            assert out_ids.count(doc.id) == 2

    def test_filters_drop_documents(self, tmp_path):
        docs = [Document(id=f"d{i}", text=f"body {i}", source="s") for i in range(10)]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        attrs = [
            DocumentAttributes(
                id=f"d{i}",
                attributes={"flag__bad": [AttributeSpan(0, 6, 1.0)]} if i % 2 else {},
            )
            for i in range(10)
        ]
        attr_dir = tmp_path / "attrs"
        attr_dir.mkdir()
        write_attributes(attrs, attr_dir / "in.jsonl")
        config = MixConfig(
            streams=[
                StreamConfig(
                    documents=[shard],
                    attributes=[str(attr_dir)],
                    filters=[FilterExpr("flag__bad", "document", ">=", 1.0, "drop_doc")],
                )
            ],
            seed=0,
        )
        report = mix(config, tmp_path / "out")
        src = report.sources["s"]
        assert (src.input_docs, src.kept_docs, src.dropped_docs) == (10, 5, 5)
        assert src.drop_reasons == {"flag__bad": 5}
        assert src.input_docs == src.kept_docs + src.dropped_docs

    def test_worker_counts_produce_identical_bytes(self, tmp_path):
        rng = random.Random(0)
        shards = []
        for s in range(4):
            docs = [
                Document(id=f"s{s}-d{i}", text=f"body {rng.random()}", source=f"src{s % 2}")
                for i in range(50)
            ]
            shards.append(write_corpus(tmp_path / f"in{s}.jsonl", docs))
        config = MixConfig(
            streams=[StreamConfig(documents=shards)],
            proportions={"src0": 3.0, "src1": 1.0},
            seed=5,
        )
        results = {}
        for workers in (1, 4, 8):
            out = tmp_path / f"out-{workers}"
            mix(config, out, workers=workers)
            results[workers] = output_bytes(out)
        assert results[1] == results[4] == results[8]

    def test_output_shard_size_respected(self, tmp_path):
        docs = [Document(id=f"d{i}", text="x" * 100, source="s") for i in range(30)]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        config = MixConfig(
            streams=[StreamConfig(documents=[shard])], seed=0, output_shard_bytes=500
        )
        mix(config, tmp_path / "out")
        parts = sorted((tmp_path / "out").glob("part-*.jsonl"))
        assert len(parts) > 1
        for part in parts:
            lines = part.read_bytes().splitlines(keepends=True)
            assert lines, "no empty shards"
            assert sum(len(l) for l in lines[:-1]) <= 500  # last line may cross the cap

    def test_seeded_sampling_reproducible(self, tmp_path):
        docs = [Document(id=f"d{i}", text="payload " * 5, source="s") for i in range(200)]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        other = [Document(id=f"o{i}", text="payload " * 5, source="o") for i in range(200)]
        shard2 = write_corpus(tmp_path / "in2.jsonl", other)
        config = MixConfig(
            streams=[StreamConfig(documents=[shard, shard2])],
            proportions={"s": 1.0, "o": 1.0},
            seed=9,
        )
        mix(config, tmp_path / "o1")
        mix(config, tmp_path / "o2")
        assert output_bytes(tmp_path / "o1") == output_bytes(tmp_path / "o2")

    def test_empty_output_not_fatal(self, tmp_path):
        docs = [Document(id="d", text="body", source="s")]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        config = MixConfig(
            streams=[
                StreamConfig(
                    documents=[shard],
                    attributes=[],
                    filters=[],
                )
            ],
            proportions={"s": 1.0},
            seed=0,
        )
        report = mix(config, tmp_path / "out")
        assert report.sources["s"].kept_docs == 1  # rate 1.0 keeps everything

    def test_failed_resharding_leaves_no_partial_shard(self, tmp_path, monkeypatch):
        docs = [Document(id=f"d{i}", text="x" * 100, source="s") for i in range(12)]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        config = MixConfig(streams=[StreamConfig(documents=[shard])], seed=0, output_shard_bytes=300)
        assert len(mix(config, tmp_path / "ok").output_shards) == 6  # two lines per shard

        real_open = open
        writes = 0

        class FailingFile:
            """A file opened for writing; the sixth write fails."""

            def __init__(self, f):
                self.f = f

            def write(self, data):
                nonlocal writes
                writes += 1
                if writes == 6:
                    raise OSError("disk full")
                return self.f.write(data)

            def close(self):
                self.f.close()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        def failing_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            return FailingFile(f) if "w" in mode else f

        monkeypatch.setattr(mixer, "open", failing_open, raising=False)
        out = tmp_path / "failed"
        with pytest.raises(OSError, match="disk full"):
            mix(config, out)
        assert not list(out.rglob("*.tmp")) and not (out / ".mix-parts").exists()
        # the third shard failed after one line; the two before it are removed
        assert not list(out.glob("part-*.jsonl"))


class TestAlignment:
    def test_misaligned_attribute_ids_rejected(self, tmp_path):
        docs = [Document(id="a", text="x"), Document(id="b", text="y")]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        attr_dir = tmp_path / "attrs"
        attr_dir.mkdir()
        write_attributes(
            [DocumentAttributes(id="a"), DocumentAttributes(id="WRONG")], attr_dir / "in.jsonl"
        )
        with pytest.raises(ValueError, match="misaligned"):
            list(iter_doc_attrs(shard, [str(attr_dir)]))

    def test_short_attribute_shard_rejected(self, tmp_path):
        docs = [Document(id="a", text="x"), Document(id="b", text="y")]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        attr_dir = tmp_path / "attrs"
        attr_dir.mkdir()
        write_attributes([DocumentAttributes(id="a")], attr_dir / "in.jsonl")
        with pytest.raises(ValueError, match="shorter"):
            list(iter_doc_attrs(shard, [str(attr_dir)]))

    def test_multiple_sidecars_merge(self, tmp_path):
        docs = [Document(id="a", text="xyz")]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        d1, d2 = tmp_path / "attrs1", tmp_path / "attrs2"
        d1.mkdir(), d2.mkdir()
        write_attributes(
            [DocumentAttributes(id="a", attributes={"t__one": [AttributeSpan(0, 1, 1.0)]})],
            d1 / "in.jsonl",
        )
        write_attributes(
            [DocumentAttributes(id="a", attributes={"t__two": [AttributeSpan(1, 2, 1.0)]})],
            d2 / "in.jsonl",
        )
        ((doc, merged),) = iter_doc_attrs(shard, [str(d1), str(d2)])
        assert set(merged.attributes) == {"t__one", "t__two"}

    def test_missing_sidecar_reported(self, tmp_path):
        docs = [Document(id="a", text="x")]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        empty_dir = tmp_path / "attrs"
        empty_dir.mkdir()
        with pytest.raises(FileNotFoundError):
            list(iter_doc_attrs(shard, [str(empty_dir)]))


class TestConfig:
    def test_from_json_matches_external_interface(self):
        obj = {
            "streams": [
                {
                    "documents": ["a.jsonl"],
                    "attributes": ["attrs/"],
                    "filters": [
                        {
                            "attribute": "gopher__matches_any",
                            "scope": "document",
                            "op": ">=",
                            "threshold": 1,
                            "action": "drop_doc",
                        }
                    ],
                }
            ],
            "proportions": {"web": 0.5},
            "upsample": {"books": 2},
            "seed": 3,
        }
        config = MixConfig.from_json(obj)
        assert config.streams[0].filters[0].attribute == "gopher__matches_any"
        assert config.upsample == {"books": 2}
        assert config.seed == 3

    def test_validation(self):
        with pytest.raises(MixConfigError):
            MixConfig(streams=[])
        with pytest.raises(MixConfigError):
            MixConfig(streams=[StreamConfig(documents=["x"])], proportions={"a": -1.0})
        with pytest.raises(MixConfigError):
            MixConfig(streams=[StreamConfig(documents=["x"])], upsample={"a": 0})

    def test_measure_source_sizes_counts_upsampling(self, tmp_path):
        docs = [Document(id="d", text="12345", source="s")]
        shard = write_corpus(tmp_path / "in.jsonl", docs)
        config = MixConfig(streams=[StreamConfig(documents=[shard])], upsample={"s": 3})
        with ShardPool(1) as pool:
            assert measure_source_sizes(config, pool) == {"s": 15}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_measure_source_sizes_sums_every_input_file(self, tmp_path, workers):
        a = write_corpus(
            tmp_path / "a.jsonl",
            [Document(id="a0", text="12345", source="s"), Document(id="a1", text="héllo", source="t")],
        )
        b = write_corpus(tmp_path / "b.jsonl", [Document(id="b0", text="123", source="s")])
        c = write_corpus(tmp_path / "c.jsonl", [Document(id="c0", text="xy", source="u")])
        # a file listed in two streams is measured twice, as it is mixed twice
        streams = [StreamConfig(documents=[a, b]), StreamConfig(documents=[c, a])]
        config = MixConfig(streams=streams, upsample={"s": 3, "u": 2})
        with ShardPool(workers) as pool:
            got = measure_source_sizes(config, pool)
        # the serial sum over every document of every listed file
        expected: dict[str, int] = {}
        for path in [a, b, c, a]:
            for doc in read_documents(path):
                size = len(doc.text.encode("utf-8")) * config.upsample.get(doc.source, 1)
                expected[doc.source] = expected.get(doc.source, 0) + size
        assert got == expected == {"s": 39, "t": 12, "u": 4}
