import gzip
import json
import multiprocessing
import os
import random
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

import corpuskit
from conftest import BENIGN_WORDS, OTHER_WORDS, ENGLISH_WORDS, child_pids, running, sentence
from corpuskit import cli, pipeline
from corpuskit.bloom import BloomFilter, bloom_load
from corpuskit.cli import build_parser, main
from corpuskit.documents import Document
from corpuskit.ngram_classifier import load_model, save_model
from corpuskit.shard_io import read_attributes, read_documents, write_documents


def run_cli(*argv):
    return main(list(argv))


def make_shard(tmp_path, name="in.jsonl", n=10, **metadata):
    docs = [
        Document(id=f"d{i}", text=f"Document body number {i}.", source="s", metadata=dict(metadata))
        for i in range(n)
    ]
    path = tmp_path / name
    write_documents(docs, path)
    return path


class TestExitCodes:
    def test_missing_required_option_is_validation_error(self, tmp_path, capsys):
        assert run_cli("stats") == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_validation_error(self):
        assert run_cli("frobnicate") == 1

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        assert run_cli("stats", "--inputs", str(tmp_path / "absent.jsonl")) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_model_with_unknown_feature_kind_is_runtime_error(self, tmp_path, capsys, lang_model):
        # a malformed model file fails like an absent or truncated one
        model = tmp_path / "model.bin"
        save_model(lang_model, model)
        data = bytearray(model.read_bytes())
        data[12] = 7  # the feature-kind byte: 0 word, 1 char
        model.write_bytes(bytes(data))
        config = tmp_path / "tag.json"
        config.write_text(json.dumps({"taggers": [{"name": "language", "params": {"model": str(model)}}]}))
        argv = ["tag", "--config", str(config), "--inputs", str(make_shard(tmp_path)), "--out-dir", str(tmp_path / "o")]
        assert run_cli(*argv) == 2
        assert "feature kind byte 7" in capsys.readouterr().err

    def test_malformed_bloom_filter_is_runtime_error_naming_it(self, tmp_path, capsys):
        # m = 0 in the header: refused as a format error, like a malformed shard
        filt = tmp_path / "m0.bloom"
        filt.write_bytes(struct.pack("<8sIQIQB", b"CKBLOOM1", 1, 0, 3, 0, 1))
        argv = ["decontaminate", "--load-filter", str(filt), "--inputs", str(make_shard(tmp_path))]
        assert run_cli(*argv, "--out-dir", str(tmp_path / "attrs")) == 2
        assert f"runtime failure: {filt}: need m >= 1 and k >= 1, got m=0, k=3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, damage, reason",
        [
            ("utf8.jsonl", lambda data: data[:20] + b"\xff" + data[20:], "'utf-8' codec can't decode byte 0xff"),
            ("cut.jsonl.gz", lambda data: gzip.compress(data, mtime=0)[:-12], "Compressed file ended"),
        ],
    )
    def test_undecodable_shard_is_runtime_error_naming_it(self, tmp_path, capsys, name, damage, reason):
        shard = make_shard(tmp_path)
        bad = tmp_path / name
        bad.write_bytes(damage(shard.read_bytes()))
        assert run_cli("stats", "--inputs", str(shard), str(bad)) == 2
        err = capsys.readouterr().err
        assert f"runtime failure: {bad}:" in err and reason in err

    @pytest.mark.parametrize(
        "argv, record",
        [
            (["stats"], {"text": "bad \\ud800 here"}),
            (["tag", "--taggers", "gopher", "--out-dir", "attrs"], {"text": "bad \\ud800 here"}),
            (["dedupe", "--stage", "url", "--exact", "--out-dir", "attrs"], {"metadata": {"url": "http://a.org/\\udc80"}}),
        ],
        ids=["stats", "tag", "dedupe-url"],
    )
    def test_lone_surrogate_escape_is_runtime_error_naming_its_line(self, tmp_path, monkeypatch, capsys, argv, record):
        monkeypatch.chdir(tmp_path)
        # line 1 escapes a valid surrogate pair, which reads; line 2 a lone one
        pair = '{"id": "a", "text": "ok \\ud83d\\ude00", "metadata": {"url": "http://a.org/\\ud83d\\ude00"}}'
        lone = json.dumps({"id": "b", "text": "", **record}).replace("\\\\u", "\\u")
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        good.write_text(pair + "\n")
        bad.write_text(pair + "\n" + lone + "\n")
        assert run_cli(*argv, "--inputs", str(good)) == 0
        assert next(read_documents(good)).text == "ok \U0001f600"
        capsys.readouterr()
        assert run_cli(*argv, "--inputs", str(bad)) == 2
        err = capsys.readouterr().err
        assert f"runtime failure: {bad}:2: 'utf-8' codec can't encode character" in err

    def test_success_is_zero(self, tmp_path):
        shard = make_shard(tmp_path)
        assert run_cli("stats", "--inputs", str(shard)) == 0


class TestStats:
    def test_reports_counts(self, tmp_path, capsys):
        shard = make_shard(tmp_path, n=4)
        assert run_cli("stats", "--inputs", str(shard)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["documents"] == 4
        assert payload["unicode_words"] == 16
        assert payload["utf8_bytes"] == sum(
            len(d.text.encode()) for d in read_documents(shard)
        )

    def test_report_written_to_file(self, tmp_path):
        shard = make_shard(tmp_path)
        report = tmp_path / "report.json"
        assert run_cli("stats", "--inputs", str(shard), "--report", str(report)) == 0
        assert json.loads(report.read_text())["documents"] == 10


class TestTagCommand:
    def test_tag_writes_sidecars(self, tmp_path, capsys):
        shard = make_shard(tmp_path)
        out = tmp_path / "attrs"
        assert (
            run_cli("tag", "--inputs", str(shard), "--taggers", "gopher,c4", "--out-dir", str(out))
            == 0
        )
        records = list(read_attributes(out / "in.jsonl"))
        assert len(records) == 10
        payload = json.loads(capsys.readouterr().out)
        assert payload["attributes"]["gopher__matches_any"]["documents_pct"] == 100.0

    def test_unknown_tagger_is_validation_error(self, tmp_path):
        shard = make_shard(tmp_path)
        assert run_cli("tag", "--inputs", str(shard), "--taggers", "bogus", "--out-dir", str(tmp_path / "a")) == 1

    def test_config_file_supplies_options(self, tmp_path):
        shard = make_shard(tmp_path)
        config = tmp_path / "tag.json"
        config.write_text(
            json.dumps(
                {"inputs": [str(shard)], "taggers": ["gopher"], "out_dir": str(tmp_path / "attrs")}
            )
        )
        report = tmp_path / "r.json"
        assert run_cli("tag", "--config", str(config), "--report", str(report)) == 0
        assert (tmp_path / "attrs" / "in.jsonl").exists()


class TestDedupeCommand:
    def test_document_stage_flags_duplicates(self, tmp_path, capsys):
        docs = [Document(id="a", text="same"), Document(id="b", text="same"), Document(id="c", text="other")]
        shard = tmp_path / "in.jsonl"
        write_documents(docs, shard)
        out = tmp_path / "attrs"
        assert run_cli("dedupe", "--stage", "document", "--inputs", str(shard), "--out-dir", str(out), "--exact") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flagged_documents"] == 1
        records = list(read_attributes(out / "in.jsonl"))
        assert "dedupe__doc_duplicate" in records[1].attributes

    def test_bloom_filter_saved(self, tmp_path):
        shard = make_shard(tmp_path)
        out = tmp_path / "attrs"
        filt = tmp_path / "f.bloom"
        assert (
            run_cli(
                "dedupe", "--stage", "document", "--inputs", str(shard),
                "--out-dir", str(out), "--bloom-n", "1000", "--save-filter", str(filt),
            )
            == 0
        )
        assert filt.exists()

    def test_ccnet_grouped_paragraph_dedupe(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_documents([Document(id="a0", text="shared para\nunique a")], a)
        write_documents([Document(id="b0", text="shared para\nunique b")], b)
        out = tmp_path / "attrs"
        assert (
            run_cli(
                "dedupe", "--stage", "paragraph", "--inputs", str(a), str(b),
                "--out-dir", str(out), "--ccnet-group-bytes", str(10**9),
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["grouping"] == "ccnet" and payload["flagged_documents"] == 1
        (rec_b,) = read_attributes(out / "b.jsonl")
        assert "dedupe__dup_paragraph" in rec_b.attributes
        # a cap below one shard size puts every shard in its own group
        out2 = tmp_path / "attrs2"
        assert (
            run_cli(
                "dedupe", "--stage", "paragraph", "--inputs", str(a), str(b),
                "--out-dir", str(out2), "--ccnet-group-bytes", "10",
                "--report", str(tmp_path / "r.json"),
            )
            == 0
        )
        (rec_b2,) = read_attributes(out2 / "b.jsonl")
        assert rec_b2.attributes == {}

    def test_ccnet_flag_requires_paragraph_stage(self, tmp_path):
        shard = make_shard(tmp_path)
        assert (
            run_cli(
                "dedupe", "--stage", "url", "--inputs", str(shard),
                "--out-dir", str(tmp_path / "x"), "--ccnet-group-bytes", "100",
            )
            == 1
        )


class TestDecontaminateCommand:
    def test_flags_contaminated_docs(self, tmp_path, capsys):
        long_para = " ".join(f"token{i}" for i in range(20))
        test_set = tmp_path / "test.jsonl"
        write_documents([Document(id="t", text=long_para)], test_set)
        corpus = tmp_path / "corpus.jsonl"
        write_documents(
            [
                Document(id="dirty", text="intro\n" + long_para),
                Document(id="clean", text="nothing shared here at all"),
            ],
            corpus,
        )
        out = tmp_path / "attrs"
        assert (
            run_cli(
                "decontaminate", "--test-set", str(test_set), "--inputs", str(corpus),
                "--out-dir", str(out), "--exact",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["contaminated_documents"] == 1
        records = {r.id: r for r in read_attributes(out / "corpus.jsonl")}
        assert "decontamination__contaminated" in records["dirty"].attributes
        assert records["clean"].attributes == {}

    def test_save_and_reload_filter(self, tmp_path):
        long_para = " ".join(f"tok{i}" for i in range(20))
        test_set = tmp_path / "test.jsonl"
        write_documents([Document(id="t", text=long_para)], test_set)
        corpus = tmp_path / "c.jsonl"
        write_documents([Document(id="x", text=long_para)], corpus)
        filt = tmp_path / "seeded.bloom"
        assert (
            run_cli(
                "decontaminate", "--test-set", str(test_set), "--inputs", str(corpus),
                "--out-dir", str(tmp_path / "a1"), "--save-filter", str(filt),
            )
            == 0
        )
        assert (
            run_cli(
                "decontaminate", "--load-filter", str(filt), "--inputs", str(corpus),
                "--out-dir", str(tmp_path / "a2"),
            )
            == 0
        )
        r1 = list(read_attributes(tmp_path / "a1" / "c.jsonl"))
        r2 = list(read_attributes(tmp_path / "a2" / "c.jsonl"))
        assert r1 == r2

    def test_failed_run_saves_no_filter(self, tmp_path):
        # the filter is written after the sidecars, so a run that fails on its third shard writes none
        test_set = make_shard(tmp_path, name="eval.jsonl", n=2)
        shards = [str(make_shard(tmp_path, name=f"s{s}.jsonl")) for s in range(4)]
        with open(shards[2], "a") as f:
            f.write('{"id": "bad", "text": \n')
        filt = tmp_path / "f.bloom"
        argv = ["--inputs", *shards, "--out-dir", str(tmp_path / "attrs"), "--save-filter", str(filt)]
        assert run_cli("decontaminate", "--test-set", str(test_set), *argv) == 2
        assert not filt.exists()


def health(bloom: BloomFilter) -> dict:
    fill = int.from_bytes(bloom.bits, "little").bit_count() / bloom.m
    return {"m": bloom.m, "k": bloom.k, "fill": fill, "estimated_fpr": fill**bloom.k}


class TestFilterHealth:
    """Reports with a Bloom filter end in its size, fill and estimated FPR."""

    def run_json(self, tmp_path, name, *argv):
        report = tmp_path / f"{name}.json"
        assert run_cli(*argv, "--out-dir", str(tmp_path / name), "--report", str(report)) == 0
        return json.loads(report.read_text())

    def test_reported_fill_equals_saved_filter_popcount(self, tmp_path):
        shard = tmp_path / "in.jsonl"
        long_para = " ".join(f"tok{i}" for i in range(20))
        write_documents([Document(id=f"d{i}", text=f"{long_para}\nline {i % 3}") for i in range(30)], shard)
        dedupe_report = self.run_json(
            tmp_path, "dedupe", "dedupe", "--stage", "paragraph", "--inputs", str(shard),
            "--bloom-n", "50", "--save-filter", str(tmp_path / "d.bloom"),
        )
        seed_report = self.run_json(
            tmp_path, "seed", "decontaminate", "--test-set", str(shard), "--inputs", str(shard),
            "--min-paragraph-tokens", "0", "--save-filter", str(tmp_path / "s.bloom"),
        )
        loaded_report = self.run_json(
            tmp_path, "loaded", "decontaminate", "--load-filter", str(tmp_path / "s.bloom"), "--inputs", str(shard),
        )
        # four distinct paragraphs go in: the long one and "line 0" to "line 2"; the
        # seeded filter is sized to the 60 paragraphs the gate admits, and a loaded
        # file records no size
        for report, path, added, n_target in [
            (dedupe_report, "d.bloom", 4, 50), (seed_report, "s.bloom", 4, 60), (loaded_report, "s.bloom", 0, None),
        ]:
            saved = bloom_load(tmp_path / path)
            assert 0 < saved.popcount() < saved.m
            assert report["bloom"] == {**health(saved), "added": added, "n_target": n_target}
            assert list(report["bloom"]) == ["m", "k", "fill", "estimated_fpr", "added", "n_target"]
            assert list(report)[-1] == "bloom"  # the key is added last
        assert list(dedupe_report) == [
            "stage", "documents", "flagged_documents", "flagged_paragraphs", "missing_url", "bloom",
        ]
        assert list(seed_report) == ["documents", "contaminated_documents", "min_paragraph_tokens", "bloom"]

    def test_exact_and_grouped_reports_unchanged(self, tmp_path):
        shard = make_shard(tmp_path)
        exact = self.run_json(tmp_path, "exact", "dedupe", "--stage", "document", "--inputs", str(shard), "--exact")
        grouped = self.run_json(
            tmp_path, "ccnet", "dedupe", "--stage", "paragraph", "--inputs", str(shard), "--ccnet-group-bytes", "1000",
        )
        decon = self.run_json(
            tmp_path, "decon", "decontaminate", "--test-set", str(shard), "--inputs", str(shard), "--exact",
        )
        assert list(exact) == ["stage", "documents", "flagged_documents", "flagged_paragraphs", "missing_url"]
        assert list(grouped) == ["stage", "grouping", "max_group_bytes", "documents", "flagged_documents"]
        assert list(decon) == ["documents", "contaminated_documents", "min_paragraph_tokens"]

    def test_tag_mix_and_pipeline_report_keys_unchanged(self, tmp_path):
        shard = make_shard(tmp_path)
        tag = self.run_json(tmp_path, "tag", "tag", "--inputs", str(shard), "--taggers", "c4")
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"streams": [{"documents": [str(shard)]}]}))
        mix = self.run_json(tmp_path, "mix", "mix", "--config", str(config))
        web = self.run_json(tmp_path, "web", "pipeline-web", "--inputs", str(shard), "--exact")
        assert list(tag) == ["total_documents", "total_text_bytes", "attributes", "wall_seconds", "docs_per_second"]
        assert tag["attributes"]
        for attribute in tag["attributes"].values():
            assert list(attribute) == ["documents", "documents_pct", "characters", "characters_pct"]
        assert list(mix) == ["sources", "total_kept_docs", "total_kept_text_bytes", "output_shards"]
        assert list(mix["sources"]["s"]) == [
            "input_docs", "kept_docs", "dropped_docs", "sampled_out_docs", "kept_text_bytes", "byte_share",
            "drop_reasons",
        ]
        assert list(web) == ["stages"]
        assert [s["stage"] for s in web["stages"]] == ["url_dedup", "doc_dedup", "quality_content", "paragraph_dedup"]
        for stage in web["stages"]:
            assert list(stage) == ["stage", "input_docs", "kept_docs", "dropped_docs", "drop_reasons"]

    def test_warning_when_filter_passes_its_target(self, tmp_path, caplog):
        shard = make_shard(tmp_path, n=40)
        argv = ["dedupe", "--stage", "document", "--inputs", str(shard), "--bloom-p", "0.01"]
        with caplog.at_level("WARNING", logger="corpuskit"):
            roomy = self.run_json(tmp_path, "roomy", *argv, "--bloom-n", "1000")
        assert roomy["bloom"]["estimated_fpr"] <= 0.01 and not caplog.records
        with caplog.at_level("WARNING", logger="corpuskit"):
            full = self.run_json(tmp_path, "full", *argv, "--bloom-n", "2")
        assert full["bloom"]["estimated_fpr"] > 0.01
        (record,) = caplog.records
        assert "sized for 2" in record.getMessage() and "target of 0.01" in record.getMessage()

    def test_warning_once_past_the_sized_key_count(self, caplog):
        bloom = BloomFilter.create(5, 0.01)
        for i in range(12):
            before = bloom.added
            if i % 2:
                bloom.insert_check(b"key %d" % i)
            else:
                bloom.insert_check_many([b"key %d" % i, b"key %d" % i])
            assert bloom.added - before in (0, 1)  # 0 only for a false positive
            caplog.clear()
            with caplog.at_level("WARNING", logger="corpuskit"):
                assert bloom.health() == {**health(bloom), "added": bloom.added, "n_target": 5}
            assert bool(caplog.records) is (bloom.added > 5)
        assert bloom.added > 5

    @pytest.mark.parametrize("n_paragraphs", [1, 10, 25])
    def test_no_warning_for_a_filter_seeded_at_its_sized_count(self, tmp_path, caplog, n_paragraphs):
        # decontaminate sizes its filter to the seeded paragraphs; at these
        # counts the fill puts the estimated rate above the target by chance
        test_set = tmp_path / "test.jsonl"
        docs = [Document(id=f"t{i}", text=" ".join(f"word{i} tok{j}" for j in range(20))) for i in range(n_paragraphs)]
        write_documents(docs, test_set)
        with caplog.at_level("WARNING", logger="corpuskit"):
            report = self.run_json(
                tmp_path, "decon", "decontaminate", "--test-set", str(test_set), "--inputs", str(test_set),
            )
        assert report["contaminated_documents"] == n_paragraphs
        assert report["bloom"]["estimated_fpr"] > 1e-4
        assert not caplog.records


class TestMixCommand:
    def test_mix_from_config(self, tmp_path, capsys):
        shard = make_shard(tmp_path, n=6)
        config = tmp_path / "mix.json"
        config.write_text(
            json.dumps(
                {
                    "streams": [{"documents": [str(shard)], "attributes": [], "filters": []}],
                    "seed": 0,
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        assert run_cli("mix", "--config", str(config)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_kept_docs"] == 6
        assert (tmp_path / "out" / "part-00000.jsonl").exists()

    def test_mix_without_config_is_validation_error(self):
        assert run_cli("mix", "--out-dir", "/tmp/nope") == 1

    def test_stale_shards_of_a_larger_mix_refused(self, tmp_path, capsys):
        docs = [Document(id=f"d{i}", text="x" * 100, source="s") for i in range(12)]
        write_documents(docs, tmp_path / "in.jsonl")
        out = tmp_path / "mixed"

        def run_mix(shard_bytes):
            config = tmp_path / "mix.json"
            streams = [{"documents": [str(tmp_path / "in.jsonl")]}]
            config.write_text(json.dumps({"streams": streams, "seed": 0, "output_shard_bytes": shard_bytes}))
            return run_cli("mix", "--config", str(config), "--out-dir", str(out))

        assert run_mix(300) == 0  # two documents per shard
        before = {p.name: p.read_bytes() for p in out.glob("part-*.jsonl")}
        assert len(before) == 6
        assert run_mix(300) == 0  # the same mix again overwrites all six
        capsys.readouterr()
        assert run_mix(1 << 20) == 1  # one shard; part-00001 to part-00005 would stay
        assert "part-00001.jsonl" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.glob("part-*.jsonl")} == before
        assert not (out / ".mix-parts").exists()

    def test_source_without_a_proportion_weight_refused(self, tmp_path, capsys):
        # unweighted, c would be kept whole: byte shares 0.42 / 0.16 / 0.42, not 3:1
        docs = [Document(id=f"d{i}", text="x" * 40, source="abc"[i % 3]) for i in range(150)]
        write_documents(docs, tmp_path / "in.jsonl")
        config = tmp_path / "mix.json"
        streams = [{"documents": [str(tmp_path / "in.jsonl")]}]
        config.write_text(json.dumps({"streams": streams, "proportions": {"a": 3, "b": 1}}))
        out = tmp_path / "mixed"
        assert run_cli("mix", "--config", str(config), "--out-dir", str(out)) == 1
        assert "source 'c' has input mass but no proportion weight" in capsys.readouterr().err
        assert not list(out.rglob("part-*.jsonl"))


class TestRedditBuildCommand:
    def test_atomic_strategy(self, tmp_path, capsys):
        items = [
            Document(id="s1", text="post", metadata={"kind": "submission", "votes": 5}),
            Document(id="c1", text="reply", metadata={"kind": "comment", "parent_id": "s1", "votes": 3}),
        ]
        shard = tmp_path / "items.jsonl"
        write_documents(items, shard)
        out = tmp_path / "docs.jsonl"
        assert run_cli("reddit-build", "--inputs", str(shard), "--strategy", "atomic", "--out", str(out)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"strategy": "atomic", "items": 2, "documents": 2}

    def test_full_strategy(self, tmp_path):
        items = [
            Document(id="s1", text="post", metadata={"kind": "submission"}),
            Document(id="c1", text="reply", created="t1", metadata={"kind": "comment", "parent_id": "s1"}),
        ]
        shard = tmp_path / "items.jsonl"
        write_documents(items, shard)
        out = tmp_path / "docs.jsonl"
        assert run_cli("reddit-build", "--inputs", str(shard), "--strategy", "full", "--out", str(out)) == 0
        (doc,) = read_documents(out)
        assert doc.text == "post\n\n  reply"

    def test_unknown_strategy_is_validation_error(self, tmp_path):
        shard = make_shard(tmp_path, kind="submission")
        assert run_cli("reddit-build", "--inputs", str(shard), "--strategy", "sideways", "--out", "x") == 1


class TestTrainClassifierCommand:
    def _labeled_shard(self, tmp_path):
        rng = random.Random(0)
        docs = []
        for i in range(120):
            docs.append(
                Document(id=f"en{i}", text=sentence(rng, ENGLISH_WORDS), metadata={"label": "en"})
            )
            docs.append(
                Document(id=f"xx{i}", text=sentence(rng, OTHER_WORDS), metadata={"label": "xx"})
            )
        shard = tmp_path / "labeled.jsonl"
        write_documents(docs, shard)
        return shard

    def test_train_and_evaluate(self, tmp_path, capsys):
        shard = self._labeled_shard(tmp_path)
        model_out = tmp_path / "model.bin"
        assert (
            run_cli(
                "train-classifier", "--inputs", str(shard), "--model-out", str(model_out),
                "--feature-kind", "char", "--buckets", "16384", "--epochs", "5",
                "--eval-split", "0.2", "--seed", "1",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["held_out_accuracy"] >= 0.99
        assert model_out.exists()

    def test_same_seed_identical_model_file(self, tmp_path):
        shard = self._labeled_shard(tmp_path)
        m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        args = ["train-classifier", "--inputs", str(shard), "--feature-kind", "char",
                "--buckets", "4096", "--epochs", "3", "--seed", "7"]
        assert run_cli(*args, "--model-out", str(m1), "--report", str(tmp_path / "r1")) == 0
        assert run_cli(*args, "--model-out", str(m2), "--report", str(tmp_path / "r2")) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_missing_label_names_record(self, tmp_path, capsys):
        docs = [Document(id="nolabel", text="x")]
        shard = tmp_path / "bad.jsonl"
        write_documents(docs, shard)
        assert run_cli("train-classifier", "--inputs", str(shard), "--model-out", "m.bin") == 1
        assert "nolabel" in capsys.readouterr().err


class TestCorrelateCommand:
    def test_matrix_from_attribute_dir(self, tmp_path, capsys):
        shard = make_shard(tmp_path)  # short docs: gopher flags all, c4 none fail? craft instead
        out = tmp_path / "attrs"
        run_cli("tag", "--inputs", str(shard), "--taggers", "gopher,c4", "--out-dir", str(out),
                "--report", str(tmp_path / "r.json"))
        assert (
            run_cli(
                "correlate", "--attributes", str(out),
                "--filters", "gopher__matches_any,c4__no_punc_line",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["documents"] == 10
        assert payload["names"] == ["gopher__matches_any", "c4__no_punc_line"]

    def test_file_entry_then_directory_entry(self, tmp_path, capsys):
        shard = make_shard(tmp_path)
        for tagger in ("gopher", "c4"):
            run_cli("tag", "--inputs", str(shard), "--taggers", tagger, "--out-dir", str(tmp_path / tagger),
                    "--report", str(tmp_path / f"{tagger}.json"))
        argv = ["correlate", "--filters", "gopher__matches_any,c4__no_punc_line", "--attributes"]
        assert run_cli(*argv, str(tmp_path / "gopher" / shard.name), str(tmp_path / "c4")) == 0
        assert json.loads(capsys.readouterr().out)["documents"] == 10


class TestPipelineWebCommand:
    def test_end_to_end(self, tmp_path, capsys):
        rng = random.Random(0)
        required = "The band went to the show, and most of that crowd would have stayed with them."
        docs = []
        for i in range(12):
            lines = [required] + [
                (" ".join(rng.choice(BENIGN_WORDS) for _ in range(9))).capitalize() + "."
                for _ in range(12)
            ]
            docs.append(
                Document(id=f"d{i}", text="\n".join(lines), metadata={"url": f"http://s{i}.com/"})
            )
        docs.append(Document(id="dupe", text=docs[0].text, metadata={"url": "http://s0.com/"}))
        shard = tmp_path / "web.jsonl"
        write_documents(docs, shard)
        assert (
            run_cli(
                "pipeline-web", "--inputs", str(shard), "--out-dir", str(tmp_path / "out"),
                "--exact",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        stages = {s["stage"]: s for s in payload["stages"]}
        assert stages["url_dedup"]["dropped_docs"] == 1
        assert stages["paragraph_dedup"]["kept_docs"] >= 10


class TestDuplicateBasenames:
    """Outputs are named by input basename; two inputs sharing one would
    overwrite each other's outputs, so every per-shard command refuses them
    before writing anything."""

    def shards(self, tmp_path):
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "x.jsonl"
            doc = Document(id=sub, text=f"Clean document {sub} stands alone.", metadata={"url": f"http://{sub}.com/"})
            write_documents([doc], path)
            paths.append(str(path))
        return paths

    def check_rejected(self, tmp_path, capsys, *argv):
        a, b = self.shards(tmp_path)
        out = tmp_path / "out"
        assert run_cli(*argv, "--inputs", a, b, "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert a in err and b in err
        assert not out.exists() or not [p for p in out.rglob("*") if p.is_file()]

    def test_tag(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "tag", "--taggers", "c4")

    def test_pipeline_web(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "pipeline-web", "--exact")

    def test_dedupe(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, "dedupe", "--stage", "document", "--exact")

    def test_dedupe_ccnet(self, tmp_path, capsys):
        self.check_rejected(
            tmp_path, capsys, "dedupe", "--stage", "paragraph", "--ccnet-group-bytes", "1000"
        )

    def test_decontaminate(self, tmp_path, capsys):
        test_set = make_shard(tmp_path, name="eval.jsonl", n=1)
        self.check_rejected(tmp_path, capsys, "decontaminate", "--test-set", str(test_set), "--exact")


class TestValidationBeforeOutput:
    def test_dedupe_unknown_stage_in_config(self, tmp_path):
        shard = make_shard(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"stage": "bogus"}))
        argv = ["dedupe", "--config", str(config), "--inputs", str(shard), "--out-dir", str(tmp_path / "o")]
        assert run_cli(*argv) == 1

    def test_dedupe_negative_token_gate(self, tmp_path):
        shard = make_shard(tmp_path)
        argv = [
            "dedupe", "--stage", "paragraph", "--min-paragraph-tokens", "-1",
            "--inputs", str(shard), "--out-dir", str(tmp_path / "o"),
        ]
        assert run_cli(*argv) == 1

    def test_dedupe_save_filter_with_exact_writes_nothing(self, tmp_path):
        shard = make_shard(tmp_path)
        out = tmp_path / "o"
        argv = [
            "dedupe", "--stage", "document", "--exact", "--save-filter", str(tmp_path / "f.bloom"),
            "--inputs", str(shard), "--out-dir", str(out),
        ]
        assert run_cli(*argv) == 1
        assert not (out / "in.jsonl").exists()
        assert not (tmp_path / "f.bloom").exists()

    def test_decontaminate_save_filter_with_exact_writes_nothing(self, tmp_path):
        shard = make_shard(tmp_path)
        test_set = make_shard(tmp_path, name="eval.jsonl", n=1)
        out = tmp_path / "o"
        argv = [
            "decontaminate", "--test-set", str(test_set), "--exact",
            "--save-filter", str(tmp_path / "f.bloom"), "--inputs", str(shard), "--out-dir", str(out),
        ]
        assert run_cli(*argv) == 1
        assert not (out / "in.jsonl").exists()
        assert not (tmp_path / "f.bloom").exists()

    def test_dedupe_ccnet_with_save_filter_writes_nothing(self, tmp_path):
        shard = make_shard(tmp_path)
        out = tmp_path / "o"
        argv = [
            "dedupe", "--stage", "paragraph", "--ccnet-group-bytes", "1000",
            "--save-filter", str(tmp_path / "f.bloom"), "--inputs", str(shard), "--out-dir", str(out),
        ]
        assert run_cli(*argv) == 1
        assert not out.exists()
        assert not (tmp_path / "f.bloom").exists()

    def seeded_filter(self, tmp_path):
        test_set = make_shard(tmp_path, name="eval.jsonl", n=1)
        filt = tmp_path / "seeded.bloom"
        argv = [
            "decontaminate", "--test-set", str(test_set), "--save-filter", str(filt),
            "--inputs", str(test_set), "--out-dir", str(tmp_path / "seed-attrs"),
        ]
        assert run_cli(*argv) == 0
        return filt

    def test_decontaminate_load_filter_with_test_set(self, tmp_path):
        filt = self.seeded_filter(tmp_path)
        shard = make_shard(tmp_path)
        out = tmp_path / "o"
        argv = [
            "decontaminate", "--load-filter", str(filt), "--test-set", str(tmp_path / "absent.jsonl"),
            "--inputs", str(shard), "--out-dir", str(out),
        ]
        assert run_cli(*argv) == 1
        assert not out.exists()

    def test_decontaminate_load_filter_with_save_filter(self, tmp_path):
        filt = self.seeded_filter(tmp_path)
        shard = make_shard(tmp_path)
        out = tmp_path / "o"
        argv = [
            "decontaminate", "--load-filter", str(filt), "--save-filter", str(tmp_path / "t.bloom"),
            "--inputs", str(shard), "--out-dir", str(out),
        ]
        assert run_cli(*argv) == 1
        assert not out.exists()
        assert not (tmp_path / "t.bloom").exists()

    def test_reddit_quality_blocklist_points_to_banned_subreddit(self, tmp_path, capsys):
        shard = make_shard(tmp_path, kind="comment", subreddit="x")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"taggers": [{"name": "reddit_quality", "params": {"blocklist": "b.txt"}}]}))
        argv = ["tag", "--config", str(config), "--inputs", str(shard), "--out-dir", str(tmp_path / "o")]
        assert run_cli(*argv) == 1
        assert "banned_subreddit" in capsys.readouterr().err
        assert not (tmp_path / "o" / "in.jsonl").exists()


class TestDecontaminateFilterSizing:
    def test_sized_for_every_seeded_paragraph_at_gate_zero(self, tmp_path):
        # six paragraphs, five of them empty: the 0 gate seeds all six
        test_set = tmp_path / "eval.jsonl"
        write_documents([Document(id="e", text="\n\n\nshort\n\n")], test_set)
        shard = make_shard(tmp_path)
        filt = tmp_path / "f.bloom"
        argv = [
            "decontaminate", "--test-set", str(test_set), "--min-paragraph-tokens", "0",
            "--save-filter", str(filt), "--inputs", str(shard), "--out-dir", str(tmp_path / "o"),
        ]
        assert run_cli(*argv) == 0
        loaded = bloom_load(filt)
        expected = BloomFilter.create(6, 1e-4, 0)
        assert (loaded.m, loaded.k) == (expected.m, expected.k)


    def test_test_set_gated_once_and_saved_filter_unchanged(self, tmp_path, monkeypatch):
        import corpuskit.dedupe as dedupe
        from corpuskit.bloom import bloom_save, make_backend

        rng = random.Random(5)
        eval_docs = [
            Document(id=f"e{i}", text="\n".join(sentence(rng, ENGLISH_WORDS, rng.randrange(8, 20)) for _ in range(4)))
            for i in range(30)
        ]
        test_set = tmp_path / "eval.jsonl"
        write_documents(eval_docs, test_set)
        split = []
        splitter = dedupe.split_paragraphs
        monkeypatch.setattr(dedupe, "split_paragraphs", lambda data: split.append(data) or splitter(data))
        filt = tmp_path / "f.bloom"
        argv = [
            "decontaminate", "--test-set", str(test_set), "--save-filter", str(filt),
            "--inputs", str(make_shard(tmp_path)), "--out-dir", str(tmp_path / "o"),
        ]
        assert run_cli(*argv) == 0
        assert [data for data in split if data.startswith(tuple(doc.text_bytes for doc in eval_docs))] == [
            doc.text_bytes for doc in eval_docs
        ]
        # the filter sized and seeded as by counting the gated paragraphs, then seeding from the documents
        n_keys = len(dedupe.gated_keys(eval_docs, 13))
        assert 30 < n_keys < 120
        expected = dedupe.decontaminate_seed(make_backend(n_target=n_keys), read_documents(test_set))
        bloom_save(expected, tmp_path / "expected.bloom")
        assert filt.read_bytes() == (tmp_path / "expected.bloom").read_bytes()


class TestFailedRunsLeaveNoTempState:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_pipeline_web_missing_language_model(self, tmp_path, capsys, workers):
        shards = [str(make_shard(tmp_path, name=f"in{i}.jsonl", url=f"http://s{i}.com/")) for i in range(2)]
        out = tmp_path / "out"
        argv = [
            "pipeline-web", "--exact", "--inputs", *shards, "--out-dir", str(out),
            "--language-model", str(tmp_path / "missing.bin"), "--workers", workers,
        ]
        assert run_cli(*argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "quality_content" in err and shards[0] in err

    def test_mix_over_misaligned_sidecar(self, tmp_path, capsys):
        shard = make_shard(tmp_path, n=3)
        sidecar = tmp_path / "attrs.jsonl"
        sidecar.write_text("".join(json.dumps({"id": f"x{i}", "attributes": {}}) + "\n" for i in range(3)))
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"streams": [{"documents": [str(shard)], "attributes": [str(sidecar)]}]}))
        out = tmp_path / "mixed"
        assert run_cli("mix", "--config", str(config), "--out-dir", str(out)) == 2
        assert not out.exists()
        assert "misaligned" in capsys.readouterr().err

    @pytest.mark.parametrize("proportions", [{}, {"proportions": {"s": 1.0}}])
    def test_mix_malformed_record_at_two_workers(self, tmp_path, capsys, proportions):
        first = make_shard(tmp_path, name="a.jsonl", n=5)
        second = make_shard(tmp_path, name="b.jsonl", n=5)
        lines = second.read_text().splitlines(keepends=True)
        lines[2] = '{"id": "d2", "text": \n'
        second.write_text("".join(lines))
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"streams": [{"documents": [str(first), str(second)]}], **proportions}))
        out = tmp_path / "mixed"
        assert run_cli("mix", "--config", str(config), "--out-dir", str(out), "--workers", "2") == 2
        assert f"runtime failure: {second}:3: Expecting value" in capsys.readouterr().err
        assert not out.exists()
        assert multiprocessing.active_children() == []


def tree(path: Path) -> dict | None:
    """Every file and directory under ``path``, with each file's bytes;
    None if ``path`` does not exist."""
    if not path.exists():
        return None
    return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None for p in sorted(path.rglob("*"))}


def corpus_shards(directory: Path, words: str) -> list[str]:
    """Four shards of documents that pass the web quality rules and share
    a paragraph; their ids and text depend on ``words``."""
    directory.mkdir()
    rng = random.Random(words)
    shards = []
    for s in range(4):
        docs = [
            Document(
                id=f"{words}-{s}-{i}",
                text="\n".join(
                    [f"The band went to the {words} show, and most of that crowd would have stayed with them."]
                    + [sentence(rng, BENIGN_WORDS, 9).capitalize() + "." for _ in range(8)]
                ),
                metadata={"url": f"http://{words}.org/{s}/{i}"},
            )
            for i in range(5)
        ]
        shards.append(str(directory / f"s{s}.jsonl"))
        write_documents(docs, shards[-1])
    return shards


# each per-shard command, ready for --inputs and --out-dir; eval is the decontamination test set
PER_SHARD_JOBS = {
    "tag": ["tag", "--taggers", "c4,gopher"],
    "tag-workers-2": ["tag", "--taggers", "c4,gopher", "--workers", "2"],
    "dedupe": ["dedupe", "--stage", "paragraph", "--exact"],
    "dedupe-ccnet": ["dedupe", "--stage", "paragraph", "--ccnet-group-bytes", "1"],
    "decontaminate": ["decontaminate", "--test-set", "{eval}", "--exact"],
    "pipeline-web": ["pipeline-web", "--exact"],
}


class TestFailedJobLeavesOutDirAsItWas:
    """A job that fails on its third of four shards publishes nothing: its
    --out-dir is byte for byte as it was before the run. Only the staging
    directory, which holds pipeline-web's stage directories too, makes
    --out-dir, so a missing one stays missing."""

    @pytest.mark.parametrize(
        "job,state", [(job, state) for job in PER_SHARD_JOBS for state in ("missing", "empty", "earlier run")]
    )
    def test_nothing_published(self, tmp_path, capsys, monkeypatch, job, state):
        eval_set = make_shard(tmp_path, name="eval.jsonl", n=1)
        argv = [arg.format(eval=eval_set) for arg in PER_SHARD_JOBS[job]]
        out = tmp_path / "out"
        if state == "empty":
            out.mkdir()
        elif state == "earlier run":
            assert run_cli(*argv, "--inputs", *corpus_shards(tmp_path / "old", "earlier"), "--out-dir", str(out)) == 0
            assert len(list(out.iterdir())) == 4
        shards = corpus_shards(tmp_path / "new", "later")
        if job == "pipeline-web":
            # the paragraph stage, the last, fails on the third shard
            real, calls = pipeline.dedupe_by_paragraph, []

            def failing(docs, backend):
                calls.append(docs)
                if len(calls) == 3:
                    raise OSError("disk full")
                return real(docs, backend)

            monkeypatch.setattr(pipeline, "dedupe_by_paragraph", failing)
        else:
            with open(shards[2], "a") as f:
                f.write('{"id": "bad", "text": \n')
        before = tree(out)
        capsys.readouterr()
        assert run_cli(*argv, "--inputs", *shards, "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert ("paragraph_dedup" if job == "pipeline-web" else f"{shards[2]}:6") in err
        assert tree(out) == before
        assert multiprocessing.active_children() == []


class TestOutputReplacingInput:
    """An output named like an input in the input's own directory would
    replace it, so each per-shard command refuses it before reading."""

    @pytest.mark.parametrize("job", PER_SHARD_JOBS)
    def test_refused_naming_the_path(self, tmp_path, capsys, job):
        eval_set = make_shard(tmp_path, name="eval.jsonl", n=1)
        argv = [arg.format(eval=eval_set) for arg in PER_SHARD_JOBS[job]]
        shards = corpus_shards(tmp_path / "d", "only")
        before = tree(tmp_path / "d")
        assert run_cli(*argv, "--inputs", *shards, "--out-dir", str(tmp_path / "d")) == 1
        assert f"output {shards[0]} is an input shard" in capsys.readouterr().err
        assert tree(tmp_path / "d") == before


class TestSigtermLeavesNothingBehind:
    """SIGTERM ends a job as an exception does: the job's scope joins its
    workers and removes its intermediate files, and the command exits 143."""

    def job(self, tmp_path, command):
        if command == "mix":
            shards = [tmp_path / f"in{f}.jsonl" for f in range(4)]
            for f, shard in enumerate(shards):
                texts = (f"Body {i} of file {f}. " * 4 for i in range(5000))
                write_documents((Document(id=f"{f}-{i}", text=t, source="ab"[i % 2]) for i, t in enumerate(texts)), shard)
            config = tmp_path / "mix.json"
            streams = [{"documents": [str(s) for s in shards]}]
            config.write_text(json.dumps({"streams": streams, "proportions": {"a": 3, "b": 1}}))
            return ["mix", "--config", str(config)], ".mix-parts"
        rng = random.Random(0)
        shards = []
        for s in range(8):
            docs = [
                Document(id=f"{s}-{i}", text="\n".join(sentence(rng, ENGLISH_WORDS, 12) + "." for _ in range(4)))
                for i in range(300)
            ]
            shards.append(str(tmp_path / f"in{s}.jsonl"))
            write_documents(docs, shards[-1])
        return ["pipeline-web", "--exact", "--inputs", *shards], ".stage-dedup"

    @pytest.mark.parametrize("command", ["mix", "pipeline-web"])
    def test_sigterm_cleans_up_like_an_exception(self, tmp_path, command):
        argv, temp_name = self.job(tmp_path, command)
        out = tmp_path / "out"
        argv += ["--out-dir", str(out), "--workers", "2"]
        env = dict(os.environ, PYTHONPATH=str(Path(corpuskit.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "corpuskit.cli", *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        workers: set[int] = set()
        try:
            while proc.poll() is None:
                workers = child_pids(proc.pid)
                if any(out.glob(f".publish-*/{temp_name}")) and len(workers) == 2:
                    break
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 143
            assert len(workers) == 2
            assert [pid for pid in workers if running(pid)] == []
            # no staging directory, .stage-*, .mix-parts/ or *.tmp, and no output
            # shard, whole or partial: the --out-dir the job made is gone
            assert not out.exists()
        finally:
            proc.kill()
            proc.wait()
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_previous_handler_restored(self, tmp_path):
        previous = signal.getsignal(signal.SIGTERM)
        assert run_cli("stats", "--inputs", str(make_shard(tmp_path))) == 0
        assert signal.getsignal(signal.SIGTERM) is previous


class TestFailingJobStopsRunningTasks:
    """A failing job ends its running shard tasks instead of waiting for them."""

    def test_sigterm_in_the_quality_stage_exits_within_a_second(self, tmp_path):
        rng = random.Random(0)
        shards = []
        for s in range(4):
            docs = [
                Document(id=f"{s}-{i}", text="\n".join(sentence(rng, ENGLISH_WORDS, 12) + "." for _ in range(4)))
                for i in range(2000)
            ]
            shards.append(str(tmp_path / f"in{s}.jsonl"))
            write_documents(docs, shards[-1])
        env = dict(os.environ, PYTHONPATH=str(Path(corpuskit.__file__).parents[1]))
        argv = [sys.executable, "-m", "corpuskit.cli", "pipeline-web", "--exact", "--inputs", *shards, "--workers", "2"]
        for trial in range(3):
            out = tmp_path / f"out{trial}"
            proc = subprocess.Popen(
                [*argv, "--out-dir", str(out)], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
            )
            workers: set[int] = set()
            try:
                # the workers start at the quality stage, the first fan-out
                while proc.poll() is None:
                    workers = child_pids(proc.pid)
                    if any(out.glob(".publish-*/.stage-dedup")) and len(workers) == 2:
                        break
                    time.sleep(0.005)
                proc.send_signal(signal.SIGTERM)
                signalled = time.monotonic()
                assert proc.wait(timeout=60) == 143
                assert time.monotonic() - signalled < 1
                assert len(workers) == 2
                assert [pid for pid in workers if running(pid)] == []
                assert not out.exists()  # no staging directory, .stage-*, *.tmp or output shard
            finally:
                proc.kill()
                proc.wait()
                for pid in workers:
                    if running(pid):
                        os.kill(pid, signal.SIGKILL)


class TestPipelineRunsAtOnce:
    """Two pipeline-web runs at once into one --out-dir keep their stage
    files apart, in their own staging directories."""

    def test_both_publish_what_each_publishes_alone(self, tmp_path):
        rng = random.Random(1)
        inputs = {}
        for run in "ab":
            inputs[run] = []
            for s in range(2):
                docs = [
                    Document(
                        id=f"{run}{s}-{i}",
                        text="\n".join(sentence(rng, ENGLISH_WORDS, 12) + "." for _ in range(4)),
                        metadata={"url": f"http://{run}.org/{s}/{i}"},
                    )
                    for i in range(750)
                ]
                inputs[run].append(str(tmp_path / f"{run}{s}.jsonl"))
                write_documents(docs, inputs[run][-1])
        env = dict(os.environ, PYTHONPATH=str(Path(corpuskit.__file__).parents[1]))

        def start(run, out):
            argv = ["pipeline-web", "--exact", "--inputs", *inputs[run], "--out-dir", str(out)]
            return subprocess.Popen(
                [sys.executable, "-m", "corpuskit.cli", *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
            )

        procs = [start(run, tmp_path / "out") for run in "ab"]
        errors = [proc.communicate(timeout=120)[1].decode() for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], errors
        for run in "ab":
            alone = start(run, tmp_path / f"alone-{run}")
            alone.communicate(timeout=120)
            assert alone.returncode == 0
        expected = {**tree(tmp_path / "alone-a"), **tree(tmp_path / "alone-b")}
        assert tree(tmp_path / "out") == expected and len(expected) == 4


class TestDedupeReportsMatchSidecars:
    """Each dedupe and decontaminate report counts what its sidecars hold."""

    def test_counts_equal_records_on_disk(self, tmp_path):
        shared = "a paragraph repeated across documents"
        eval_para = " ".join(f"evaltoken{i}" for i in range(20))
        shards = [
            [
                Document(id="a0", text=f"intro one\n{shared}", metadata={"url": "http://a.com/x"}),
                Document(id="a1", text=f"intro two\n{shared}\n{shared}", metadata={"url": "http://a.com/x/"}),
                Document(id="a2", text="no url key here"),
            ],
            [
                Document(id="b0", text=f"intro one\n{shared}", metadata={"url": None}),
                Document(id="b1", text=f"x\n{eval_para}", metadata={"url": "http://b.com/"}),
                Document(id="b2", text="no url key here", metadata={"url": "http://a.com/x"}),
            ],
        ]
        paths = []
        for i, docs in enumerate(shards):
            paths.append(str(tmp_path / f"s{i}.jsonl"))
            write_documents(docs, paths[-1])
        test_set = tmp_path / "eval.jsonl"
        write_documents([Document(id="e", text=eval_para)], test_set)

        runs = {
            "url": ["dedupe", "--stage", "url"],
            "document": ["dedupe", "--stage", "document"],
            "paragraph": ["dedupe", "--stage", "paragraph", "--min-paragraph-tokens", "2"],
            "ccnet": ["dedupe", "--stage", "paragraph", "--ccnet-group-bytes", "100000"],
            "decon": ["decontaminate", "--test-set", str(test_set)],
        }
        for name, argv in runs.items():
            out, report_path = tmp_path / name, tmp_path / f"{name}.json"
            argv = [*argv, "--inputs", *paths, "--out-dir", str(out), "--report", str(report_path)]
            assert run_cli(*argv) == 0
            report = json.loads(report_path.read_text())
            records = [r for p in paths for r in read_attributes(out / Path(p).name)]
            on_disk = {
                "documents": len(records),
                "flagged_documents": sum(1 for r in records if r.attributes),
                "flagged_paragraphs": sum(len(r.attributes.get("dedupe__dup_paragraph", [])) for r in records),
                "contaminated_documents": sum(
                    1 for r in records if "decontamination__contaminated" in r.attributes
                ),
            }
            assert on_disk["documents"] == 6
            assert on_disk["flagged_documents"] > 0
            for key, value in on_disk.items():
                if key in report:
                    assert report[key] == value, (name, key)
        assert json.loads((tmp_path / "url.json").read_text())["missing_url"] == 2


class TestTagReportMatchesSidecars:
    """The tag report counts what its input shards and sidecars hold."""

    def test_counts_equal_shards_and_records_on_disk(self, tmp_path):
        shards = [
            [
                Document(id="a0", text="Write to ann@example.com or bob@example.org today.\nno stop here"),
                Document(id="a1", text="Plain sentence with a full stop."),
                Document(id="a2", text="café ☕ line without a stop\nanother one\nmail eve@example.net."),
            ],
            [
                Document(id="b0", text="Nothing to see here."),
                Document(id="b1", text="call 10.0.0.1\nand 192.168.1.1 or dan@example.com"),
            ],
        ]
        paths = []
        for i, docs in enumerate(shards):
            paths.append(str(tmp_path / f"s{i}.jsonl"))
            write_documents(docs, paths[-1])
        out, report_path = tmp_path / "attrs", tmp_path / "tag.json"
        argv = ["tag", "--inputs", *paths, "--taggers", "c4,pii", "--out-dir", str(out), "--report", str(report_path)]
        assert run_cli(*argv, "--workers", "2") == 0
        report = json.loads(report_path.read_text())

        docs = [doc for p in paths for doc in read_documents(p)]
        records = [r for p in paths for r in read_attributes(out / Path(p).name)]
        assert [r.id for r in records] == [doc.id for doc in docs]
        assert report["total_documents"] == len(docs)
        assert report["total_text_bytes"] == sum(len(doc.text.encode("utf-8")) for doc in docs)
        on_disk = {}
        for rec in records:
            for name, spans in rec.attributes.items():
                if spans:
                    covered = set().union(*(range(sp.start, sp.end) for sp in spans))
                    counts = on_disk.setdefault(name, {"documents": 0, "characters": 0})
                    counts["documents"] += 1
                    counts["characters"] += len(covered)
        assert {"c4__no_punc_line", "pii__email", "pii__ip"} <= set(on_disk)
        assert {name: {k: a[k] for k in ("documents", "characters")} for name, a in report["attributes"].items()} == on_disk


class TestCurationReportsMatchShards:
    """The pipeline-web and mix reports count what their input and output shards hold."""

    @staticmethod
    def web_shards(tmp_path):
        rng = random.Random(0)
        words = ENGLISH_WORDS + ["and", "to", "of", "with"]

        def para():
            return " ".join(sentence(rng, words, 9).capitalize() + "." for _ in range(4))

        shared = [para() for _ in range(3)]
        paths = []
        for s in range(3):
            texts = [
                f"{para()}\n{para()}",
                f"{para()}\n{para()}",  # its URL repeats the first document of shard 0
                f"Same text everywhere. {shared[0]}",
                "\n".join(sentence(rng, ENGLISH_WORDS, 9) for _ in range(8)),  # no punctuation
                f"{para()}\n{para()} " + " ".join(f"mail{j}@example.com." for j in range(7)),  # dense PII
                f"{para()}\n{para()} Write to ann@example.com today.",  # sparse PII, masked
                f"{shared[1]}\n{shared[2]}" if s % 2 else f"{shared[2]}\n{shared[1]}",  # emptied by paragraph dedup
                f"{para()}\n{shared[1]}",
            ]
            urls = [f"http://site{s}.com/{i}" for i in range(len(texts))]
            urls[1] = "http://site0.com/0"
            docs = [
                Document(id=f"s{s}d{i}", text=text, source="web", metadata={"url": url})
                for i, (text, url) in enumerate(zip(texts, urls))
            ]
            paths.append(str(tmp_path / f"in{s}.jsonl"))
            write_documents(docs, paths[-1])
        return paths

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_pipeline_web_stages_chain_from_inputs_to_curated_shards(self, tmp_path, workers):
        paths = self.web_shards(tmp_path)
        out, report_path = tmp_path / "out", tmp_path / "web.json"
        argv = ["pipeline-web", "--exact", "--inputs", *paths, "--out-dir", str(out), "--report", str(report_path)]
        assert run_cli(*argv, "--workers", workers) == 0
        stages = json.loads(report_path.read_text())["stages"]

        assert [stage["stage"] for stage in stages] == ["url_dedup", "doc_dedup", "quality_content", "paragraph_dedup"]
        for stage in stages:
            assert stage["dropped_docs"] > 0
            assert stage["input_docs"] == stage["kept_docs"] + stage["dropped_docs"]
            assert sum(stage["drop_reasons"].values()) == stage["dropped_docs"]
        for before, after in zip(stages, stages[1:]):
            assert before["kept_docs"] == after["input_docs"]
        assert stages[0]["input_docs"] == sum(1 for p in paths for _ in read_documents(p))
        assert stages[-1]["kept_docs"] == sum(1 for p in paths for _ in read_documents(out / Path(p).name))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_pipeline_web_dedup_stages_end_in_their_filter_health(self, tmp_path, workers, caplog):
        paths = self.web_shards(tmp_path)
        out, report_path = tmp_path / "out", tmp_path / "web.json"
        argv = ["pipeline-web", "--bloom-n", "2", "--inputs", *paths, "--out-dir", str(out), "--workers", workers]
        with caplog.at_level("WARNING", logger="corpuskit"):
            assert run_cli(*argv, "--report", str(report_path)) == 0
        stages = json.loads(report_path.read_text())["stages"]

        # filters sized for 2 keys over-drop; every stage key but the new
        # entry keeps the value and the order it had before the entry existed
        keys = ["stage", "input_docs", "kept_docs", "dropped_docs", "drop_reasons"]
        assert [list(stage) for stage in stages] == [keys + ["bloom"], keys + ["bloom"], keys, keys + ["bloom"]]
        assert [{key: stage[key] for key in keys} for stage in stages] == [
            {"stage": "url_dedup", "input_docs": 24, "kept_docs": 7, "dropped_docs": 17,
             "drop_reasons": {"dedupe__url_duplicate": 17}},
            {"stage": "doc_dedup", "input_docs": 7, "kept_docs": 5, "dropped_docs": 2,
             "drop_reasons": {"dedupe__doc_duplicate": 2}},
            {"stage": "quality_content", "input_docs": 5, "kept_docs": 3, "dropped_docs": 2,
             "drop_reasons": {"gopher__matches_any": 1, "pii_density": 1}},
            {"stage": "paragraph_dedup", "input_docs": 3, "kept_docs": 3, "dropped_docs": 0, "drop_reasons": {}},
        ]
        entries = [stages[0]["bloom"], stages[1]["bloom"], stages[3]["bloom"]]
        for entry in entries:
            assert list(entry) == ["m", "k", "fill", "estimated_fpr", "added", "n_target"]
            assert entry["n_target"] == 2 and entry["added"] > 2
        # a URL or a document is kept exactly when its key was new to the filter
        assert [entry["added"] for entry in entries[:2]] == [stages[0]["kept_docs"], stages[1]["kept_docs"]]
        # one warning per overfull filter
        assert [record.name for record in caplog.records] == ["corpuskit.bloom"] * 3
        for entry, record in zip(entries, caplog.records):
            assert f"took {entry['added']} new keys, sized for 2" in record.getMessage()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_mix_sources_count_records_and_text_bytes_on_disk(self, tmp_path, workers):
        inputs = {
            "a": [Document(id=f"a{i}", text=f"café número {i} " * (i + 1), source="a") for i in range(12)],
            "b": [Document(id=f"b{i}", text=f"☕ short {i}", source="b") for i in range(9)],
        }
        streams = []
        for name, docs in inputs.items():
            shard, sidecar = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.attrs.jsonl"
            write_documents(docs, shard)
            flags = ({"id": doc.id, "attributes": {"t__bad": [[0, 1, 1.0]] if i % 4 == 0 else []}} for i, doc in enumerate(docs))
            sidecar.write_text("".join(json.dumps(flag) + "\n" for flag in flags))
            drop = {"attribute": "t__bad", "scope": "document", "op": ">=", "threshold": 1, "action": "drop_doc"}
            streams.append({"documents": [str(shard)], "attributes": [str(sidecar)], "filters": [drop]})
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({
            "streams": streams, "proportions": {"a": 1.0, "b": 1.0}, "upsample": {"b": 3}, "output_shard_bytes": 300,
        }))
        out, report_path = tmp_path / "mixed", tmp_path / "mix-report.json"
        argv = ["mix", "--config", str(config), "--out-dir", str(out), "--report", str(report_path)]
        assert run_cli(*argv, "--workers", workers) == 0
        report = json.loads(report_path.read_text())

        written = [doc for p in sorted(out.glob("part-*.jsonl")) for doc in read_documents(p)]
        assert len(report["output_shards"]) > 1
        assert sum(rep["sampled_out_docs"] for rep in report["sources"].values()) > 0
        for name, docs in inputs.items():
            rep = report["sources"][name]
            mine = [doc for doc in written if doc.source == name]
            assert rep["input_docs"] == len(docs)
            assert rep["dropped_docs"] > 0
            assert rep["kept_docs"] == len(mine)
            assert rep["kept_text_bytes"] == sum(len(doc.text.encode("utf-8")) for doc in mine)
        assert report["total_kept_docs"] == len(written)


class TestSpanOffsetOutOfRange:
    def test_mix_names_the_sidecar_and_line(self, tmp_path, capsys):
        shard = make_shard(tmp_path, n=2)
        sidecar = tmp_path / "attrs.jsonl"
        sidecar.write_text('{"id": "d0", "attributes": {}}\n{"id": "d1", "attributes": {"t__a": [[0, 1e400, 1.0]]}}\n')
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"streams": [{"documents": [str(shard)], "attributes": [str(sidecar)]}]}))
        assert run_cli("mix", "--config", str(config), "--out-dir", str(tmp_path / "out")) == 2
        assert f"{sidecar}:2: cannot convert float infinity to integer" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_span_past_the_end_names_the_sidecar_and_line(self, tmp_path, capsys, workers):
        shards = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for shard in shards:
            write_documents([Document(id=f"d{i}", text="eleven byte", source="s") for i in range(3)], shard)
        flags, spans = tmp_path / "flags", tmp_path / "spans"
        for sidecar_dir in (flags, spans):
            sidecar_dir.mkdir()
            for shard in shards:
                records = [{"id": f"d{i}", "attributes": {}} for i in range(3)]
                (sidecar_dir / shard.name).write_text("".join(json.dumps(r) + "\n" for r in records))
        # the bad span sits in the second sidecar of the second shard, on line 4 after an empty line
        records = [{"id": "d0", "attributes": {"t__b": [[0, 5, 1.0]]}}, {"id": "d1", "attributes": {}}]
        records.append({"id": "d2", "attributes": {"t__b": [[0, 50, 1.0]]}})
        bad = spans / "b.jsonl"
        bad.write_text(json.dumps(records[0]) + "\n\n" + "".join(json.dumps(r) + "\n" for r in records[1:]))
        (flags / "b.jsonl").write_text("".join(
            json.dumps({"id": f"d{i}", "attributes": {"t__a": [[0, 3, 1.0]]}}) + "\n" for i in range(3)
        ))
        filters = [
            {"attribute": attr, "scope": "span", "op": ">=", "threshold": 0.5, "action": "remove_span"}
            for attr in ("t__a", "t__b")
        ]
        streams = [{"documents": [str(s) for s in shards], "attributes": [str(flags), str(spans)], "filters": filters}]
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"streams": streams}))
        out = tmp_path / "out"
        assert run_cli("mix", "--config", str(config), "--out-dir", str(out), "--workers", workers) == 2
        err = capsys.readouterr().err
        assert f"runtime failure: {bad}:4: span [0, 50) exceeds doc 'd2' of 11 bytes" in err
        assert not (out / ".mix-parts").exists()


# the flags a command used to accept without reading them
NO_WORKERS = ("dedupe", "decontaminate", "reddit-build", "train-classifier", "stats", "correlate")
NO_SEED = ("tag", "reddit-build", "stats", "correlate")
REMOVED_FLAGS = [*[(cmd, "--workers") for cmd in NO_WORKERS], *[(cmd, "--seed") for cmd in NO_SEED]]


class TestOptionSurface:
    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
    def test_unread_flag_not_accepted(self, capsys, command, flag):
        assert run_cli(command, flag, "1") == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,config,key",
        [
            ("dedupe", {"stage": "document", "bloom-p": 1e-9}, "bloom-p"),
            ("dedupe", {"stage": "document", "workers": 2}, "workers"),  # an option of other commands
            ("dedupe", {"stage": "document", "report": "r.json"}, "report"),  # a per-run flag only
            ("mix", {"proportions": {"s": 1.0}, "shard_bytes": 100}, "shard_bytes"),
            ("tag", {"taggers": ["c4"], "workers": 0}, "workers"),  # checked like the flag
        ],
    )
    def test_bad_config_key_names_it(self, tmp_path, capsys, command, config, key):
        shard = make_shard(tmp_path)
        if command == "mix":
            config["streams"] = [{"documents": [str(shard)]}]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--out-dir", str(out)]
        if command != "mix":
            argv += ["--inputs", str(shard)]
        assert run_cli(*argv) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_config_string_for_list_option_is_one_element_list(self, tmp_path, capsys):
        shard = make_shard(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"inputs": str(shard)}))
        assert run_cli("stats", "--config", str(path)) == 0
        assert json.loads(capsys.readouterr().out)["documents"] == 10

    def test_config_non_list_for_list_option_names_key(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"inputs": 5}))
        assert run_cli("stats", "--config", str(path)) == 1
        assert "'inputs'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,config,key",
        [
            ("stats", {"inputs": [5]}, "inputs"),  # would open file descriptor 5
            ("tag", {"taggers": 5}, "taggers"),
            ("tag", {"taggers": ["c4", {"params": {}}]}, "taggers"),  # a spec without a name
            ("tag", {"taggers": [{"name": "c4", "params": [1]}]}, "taggers"),
            ("correlate", {"filters": ["a", 1]}, "filters"),
            # a flag that takes no value takes a JSON boolean, not a truthy string
            ("dedupe", {"stage": "url", "exact": "no"}, "exact"),
            ("dedupe", {"stage": "url", "exact": "no", "bloom_p": 0.01}, "exact"),
            ("reddit-build", {"strategy": "sideways"}, "strategy"),  # not one of the flag's choices
            ("dedupe", {"stage": "document", "save_filter": 5}, "save_filter"),  # a path is a string
            ("dedupe", {"stage": "paragraph", "min_paragraph_tokens": -1}, "min_paragraph_tokens"),
            ("decontaminate", {"exact": True, "min_paragraph_tokens": -1}, "min_paragraph_tokens"),
        ],
    )
    def test_config_value_of_wrong_shape_names_key(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        shard = make_shard(tmp_path)
        extra = {
            "stats": [],
            "tag": ["--inputs", str(shard), "--out-dir", str(tmp_path / "out")],
            "correlate": ["--attributes", str(tmp_path)],
            "dedupe": ["--inputs", str(shard), "--out-dir", str(tmp_path / "out")],
            "decontaminate": ["--inputs", str(shard), "--test-set", str(shard), "--out-dir", str(tmp_path / "out")],
            "reddit-build": ["--inputs", str(shard), "--out", str(tmp_path / "out" / "docs.jsonl")],
        }
        assert run_cli(command, "--config", str(path), *extra[command]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exact", [True, False])
    def test_config_boolean_for_flag_without_value_is_read(self, tmp_path, capsys, exact):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"stage": "document", "exact": exact}))
        bloom = tmp_path / "f.bloom"
        argv = ["dedupe", "--config", str(path), "--inputs", str(make_shard(tmp_path)), "--out-dir", str(tmp_path / "o")]
        # an exact set has no filter to save
        assert run_cli(*argv, "--save-filter", str(bloom)) == (1 if exact else 0)
        assert bloom.exists() is not exact
        assert ("--save-filter not read when --exact is True" in capsys.readouterr().err) is exact

    @pytest.mark.parametrize("orders", [5, ["a"], "2,x"])
    def test_bad_orders_in_config_names_key(self, tmp_path, capsys, orders):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"orders": orders}))
        model = tmp_path / "m.bin"
        argv = ["train-classifier", "--config", str(path), "--inputs", str(make_shard(tmp_path, label="x"))]
        assert run_cli(*argv, "--model-out", str(model)) == 1
        assert "'orders'" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("orders", [[2, 3], "2,3"])
    def test_orders_in_config_read(self, tmp_path, orders):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"orders": orders, "buckets": 1024, "epochs": 1}))
        shard, model = tmp_path / "labeled.jsonl", tmp_path / "m.bin"
        write_documents([Document(id=label, text=f"text {label}", metadata={"label": label}) for label in "xy"], shard)
        argv = ["train-classifier", "--config", str(path), "--inputs", str(shard), "--model-out", str(model)]
        assert run_cli(*argv, "--report", str(tmp_path / "r.json")) == 0
        assert load_model(model).config.ngram_orders == (2, 3)

    def test_flag_beats_config_key_and_config_only_key_is_read(self, tmp_path):
        long_para = " ".join(f"token{i}" for i in range(20))
        test_set = tmp_path / "eval.jsonl"
        write_documents([Document(id="e", text=long_para)], test_set)
        shard = tmp_path / "c.jsonl"
        write_documents([Document(id="x", text=long_para)], shard)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"min_paragraph_tokens": 5, "exact": True, "test_set": [str(test_set)]}))
        common = ["decontaminate", "--config", str(config), "--inputs", str(shard)]
        for flags, gate in (([], 5), (["--min-paragraph-tokens", "30"], 30)):
            report = tmp_path / f"r{gate}.json"
            argv = [*common, *flags, "--out-dir", str(tmp_path / f"o{gate}"), "--report", str(report)]
            assert run_cli(*argv) == 0
            payload = json.loads(report.read_text())
            assert payload["min_paragraph_tokens"] == gate
            # the 20-token eval paragraph is seeded at gate 5, not at gate 30
            assert payload["contaminated_documents"] == (1 if gate == 5 else 0)


# every subcommand's options, in flag order: (option strings, dest, type name,
# nargs, const, default, choices, help); the three every command shares come first
COMMON_OPTIONS = [
    (("-h", "--help"), "help", None, 0, None, "==SUPPRESS==", None, "show this help message and exit"),
    (("--config",), "config", None, None, None, None, None, "JSON config file; flags override its keys"),
    (("--report",), "report", None, None, None, None, None, "write the JSON report here instead of stdout"),
]
OPTION_SURFACE = {
    "tag": [
        *COMMON_OPTIONS,
        (("--inputs",), "inputs", None, "+", None, None, None, "document shard files"),
        (("--workers",), "workers", "_positive_int", None, None, None, None, None),
        (("--taggers",), "taggers", "_tagger_specs", None, None, None, None, "comma-separated tagger names"),
        (("--out-dir",), "out_dir", None, None, None, None, None, None),
    ],
    "dedupe": [
        *COMMON_OPTIONS,
        (("--inputs",), "inputs", None, "+", None, None, None, "document shard files"),
        (("--seed",), "seed", "int", None, None, None, None, None),
        (("--stage",), "stage", None, None, None, None, ["url", "document", "paragraph"], None),
        (("--out-dir",), "out_dir", None, None, None, None, None, None),
        (("--exact",), "exact", None, 0, True, None, None, None),
        (("--bloom-n",), "bloom_n", "int", None, None, None, None, None),
        (("--bloom-p",), "bloom_p", "float", None, None, None, None, None),
        (("--min-paragraph-tokens",), "min_paragraph_tokens", "_non_negative_int", None, None, None, None, None),
        (("--save-filter",), "save_filter", None, None, None, None, None, None),
        (
            ("--ccnet-group-bytes",), "ccnet_group_bytes", "_positive_int", None, None, None, None,
            "grouped paragraph dedup: dedupe within consecutive shard groups of at most this many bytes",
        ),
    ],
    "decontaminate": [
        *COMMON_OPTIONS,
        (("--inputs",), "inputs", None, "+", None, None, None, "document shard files"),
        (("--seed",), "seed", "int", None, None, None, None, None),
        (("--test-set",), "test_set", None, "+", None, None, None, None),
        (("--out-dir",), "out_dir", None, None, None, None, None, None),
        (("--exact",), "exact", None, 0, True, None, None, None),
        (("--bloom-p",), "bloom_p", "float", None, None, None, None, None),
        (("--min-paragraph-tokens",), "min_paragraph_tokens", "_non_negative_int", None, None, None, None, None),
        (("--save-filter",), "save_filter", None, None, None, None, None, None),
        (("--load-filter",), "load_filter", None, None, None, None, None, None),
    ],
    "mix": [
        *COMMON_OPTIONS,
        (("--seed",), "seed", "int", None, None, None, None, None),
        (("--workers",), "workers", "_positive_int", None, None, None, None, None),
        (("--out-dir",), "out_dir", None, None, None, None, None, None),
    ],
    "reddit-build": [
        *COMMON_OPTIONS,
        (("--inputs",), "inputs", None, "+", None, None, None, "document shard files"),
        (("--strategy",), "strategy", None, None, None, None, ["atomic", "partial", "full"], None),
        (("--max-depth",), "max_depth", "_positive_int", None, None, None, None, None),
        (("--out",), "out", None, None, None, None, None, None),
    ],
    "train-classifier": [
        *COMMON_OPTIONS,
        (("--inputs",), "inputs", None, "+", None, None, None, "document shard files"),
        (("--seed",), "seed", "int", None, None, None, None, None),
        (("--model-out",), "model_out", None, None, None, None, None, None),
        (("--feature-kind",), "feature_kind", None, None, None, None, ["word", "char"], None),
        (("--orders",), "orders", "_orders", None, None, None, None, None),
        (("--buckets",), "buckets", "int", None, None, None, None, None),
        (("--epochs",), "epochs", "int", None, None, None, None, None),
        (("--learning-rate",), "learning_rate", "float", None, None, None, None, None),
        (("--l2",), "l2", "float", None, None, None, None, None),
        (("--batch-size",), "batch_size", "int", None, None, None, None, None),
        (("--eval-split",), "eval_split", "float", None, None, None, None, None),
    ],
    "stats": [
        *COMMON_OPTIONS,
        (("--inputs",), "inputs", None, "+", None, None, None, "document shard files"),
    ],
    "correlate": [
        *COMMON_OPTIONS,
        (("--attributes",), "attributes", None, "+", None, None, None, "attribute sidecar dirs (or files)"),
        (("--filters",), "filters", "_names", None, None, None, None, "comma-separated attribute names"),
    ],
    "pipeline-web": [
        *COMMON_OPTIONS,
        (("--inputs",), "inputs", None, "+", None, None, None, "document shard files"),
        (("--seed",), "seed", "int", None, None, None, None, None),
        (("--workers",), "workers", "_positive_int", None, None, None, None, None),
        (("--out-dir",), "out_dir", None, None, None, None, None, None),
        (("--exact",), "exact", None, 0, True, None, None, None),
        (("--bloom-n",), "bloom_n", "int", None, None, None, None, None),
        (("--bloom-p",), "bloom_p", "float", None, None, None, None, None),
        (("--language-model",), "language_model", None, None, None, None, None, None),
        (("--hate-model",), "hate_model", None, None, None, None, None, None),
        (("--nsfw-model",), "nsfw_model", None, None, None, None, None, None),
        (("--toxicity-threshold",), "toxicity_threshold", "float", None, None, None, None, None),
    ],
}
# the mix configuration's keys, set by --config only
MIX_DEFAULTS = {"streams": None, "proportions": None, "upsample": None, "seed": None, "output_shard_bytes": None}

def option_surface(parser):
    return {
        name: [
            (
                tuple(action.option_strings), action.dest, getattr(action.type, "__name__", None),
                action.nargs, action.const, action.default, action.choices, action.help,
            )
            for action in command._actions
        ]
        for name, command in parser.commands.items()
    }


class TestPinnedSurface:
    def test_options_unchanged(self):
        parser = build_parser()
        assert option_surface(parser) == OPTION_SURFACE
        assert list(parser.commands) == list(OPTION_SURFACE)
        assert {key: value for key, value in parser.commands["mix"]._defaults.items() if key != "fn"} == MIX_DEFAULTS

    @pytest.mark.parametrize("command", list(OPTION_SURFACE))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: corpuskit {command}")


class TestSharedParser:
    """In-process ``main`` calls share one parser, built once per process;
    a call must leave nothing in it for the next."""

    def test_built_once_across_calls(self, tmp_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        shard = str(make_shard(tmp_path))
        assert run_cli("stats", "--inputs", shard) == 0
        assert run_cli("frobnicate") == 1
        assert run_cli("--log-level", "INFO", "stats", "--inputs", shard) == 0
        assert built == [1]

    def test_config_key_of_one_call_unset_in_the_next(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"stage": "document", "exact": True}))
        argv = ["dedupe", "--inputs", str(make_shard(tmp_path))]
        assert run_cli(*argv, "--config", str(config), "--out-dir", str(tmp_path / "a")) == 0
        assert "bloom" not in json.loads(capsys.readouterr().out)
        # neither key is left set: the stage is missing, and --bloom-p is read
        assert run_cli(*argv, "--out-dir", str(tmp_path / "b")) == 1
        assert "missing required option --stage" in capsys.readouterr().err
        assert run_cli(*argv, "--stage", "document", "--bloom-p", "0.01", "--out-dir", str(tmp_path / "c")) == 0
        assert "bloom" in json.loads(capsys.readouterr().out)

    def test_mix_config_keys_are_none_in_each_call(self, tmp_path, capsys):
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"streams": [{"documents": [str(make_shard(tmp_path, n=6))]}], "seed": 0}))
        for run in range(2):
            assert run_cli("mix", "--config", str(config), "--out-dir", str(tmp_path / f"out{run}")) == 0
            args = cli._parser().parse_args(["mix", "--out-dir", "o"])
            assert {key: getattr(args, key) for key in MIX_DEFAULTS} == MIX_DEFAULTS
            assert run_cli("mix", "--out-dir", str(tmp_path / "none")) == 1
            assert "missing required option streams" in capsys.readouterr().err

    def test_refused_calls_then_a_good_call(self, tmp_path, capsys):
        shard = str(make_shard(tmp_path))
        assert run_cli("stats", "--inputs", shard, "--bogus") == 1
        argv = ["dedupe", "--stage", "document", "--exact", "--bloom-p", "0.5", "--inputs", shard]
        assert run_cli(*argv, "--out-dir", str(tmp_path / "o")) == 1
        with pytest.raises(SystemExit) as exc:
            main(["dedupe", "--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        assert run_cli("stats", "--inputs", shard) == 0
        assert json.loads(capsys.readouterr().out)["documents"] == 10

    def test_log_level_applies_on_every_call(self, tmp_path, caplog):
        # caplog restores the corpuskit logger's level after the test
        caplog.set_level("WARNING", logger="corpuskit")
        argv = ["dedupe", "--stage", "paragraph", "--ccnet-group-bytes", "1", "--inputs", str(make_shard(tmp_path))]

        def capped():
            levels = [r.levelname for r in caplog.records if "exceeds the 1-byte group cap" in r.getMessage()]
            caplog.clear()
            return levels

        assert run_cli(*argv, "--out-dir", str(tmp_path / "a")) == 0
        assert capped() == ["WARNING"]
        assert run_cli("--log-level", "ERROR", *argv, "--out-dir", str(tmp_path / "b")) == 0
        assert capped() == []
        assert run_cli(*argv, "--out-dir", str(tmp_path / "c")) == 0
        assert capped() == ["WARNING"]


def run_refused(tmp_path, monkeypatch, command, options):
    """Run ``command`` on an input shard that does not exist, with every
    path relative to ``tmp_path``; return the exit code and whether any
    file appeared. Reading the absent shard would exit 2, so exit 1 means
    the command stopped before reading it."""
    monkeypatch.chdir(tmp_path)
    write_documents([Document(id="e", text=" ".join(f"evaltoken{i}" for i in range(20)))], "eval.jsonl")
    target = {"reddit-build": ["--out", "out/docs.jsonl"], "train-classifier": ["--model-out", "m.bin"]}
    argv = [command, "--inputs", "absent.jsonl", *target.get(command, ["--out-dir", "out"]), *options.split()]
    before = sorted(tmp_path.rglob("*"))
    code = run_cli(*argv)
    return code, sorted(tmp_path.rglob("*")) != before


def with_mode(command, mode, extras):
    return [(command, f"{mode} {extra}") for extra in extras]


BLOOM_OPTIONS = ["--bloom-n 10", "--bloom-p 0.5", "--seed 3"]
REFUSED = [
    # --ccnet-group-bytes keeps an exact, ungated set per group and saves no filter
    *with_mode("dedupe", "--stage paragraph --ccnet-group-bytes 1000", [
        "--exact", *BLOOM_OPTIONS, "--min-paragraph-tokens 5", "--save-filter f.bloom",
        "--min-paragraph-tokens 5 --exact --bloom-p 0.5",
    ]),
    # --load-filter reads a filter that is sized and seeded already
    *with_mode("decontaminate", "--load-filter absent.bloom", [
        "--test-set eval.jsonl", "--save-filter f.bloom", "--exact", "--bloom-p 0.5", "--seed 3",
        "--exact --bloom-p 0.5",
    ]),
    # --exact sizes and seeds nothing, and has no filter to save
    *with_mode("dedupe", "--stage document --exact", [*BLOOM_OPTIONS, "--save-filter f.bloom"]),
    *with_mode("decontaminate", "--test-set eval.jsonl --exact", [*BLOOM_OPTIONS[1:], "--save-filter f.bloom"]),
    *with_mode("pipeline-web", "--exact", BLOOM_OPTIONS),
    # only the paragraph stage groups shards or gates paragraphs
    ("dedupe", "--stage url --ccnet-group-bytes 1000"),
    ("dedupe", "--stage document --min-paragraph-tokens 5"),
    # only partial threads have a depth
    *with_mode("reddit-build", "--max-depth 2", ["", "--strategy atomic", "--strategy full"]),
]

BAD_VALUES = [
    ("dedupe", "--stage document --bloom-n 0"),
    ("dedupe", "--stage document --bloom-p 2"),
    ("dedupe", "--stage paragraph --ccnet-group-bytes 0"),
    ("decontaminate", "--test-set eval.jsonl --bloom-p 2"),
    ("decontaminate", "--test-set eval.jsonl --min-paragraph-tokens -1"),
    ("train-classifier", "--epochs 0"),
    ("train-classifier", "--buckets 1000"),
    ("train-classifier", "--orders 256"),  # the model file stores an order in one byte
    ("train-classifier", "--eval-split -1"),
    ("train-classifier", "--eval-split 1"),
    ("pipeline-web", "--toxicity-threshold 5"),
    ("pipeline-web", "--workers -3"),
    ("tag", "--taggers c4 --workers 0"),
    ("reddit-build", "--strategy partial --max-depth 0"),
    # a NaN step trains to the end and fails; a NaN l2 trains as 0
    ("train-classifier", "--learning-rate nan"),
    ("train-classifier", "--learning-rate inf"),
    ("train-classifier", "--l2 nan"),
    ("train-classifier", "--l2 inf"),
    ("tag", "--taggers bogus"),  # refused before the output directory is made
]

# an output file in a directory that does not exist, and the option naming it
MISSING_PARENT = [
    ("dedupe", "--stage document --save-filter nodir/x.bloom", "--save-filter"),
    ("dedupe", "--stage paragraph --report nodir/r.json", "--report"),
    ("decontaminate", "--test-set eval.jsonl --save-filter nodir/x.bloom", "--save-filter"),
    ("tag", "--taggers c4 --report nodir/r.json", "--report"),
    ("reddit-build", "--out nodir/docs.jsonl", "--out"),
    ("train-classifier", "--model-out nodir/m.bin", "--model-out"),
]

NAN_FILTER = {"attribute": "a", "scope": "document", "op": ">", "threshold": float("nan"), "action": "drop_doc"}
MISSING_SCOPE_FILTER = {key: value for key, value in NAN_FILTER.items() if key != "scope"}
# the commands whose config reads each key, for a key's refusal test
CONFIG_COMMANDS = {
    "tag": ("workers",),
    "dedupe": ("bloom_n", "bloom_p", "seed", "min_paragraph_tokens", "ccnet_group_bytes"),
    "pipeline-web": ("toxicity_threshold",),
    "train-classifier": ("epochs", "learning_rate"),
}


class TestRefusedBeforeReading:
    @pytest.mark.parametrize("command,options", REFUSED)
    def test_option_the_mode_does_not_read(self, tmp_path, monkeypatch, capsys, command, options):
        assert run_refused(tmp_path, monkeypatch, command, options) == (1, False)
        assert "not read when" in capsys.readouterr().err

    @pytest.mark.parametrize("command,options", BAD_VALUES)
    def test_bad_option_value(self, tmp_path, monkeypatch, command, options):
        assert run_refused(tmp_path, monkeypatch, command, options) == (1, False)

    @pytest.mark.parametrize("command,options,flag", MISSING_PARENT)
    def test_output_file_in_missing_directory(self, tmp_path, monkeypatch, capsys, command, options, flag):
        assert run_refused(tmp_path, monkeypatch, command, options) == (1, False)
        assert f"error: {flag} nodir/" in capsys.readouterr().err

    def test_output_files_in_the_out_dir_it_makes(self, tmp_path, monkeypatch):
        # --out-dir and the directories above it are made before any file is written
        monkeypatch.chdir(tmp_path)
        write_documents([Document(id="a", text="same"), Document(id="b", text="same")], "in.jsonl")
        argv = ["dedupe", "--stage", "document", "--inputs", "in.jsonl", "--out-dir", "a/b"]
        assert run_cli(*argv, "--save-filter", "a/b/f.bloom", "--report", "a/r.json") == 0
        assert bloom_load("a/b/f.bloom").popcount() > 0
        assert json.loads(Path("a/r.json").read_text())["flagged_documents"] == 1
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
            "a", "a/b", "a/b/f.bloom", "a/b/in.jsonl", "a/r.json", "in.jsonl",
        ]

    def test_refused_option_from_config(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "c.json").write_text(json.dumps({"exact": True, "seed": 3}))
        assert run_refused(tmp_path, monkeypatch, "dedupe", "--stage url --config c.json") == (1, False)
        assert "--seed not read when --exact is True" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stream,config,message",
        [
            ({"filters": [NAN_FILTER]}, {}, "must not be NaN"),  # it would match nothing
            ({}, {"proportions": {"s": float("nan"), "t": 1.0}}, "finite"),  # it would keep every document
            ({}, {"proportions": {"s": float("inf")}}, "finite"),
        ],
    )
    def test_mix_non_finite_value(self, tmp_path, monkeypatch, capsys, stream, config, message):
        monkeypatch.chdir(tmp_path)
        # json writes NaN and Infinity and reads them back
        Path("mix.json").write_text(json.dumps({"streams": [{"documents": ["absent.jsonl"], **stream}], **config}))
        assert run_cli("mix", "--config", "mix.json", "--out-dir", "out") == 1
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "mix.json"]

    @pytest.mark.parametrize(
        "config,key",
        [
            ({"streams": [{"documents": "/d.jsonl"}]}, "documents"),  # would be split into one-character paths
            ({"streams": [{"documents": ["absent.jsonl"], "attributes": "attrs"}]}, "attributes"),
            ({"streams": [{"attributes": []}]}, "documents"),
            ({"streams": [{"documents": [1]}]}, "documents"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": {"attribute": "a"}}]}, "filters"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": [{**NAN_FILTER, "scope": None}]}]}, "scope"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": [MISSING_SCOPE_FILTER]}]}, "scope"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": [{**NAN_FILTER, "threshold": "x"}]}]}, "threshold"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": [{**NAN_FILTER, "threshold": True}]}]}, "threshold"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": [{**NAN_FILTER, "op": [">"]}]}]}, "op"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": [{**NAN_FILTER, "attribute": 5}]}]}, "attribute"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": [{**NAN_FILTER, "replacement": 5}]}]}, "replacement"),
            ({"streams": "abc"}, "streams"),
            ({"streams": ["abc"]}, "streams"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": ["abc"]}]}, "filters"),
            # a key nothing reads: the stream would mix unfiltered, the filter run without it
            ({"streams": [{"documents": ["absent.jsonl"], "filter": [NAN_FILTER]}]}, "filter"),
            ({"streams": [{"documents": ["absent.jsonl"], "attribute": ["attrs"]}]}, "attribute"),
            ({"streams": [{"documents": ["absent.jsonl"], "filters": [{**NAN_FILTER, "replacment": "x"}]}]}, "replacment"),
            ({"proportions": [1]}, "proportions"),
            ({"proportions": {"s": "x"}}, "proportions"),
            ({"proportions": {"s": True}}, "proportions"),
            ({"upsample": [1]}, "upsample"),
            ({"upsample": {"s": 1.5}}, "upsample"),
            ({"output_shard_bytes": 1.5}, "output_shard_bytes"),
            ({"seed": True}, "seed"),
            ({"seed": "3"}, "seed"),
        ],
    )
    def test_mix_value_of_wrong_type(self, tmp_path, monkeypatch, capsys, config, key):
        monkeypatch.chdir(tmp_path)
        Path("mix.json").write_text(json.dumps({"streams": [{"documents": ["absent.jsonl"]}], **config}))
        assert run_cli("mix", "--config", "mix.json", "--out-dir", "out") == 1
        assert repr(key) in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "mix.json"]

    @pytest.mark.parametrize(
        "config,key",
        [
            ({"taggers": "c4", "workers": True}, "workers"),  # int(True) would run one worker
            ({"taggers": "c4", "workers": 1.9}, "workers"),
            ({"taggers": "c4", "workers": "2"}, "workers"),
            ({"stage": "document", "bloom_n": 1.5}, "bloom_n"),  # would size the filter for one key
            ({"stage": "document", "bloom_p": True}, "bloom_p"),
            ({"stage": "document", "bloom_p": "0.5"}, "bloom_p"),
            ({"stage": "url", "seed": 3.0}, "seed"),
            ({"stage": "paragraph", "min_paragraph_tokens": True}, "min_paragraph_tokens"),  # would gate at 1
            ({"stage": "paragraph", "ccnet_group_bytes": 10.5}, "ccnet_group_bytes"),
            ({"toxicity_threshold": False}, "toxicity_threshold"),
            ({"epochs": 2.0}, "epochs"),
            ({"learning_rate": True}, "learning_rate"),
        ],
    )
    def test_config_number_of_wrong_type(self, tmp_path, capsys, monkeypatch, config, key):
        command = next(c for c, keys in CONFIG_COMMANDS.items() if key in keys)
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert run_refused(tmp_path, monkeypatch, command, "--config c.json") == (1, False)
        assert f"config key {key!r}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec,message",
        [
            *(
                ({"name": tagger, "params": params}, f"error: {key!r} must be")
                for tagger, params, key in [
                    # an integer path is opened as a file descriptor (0 reads standard input);
                    # one that no process holds open keeps this test from reading any
                    ("banned_subreddit", {"blocklist": 987654}, "blocklist"),
                    ("banned_subreddit", {"blocklist": ["b.txt"]}, "blocklist"),
                    ("banned_subreddit", {}, "blocklist"),
                    ("language", {"model": 987654}, "model"),
                    ("language_paragraph", {"model": ["m.bin"]}, "model"),
                    ("toxicity", {"hate_model": 987654}, "hate_model"),
                    ("toxicity", {"nsfw_model": {"path": "m.bin"}}, "nsfw_model"),
                    ("extension", {"blocklist": "json"}, "blocklist"),  # would block j, s, o and n
                    ("extension", {"blocklist": [1]}, "blocklist"),
                    ("toxicity", {"threshold": "x"}, "threshold"),
                    ("toxicity", {"threshold": True}, "threshold"),
                    ("toxicity", {"hate_threshold": "0.5"}, "hate_threshold"),
                ]
            ),
            # a misspelt "params" would run the tagger with its default blocklist
            (
                {"name": "extension", "param": {"blocklist": ["exe"]}},
                "error: config key 'taggers': a tagger spec does not read keys 'param'",
            ),
        ],
    )
    def test_tagger_param_of_wrong_type(self, tmp_path, monkeypatch, capsys, spec, message):
        (tmp_path / "c.json").write_text(json.dumps({"taggers": [spec]}))
        assert run_refused(tmp_path, monkeypatch, "tag", "--config c.json") == (1, False)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options,tagger",
        [("--taggers gopher,c4,gopher", "gopher"), ("--config c.json", "pii")],
    )
    def test_tagger_named_twice(self, tmp_path, monkeypatch, capsys, options, tagger):
        # both instances would write the same attributes for every document
        (tmp_path / "c.json").write_text(json.dumps({"taggers": ["pii", {"name": "pii", "params": {}}]}))
        assert run_refused(tmp_path, monkeypatch, "tag", options) == (1, False)
        assert f"error: tagger {tagger!r} is named twice" in capsys.readouterr().err

    def test_tagger_threshold_out_of_range(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "c.json").write_text(json.dumps({"taggers": [{"name": "toxicity", "params": {"threshold": 5}}]}))
        assert run_refused(tmp_path, monkeypatch, "tag", "--config c.json") == (1, False)
        assert "toxicity threshold must be in [0, 1], got 5" in capsys.readouterr().err

    @pytest.mark.parametrize("tagger", ["gopher", "toxicity"])
    def test_tagger_param_the_tagger_does_not_read(self, tmp_path, monkeypatch, capsys, tagger):
        (tmp_path / "c.json").write_text(json.dumps({"taggers": [{"name": tagger, "params": {"treshold": 0.9}}]}))
        # reading the absent shard would exit 2; no output directory is made
        assert run_refused(tmp_path, monkeypatch, "tag", "--config c.json") == (1, False)
        assert f"tagger {tagger!r} does not read params 'treshold'" in capsys.readouterr().err

    @pytest.mark.parametrize("level,code", [("bogus", 1), ("info", 0), ("DEBUG", 0)])
    def test_log_level(self, tmp_path, capsys, level, code):
        assert run_cli("--log-level", level, "stats", "--inputs", str(make_shard(tmp_path))) == code
        assert ("invalid choice: 'BOGUS'" in capsys.readouterr().err) is (code == 1)
