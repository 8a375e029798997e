import gzip
import json
import multiprocessing
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import running
from corpuskit import shard_io
from corpuskit.documents import AttributeSpan, Document, DocumentAttributes
from corpuskit.filters import Drop, Keep
from corpuskit.shard_io import (
    MalformedRecordError,
    ShardNameError,
    ShardPool,
    StageReport,
    _decode_line,
    _doc_to_obj,
    output_paths,
    read_attributes,
    read_documents,
    sidecar_paths,
    write_attributes,
    write_documents,
    zip_sidecars,
)


def docs3():
    return [
        Document(id="a", text="first", source="s"),
        Document(id="b", text="second", source="s", created="2023-01-01"),
        Document(id="c", text="third", source="s", metadata={"url": "http://x"}),
    ]


class TestDocumentIO:
    def test_three_lines_in_order(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        assert write_documents(docs3(), path) == 3
        assert [d.id for d in read_documents(path)] == ["a", "b", "c"]

    def test_gzip_transparency(self, tmp_path):
        plain = tmp_path / "shard.jsonl"
        gz = tmp_path / "shard.jsonl.gz"
        write_documents(docs3(), plain)
        write_documents(docs3(), gz)
        assert list(read_documents(plain)) == list(read_documents(gz))

    def test_gz_output_is_gzip(self, tmp_path):
        gz = tmp_path / "x.jsonl.gz"
        write_documents(docs3(), gz)
        assert gz.read_bytes()[:2] == b"\x1f\x8b"
        assert list(read_documents(gz)) == docs3()
        assert list(tmp_path.iterdir()) == [gz]

    def test_gzip_sniffed_by_magic_not_extension(self, tmp_path):
        gz = tmp_path / "shard.jsonl.gz"
        write_documents(docs3(), gz)
        renamed = tmp_path / "renamed-shard"  # no .gz suffix
        gz.rename(renamed)
        assert [d.id for d in read_documents(renamed)] == ["a", "b", "c"]

    def test_malformed_line_error_mode_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x"}\nnope\n', encoding="utf-8")
        with pytest.raises(MalformedRecordError) as err:
            list(read_documents(path))
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "reader, record, field",
        [
            (read_documents, {"id": 5, "text": "x"}, "id"),
            (read_documents, {"id": "b", "text": 5}, "text"),
            (read_documents, {"id": "b", "text": None}, "text"),
            (read_documents, {"id": "b", "text": "x", "source": ["s"]}, "source"),
            (read_documents, {"id": "b", "text": "x", "created": 2020}, "created"),
            (read_documents, {"id": "b", "text": "x", "metadata": [1]}, "metadata"),
            (read_documents, {"id": "b", "text": "x", "metadata": None}, "metadata"),
            (read_attributes, {"id": "a", "attributes": [1]}, "attributes"),
            (read_attributes, {"id": ["a"], "attributes": {}}, "id"),
        ],
    )
    def test_record_of_wrong_shape_names_its_line(self, tmp_path, reader, record, field):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=f"field '{field}'") as err:
            list(reader(path))
        assert (err.value.path, err.value.line_no) == (str(path), 2)

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("reader", [read_documents, read_attributes])
    @pytest.mark.parametrize(
        "good,bad_line",
        [
            (b'{"id": "a", "text": "x", "attributes": {}}\n', 2),
            (b'{"id": "a", "text": "x", "attributes": {}}\r{"id": "b", "text": "y", "attributes": {}}\n', 3),
            # 20 KB before the bad line: the decoder has read ahead past many lines
            (b"".join(b'{"id": "d%03d", "text": "%s", "attributes": {}}\n' % (i, b"x" * 24) for i in range(300)), 301),
        ],
        ids=["second", "after_cr", "deep"],
    )
    def test_bytes_not_utf8_name_path_and_line(self, tmp_path, reader, compress, good, bad_line):
        data = good + b'{"id": "z", "text": "\xff", "attributes": {}}\n{"id": "y", "text": "", "attributes": {}}\n'
        path = tmp_path / "bad.jsonl"
        path.write_bytes(gzip.compress(data, mtime=0) if compress else data)
        with pytest.raises(MalformedRecordError, match="'utf-8' codec can't decode byte 0xff") as err:
            list(reader(path))
        assert (err.value.path, err.value.line_no) == (str(path), bad_line)

    def test_bytes_not_utf8_before_a_cut_gzip_name_the_line_reached(self, tmp_path):
        # reading again to find the bad line meets the cut first: the error
        # still names the path and the line the first read had reached
        data = b'{"id": "a", "text": "x"}\n{"id": "b", "text": "\xff"}'
        path = tmp_path / "bad.jsonl.gz"
        path.write_bytes(gzip.compress(data, mtime=0)[:-8])
        with pytest.raises(MalformedRecordError, match="'utf-8' codec can't decode byte 0xff") as err:
            list(read_documents(path))
        assert (err.value.path, err.value.line_no) == (str(path), 1)

    @settings(max_examples=300)
    @given(
        pieces=st.lists(st.sampled_from(["a", "é", "😀", "\\", "\\ud83d", "ude00", "\ud83d", "\ude00", "\udbff"]), max_size=8),
        upper=st.booleans(),
    )
    @example(pieces=["\\ud83d", "\ude00"], upper=False)  # a lone low escape after text like a high one
    def test_record_reads_exactly_when_its_decoded_text_encodes(self, tmp_path_factory, pieces, upper):
        # escapes of lone surrogates, of pairs and of other characters, and
        # escaped backslashes before text that looks like a surrogate escape
        line = json.dumps({"id": "a", "text": "".join(pieces)})
        if upper:
            line = re.sub(r"\\u[0-9a-f]{4}", lambda m: "\\u" + m[0][2:].upper(), line)
        text = json.loads(line)["text"]
        path = tmp_path_factory.mktemp("sur") / "one.jsonl"
        path.write_text('{"id": "z", "text": ""}\n' + line + "\n", encoding="ascii")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            with pytest.raises(MalformedRecordError, match="can't encode character") as err:
                list(read_documents(path))
            assert err.value.line_no == 2
        else:
            assert [d.text for d in read_documents(path)] == ["", text]

    def test_gzip_cut_or_corrupt_names_path(self, tmp_path):
        whole = tmp_path / "whole.jsonl.gz"
        write_documents(docs3() * 20, whole)
        data = whole.read_bytes()
        path = tmp_path / "bad.jsonl.gz"
        failures = set()
        for size in range(2, len(data)):  # every cut that keeps the magic bytes
            path.write_bytes(data[:size])
            with pytest.raises(MalformedRecordError) as err:
                list(read_documents(path))
            assert err.value.path == str(path)
            failures.add(err.value.reason)
        assert "Compressed file ended before the end-of-stream marker was reached" in failures
        for pos, reason in ((len(data) - 6, "CRC check failed"), (40, "Error -3 while decompressing")):
            corrupt = bytearray(data)
            corrupt[pos] ^= 0xFF
            path.write_bytes(bytes(corrupt))
            with pytest.raises(MalformedRecordError, match=reason) as err:
                list(read_documents(path))
            assert err.value.path == str(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=120), compress=st.booleans(), cut=st.integers(0, 200))
    def test_any_bytes_read_or_name_the_path(self, tmp_path_factory, data, compress, cut):
        path = tmp_path_factory.mktemp("bytes") / "shard"
        if compress:
            data = gzip.compress(data, mtime=0)
            data = data[: max(2, len(data) - cut)]
        path.write_bytes(data)
        for reader in (read_documents, read_attributes):
            try:
                list(reader(path))
            except MalformedRecordError as err:
                assert err.path == str(path)

    def test_null_created_reads_as_absent(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text('{"id": "a", "text": "x", "created": null}\n', encoding="utf-8")
        (doc,) = read_documents(path)
        assert doc.created is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(read_documents(tmp_path / "absent.jsonl"))

    def test_writer_builds_no_encoder_per_record(self, tmp_path, monkeypatch):
        docs = docs3() + [Document(id="é", text="naïve \u2028 😀 \x00", metadata={"k": [1.5, None, True]})]
        expected = "".join(json.dumps(_doc_to_obj(doc), ensure_ascii=False) + "\n" for doc in docs)
        built = []
        init = json.JSONEncoder.__init__
        monkeypatch.setattr(json.JSONEncoder, "__init__", lambda self, **kw: built.append(kw) or init(self, **kw))
        path = tmp_path / "docs.jsonl"
        write_documents(docs, path)
        assert built == []
        assert path.read_bytes() == expected.encode("utf-8")

    def test_empty_stream_writes_valid_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_documents([], path) == 0
        assert path.exists() and list(read_documents(path)) == []

    def test_non_ascii_roundtrip_byte_identical(self, tmp_path):
        doc = Document(id="u", text="héllo wörld ✓\n\tπ", source="ünïcode")
        path = tmp_path / "u.jsonl"
        write_documents([doc], path)
        (got,) = read_documents(path)
        assert got.text.encode("utf-8") == doc.text.encode("utf-8")
        assert got == doc

    def test_ten_thousand_documents_count(self, tmp_path):
        docs = (Document(id=str(i), text=f"doc {i}") for i in range(10_000))
        assert write_documents(docs, tmp_path / "big.jsonl") == 10_000

    def test_unknown_fields_preserved_opaquely(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        path.write_text(
            '{"id": "a", "text": "x", "source": "s", "zcustom": [1, 2], "attrs": {"k": true}}\n',
            encoding="utf-8",
        )
        (doc,) = read_documents(path)
        assert doc.extra == {"zcustom": [1, 2], "attrs": {"k": True}}
        out = tmp_path / "out.jsonl"
        write_documents([doc], out)
        obj = json.loads(out.read_text())
        assert obj["zcustom"] == [1, 2] and obj["attrs"] == {"k": True}

    def test_partial_file_cleanup_on_failure(self, tmp_path):
        path = tmp_path / "fail.jsonl"

        def exploding():
            yield Document(id="1", text="ok")
            raise OSError("disk gremlin")

        with pytest.raises(OSError):
            write_documents(exploding(), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_gzip_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        write_documents(docs3(), a)
        write_documents(docs3(), b)
        assert a.read_bytes() == b.read_bytes()


def _outcome(decode, line):
    """What ``decode(line)`` returns (type and repr, so NaN compares equal),
    or the type and message of what it raises."""
    try:
        obj = decode(line)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "returns", type(obj), repr(obj)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_fragments = st.sampled_from(
    ["", " ", "\t", "\r", "\ufeff", "{}", "[1]", "x", "NaN", "Infinity", "-Infinity", ",", "}", "]", '"', "\\"]
)
# an object whose keys repeat: the last value wins, at the first key's place
_duplicate_keys = st.lists(st.tuples(st.sampled_from("ab"), _json_values), min_size=1, max_size=4).map(
    lambda pairs: "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
)
# nesting well inside the recursion limit, or far past it, where both raise
# RecursionError; near the limit the outcome depends on the caller's stack depth
_deep = st.tuples(st.integers(1, 200) | st.integers(5_000, 20_000), st.booleans()).map(
    lambda d: '{"a": ' * d[0] + "1" + "}" * d[0] if d[1] else "[" * d[0] + "]" * d[0]
)
_lines = st.one_of(
    st.tuples(_fragments, _json_values.map(json.dumps) | _duplicate_keys | _deep, _fragments).map("".join),
    st.lists(_fragments, max_size=5).map("".join),
    st.text(max_size=30),
)


class TestDecodeLine:
    """The reader's decode is ``json.loads``, on every line."""

    @settings(max_examples=500, deadline=None)
    @given(line=_lines)
    @example(line=' {"id": "a"}')
    @example(line='{"id": "a"} ')
    @example(line='\ufeff{"id": "a"}')
    @example(line="{} {}")
    @example(line="{}x")
    @example(line="[1]")
    @example(line="NaN")
    @example(line="Infinity")
    @example(line='{"id": "a", "id": "b"}')
    @example(line="[" * 100_000)
    @example(line='{"a": ' * 50_000 + "1" + "}" * 50_000)
    def test_same_object_or_error_as_json_loads(self, line):
        assert _outcome(_decode_line, line) == _outcome(json.loads, line)

    def test_extra_keys_kept_in_file_order(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        path.write_text(
            '{"z": 1, "id": "a", "b": [2], "text": "x", "a": {"c": 3}}\n{"id": "b", "text": "y", "source": "s"}\n',
            encoding="utf-8",
        )
        first, second = read_documents(path)
        assert list(first.extra.items()) == [("z", 1), ("b", [2]), ("a", {"c": 3})]
        assert second.extra == {}

    def test_nesting_past_the_recursion_limit_names_its_line(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": ' + "[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="maximum recursion depth exceeded") as err:
            list(read_documents(path))
        assert (err.value.path, err.value.line_no) == (str(path), 2)


_doc_strategy = st.builds(
    Document,
    id=st.text(min_size=1, max_size=20),
    text=st.text(max_size=200),
    source=st.text(max_size=10),
    created=st.none() | st.text(max_size=20),
    metadata=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.text(max_size=20), st.integers(), st.booleans()),
        max_size=4,
    ),
)


class TestRoundTripProperties:
    @settings(max_examples=200)
    @given(doc=_doc_strategy)
    def test_document_roundtrip(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("rt") / "one.jsonl"
        write_documents([doc], path)
        (got,) = read_documents(path)
        assert got == doc

    @settings(max_examples=200)
    @given(
        raw=st.dictionaries(
            st.text(min_size=1, max_size=10).map(lambda s: f"t__{s}"),
            st.lists(
                st.tuples(st.integers(0, 50), st.integers(0, 50), st.floats(-10, 10)),
                max_size=4,
            ),
            max_size=3,
        )
    )
    def test_attributes_roundtrip(self, tmp_path_factory, raw):
        attributes = {
            name: [AttributeSpan(min(s, e), max(s, e), score) for s, e, score in spans]
            for name, spans in raw.items()
        }
        rec = DocumentAttributes(id="doc", attributes=attributes)
        path = tmp_path_factory.mktemp("rt") / "attrs.jsonl"
        write_attributes([rec], path)
        (got,) = read_attributes(path)
        assert got.id == rec.id
        for name, spans in attributes.items():
            assert got.attributes[name] == sorted(spans, key=lambda sp: (sp.start, sp.end))


# text with non-ASCII, control characters, quotes, backslashes and emoji
_tricky_text = st.text(max_size=40) | st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é", "ß", "中", "😀", "\U0010ffff"]),
    max_size=12,
)
# metadata values: big ints, every float (NaN, infinities and -0.0 among them) and nesting
_metadata_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.floats() | _tricky_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_tricky_text, inner, max_size=3),
    max_leaves=10,
)
_written_docs = st.builds(
    Document,
    id=_tricky_text.filter(bool),
    text=_tricky_text,
    source=_tricky_text,
    created=st.none() | _tricky_text,
    metadata=st.dictionaries(_tricky_text, _metadata_values, max_size=4),
    extra=st.dictionaries(_tricky_text.filter(lambda k: k not in shard_io._DOC_FIELDS), _metadata_values, max_size=2),
)
_written_attrs = st.builds(
    DocumentAttributes,
    id=_tricky_text,
    attributes=st.dictionaries(
        _tricky_text,
        st.lists(
            st.tuples(st.integers(0, 2**40), st.integers(0, 2**40), st.floats(allow_nan=False, allow_infinity=False)).map(
                lambda t: AttributeSpan(min(t[:2]), max(t[:2]), t[2])
            ),
            max_size=3,
        ),
        max_size=3,
    ),
)


def _written_lines(path):
    data = path.read_bytes()
    if path.name.endswith(".gz"):
        data = gzip.decompress(data)
    lines = data.decode("utf-8").split("\n")
    assert lines.pop() == ""
    return lines


class TestWriterEncoding:
    """Every line the writers write is ``json.dumps(obj, ensure_ascii=False)``
    of its record, and what ``json.dumps`` refuses the writers refuse."""

    @settings(max_examples=200, deadline=None)
    @given(docs=st.lists(_written_docs, max_size=4), gz=st.booleans())
    @example(
        docs=[Document(id="é", text="😀\"\\\x00", metadata={"n": float("nan"), "i": float("inf"), "z": -0.0, "f": 1e16,
                                                              "big": 2**70, "deep": {"a": [1, {"b": None}]}},
                       extra={"zz": [True]})],
        gz=False,
    )
    def test_document_lines_are_json_dumps(self, tmp_path_factory, docs, gz):
        path = tmp_path_factory.mktemp("enc") / ("docs.jsonl.gz" if gz else "docs.jsonl")
        assert write_documents(docs, path) == len(docs)
        assert _written_lines(path) == [json.dumps(_doc_to_obj(doc), ensure_ascii=False) for doc in docs]

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(_written_attrs, max_size=4))
    @example(records=[DocumentAttributes(id="a", attributes={"t__x": [AttributeSpan(0, 1, -0.0), AttributeSpan(0, 2**40, 1e16)]})])
    def test_attribute_lines_are_json_dumps(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("enc") / "attrs.jsonl"
        assert write_attributes(records, path) == len(records)
        assert _written_lines(path) == [json.dumps(shard_io._attrs_to_obj(r), ensure_ascii=False) for r in records]

    def test_escaped_emoji_pairs_read_are_written_raw(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"id": "a", "text": "\\ud83d\\ude00 \\uD83D\\uDE00", "metadata": {"m": NaN, "p": Infinity}}\n')
        (doc,) = read_documents(path)
        write_documents([doc], tmp_path / "out.jsonl")
        (line,) = _written_lines(tmp_path / "out.jsonl")
        assert line == json.dumps(_doc_to_obj(doc), ensure_ascii=False)
        assert line == '{"id": "a", "text": "😀 😀", "source": "", "metadata": {"m": NaN, "p": Infinity}}'

    @pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes"])
    def test_unserializable_value_raises_type_error_and_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "out.jsonl"
        metadata = {"keep": {"a": [1]}, "bad": bad}
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_documents([Document(id="a", text="x", metadata=metadata)], path)
        assert list(tmp_path.iterdir()) == []
        # the failed record's containers are not taken for a circular
        # reference when the same dict is written again
        del metadata["bad"]
        write_documents([Document(id="a", text="x", metadata=metadata)], path)
        assert _written_lines(path) == ['{"id": "a", "text": "x", "source": "", "metadata": {"keep": {"a": [1]}}}']

    def test_circular_reference_refused_as_json_dumps_refuses_it(self, tmp_path):
        metadata = {}
        metadata["self"] = metadata
        with pytest.raises(ValueError, match="Circular reference detected"):
            write_documents([Document(id="a", text="x", metadata=metadata)], tmp_path / "out.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_lone_surrogate_fails_on_write_and_on_its_line(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_documents([Document(id="a", text="x\ud800")], tmp_path / "out.jsonl")
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "in.jsonl"
        path.write_text('{"id": "a", "text": "\\ud83d\\ude00"}\n{"id": "b", "text": "x\\ud800"}\n')
        with pytest.raises(MalformedRecordError, match="can't encode character") as err:
            list(read_documents(path))
        assert err.value.line_no == 2


class TestAttributeIO:
    def test_empty_attributes_roundtrip(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_attributes([DocumentAttributes(id="d")], path)
        (got,) = read_attributes(path)
        assert got == DocumentAttributes(id="d", attributes={})

    def test_spans_sorted_on_write(self, tmp_path):
        rec = DocumentAttributes(
            id="d",
            attributes={
                "t__a": [AttributeSpan(5, 9, 1.0), AttributeSpan(0, 3, 2.0)],
                "t__b": [AttributeSpan(2, 4, 0.5), AttributeSpan(0, 1, 0.25)],
            },
        )
        path = tmp_path / "a.jsonl"
        write_attributes([rec], path)
        (got,) = read_attributes(path)
        for spans in got.attributes.values():
            assert spans == sorted(spans, key=lambda sp: (sp.start, sp.end))

    @pytest.mark.parametrize("span", ["[1e400, 2, 1.0]", "[0, -1e400, 1.0]"])
    def test_infinite_span_offset_names_its_line(self, tmp_path, span):
        path = tmp_path / "attrs.jsonl"
        path.write_text('{"id": "a", "attributes": {}}\n{"id": "b", "attributes": {"t__a": [%s]}}\n' % span)
        with pytest.raises(MalformedRecordError, match="infinity") as err:
            list(read_attributes(path))
        assert (err.value.path, err.value.line_no) == (str(path), 2)

    def test_merge_rejects_id_mismatch(self):
        a = DocumentAttributes(id="x")
        with pytest.raises(ValueError):
            a.merge(DocumentAttributes(id="y"))

    def test_merge_rejects_duplicate_names(self):
        a = DocumentAttributes(id="x", attributes={"t__a": []})
        with pytest.raises(ValueError):
            a.merge(DocumentAttributes(id="x", attributes={"t__a": []}))


class TestSidecars:
    def test_directory_entry_names_sidecar_like_shard_file_entry_as_given(self, tmp_path):
        (tmp_path / "attrs").mkdir()
        (tmp_path / "attrs" / "in.jsonl").touch()
        got = sidecar_paths(tmp_path / "data" / "in.jsonl", [tmp_path / "attrs", tmp_path / "other.jsonl"])
        assert got == [tmp_path / "attrs" / "in.jsonl", tmp_path / "other.jsonl"]

    def test_longer_sidecar_named(self, tmp_path):
        write_attributes([DocumentAttributes(id="a"), DocumentAttributes(id="b")], tmp_path / "side.jsonl")
        with pytest.raises(ValueError, match="side.jsonl longer than in.jsonl"):
            list(zip_sidecars(docs3()[:1], "in.jsonl", [tmp_path / "side.jsonl"]))


def _worker_pid(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


def _fail_or_touch(path: str) -> None:
    """Fail at once for an empty path; otherwise wait a little, then create the file."""
    if not path:
        raise ZeroDivisionError("first task")
    time.sleep(0.05)
    Path(path).touch()


def _sleep_then_fail(seconds: float, error: str) -> None:
    """Sleep, then raise ``error`` unless it is empty."""
    time.sleep(seconds)
    if error:
        raise ValueError(error)


def _touch(path: str) -> str:
    Path(path).touch()
    return path


# holds a pool of two workers open after four tasks, printing the workers' pids
_HOLD_POOL = """
import multiprocessing, time
from corpuskit.shard_io import ShardPool
with ShardPool(2) as pool:
    pool.map(time.sleep, [(0.01,)] * 4)
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    time.sleep(60)
"""


class TestShardPool:
    def test_results_in_task_order_for_any_worker_count(self):
        tasks = [(i, 3) for i in range(12)]
        expected = [i**3 for i in range(12)]
        for workers in (1, 2):
            with ShardPool(workers) as pool:
                assert pool.map(pow, tasks) == expected

    @pytest.mark.parametrize("tasks", [[], [(0.0,)]])
    def test_no_task_or_one_runs_in_process_without_a_pool(self, tasks):
        with ShardPool(2) as pool:
            assert pool.map(_worker_pid, tasks) == [os.getpid()] * len(tasks)
            assert pool.executor is None
        assert multiprocessing.active_children() == []

    def test_one_pool_serves_every_fan_out_of_a_job(self):
        with ShardPool(2) as pool:
            # tasks long enough that both workers take some
            first = set(pool.map(_worker_pid, [(0.05,)] * 8))
            second = set(pool.map(_worker_pid, [(0.0,)] * 8))
            assert multiprocessing.active_children()
        assert os.getpid() not in first and len(first) == 2
        assert second <= first
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_exception_propagates(self, workers):
        with pytest.raises(ZeroDivisionError):
            with ShardPool(workers) as pool:
                pool.map(divmod, [(4, 2), (1, 0), (9, 3)])
        assert multiprocessing.active_children() == []

    def test_a_failing_task_ends_the_running_ones(self):
        # the first task fails while the second sleeps; the third fails after the first
        tasks = [(0.2, "first task"), (30.0, ""), (0.0, "third task")]
        started = time.monotonic()
        with pytest.raises(ValueError, match="first task"):
            with ShardPool(2) as pool:
                pool.map(_sleep_then_fail, tasks)
        assert time.monotonic() - started < 1
        assert multiprocessing.active_children() == []

    def test_failed_fan_out_cancels_pending_tasks_and_joins_workers(self, tmp_path):
        tasks = [("",)] + [(str(tmp_path / f"t{i}"),) for i in range(40)]
        with pytest.raises(ZeroDivisionError, match="first task"):
            with ShardPool(2) as pool:
                pool.map(_fail_or_touch, tasks)
        # only tasks a worker had already taken ran; none runs once the block has ended
        assert multiprocessing.active_children() == []
        ran = len(list(tmp_path.iterdir()))
        assert ran < 40
        time.sleep(0.2)
        assert len(list(tmp_path.iterdir())) == ran

    def test_a_task_starts_before_the_task_iterable_is_exhausted(self, tmp_path):
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        started = []

        def tasks():
            yield (first,)
            deadline = time.monotonic() + 10
            while not Path(first).exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            started.append(Path(first).exists())
            yield (second,)

        with ShardPool(2) as pool:
            results = pool.stream(_touch, tasks())
            assert started == [True]
            assert list(results) == [first, second]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_task_taken_before_the_first_result(self, workers):
        taken = []

        def tasks():
            for i in range(5):
                taken.append(i)
                yield (i, 2)

        with ShardPool(workers) as pool:
            results = pool.stream(pow, tasks())
            assert taken == [0, 1, 2, 3, 4]
            assert next(results) == 0
            assert list(results) == [1, 4, 9, 16]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_single_streamed_task_runs_in_process(self, workers):
        with ShardPool(workers) as pool:
            assert list(pool.stream(_worker_pid, [(0.0,)])) == [os.getpid()]
            assert pool.executor is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_stream_partly_drawn_fails_with_the_first_undrawn_failure(self, tmp_path, workers):
        out = tmp_path / "out"
        tasks = [(0.0, ""), (0.0, ""), (0.0, "third task"), (0.0, "fourth task")]
        with pytest.raises(ValueError, match="third task"):
            with ShardPool(workers, out_dir=out) as pool:
                (staged,) = pool.staged([out / "a.jsonl"])
                staged.write_text("")
                results = pool.stream(_sleep_then_fail, tasks)
                assert next(results) is None
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_scope_makes_its_directories_and_removes_them_when_it_ends(self, tmp_path):
        out = tmp_path / "out"
        with ShardPool(1, ".stage-a", "deep/.stage-b", out_dir=out) as pool:
            dirs = pool.temp_dirs
            assert dirs == [pool.staging / ".stage-a", pool.staging / "deep" / ".stage-b"]
            assert all(d.is_dir() for d in dirs)
        assert list(out.iterdir()) == []
        with pytest.raises(ZeroDivisionError):
            with ShardPool(2, ".stage-a", "deep/.stage-b", out_dir=out) as pool:
                (pool.temp_dirs[1] / "part.jsonl").write_text("")
                pool.map(divmod, [(4, 2), (1, 0)])
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_a_directory_that_cannot_be_made_removes_those_made(self, tmp_path, monkeypatch):
        real_mkdir = Path.mkdir

        def mkdir(path, *args, **kwargs):
            if path.name == ".unmakeable":
                raise PermissionError(f"cannot make {path}")
            real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir)
        with pytest.raises(PermissionError):
            with ShardPool(1, ".made", ".unmakeable", out_dir=tmp_path / "new" / "out"):
                pass
        assert list(tmp_path.iterdir()) == []

    def test_workers_end_when_the_job_process_is_killed(self):
        env = dict(os.environ, PYTHONPATH=str(Path(shard_io.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-c", _HOLD_POOL], env=env, stdout=subprocess.PIPE, text=True)
        workers = []
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            workers = [int(pid) for pid in proc.stdout.readline().split()] if ready else []
            assert len(workers) == 2
            proc.kill()  # SIGKILL: the job cannot clean up, so each worker must notice by itself
            proc.wait()
            deadline = time.monotonic() + 5
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if running(pid)] == []
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestOutputPaths:
    def test_basename_under_out_dir(self, tmp_path):
        got = output_paths(["a/x.jsonl", "b/y.jsonl.gz"], tmp_path)
        assert got == [tmp_path / "x.jsonl", tmp_path / "y.jsonl.gz"]

    def test_shared_basename_rejected_naming_both(self, tmp_path):
        with pytest.raises(ShardNameError, match="a/x.jsonl.*b/x.jsonl"):
            output_paths(["a/x.jsonl", "b/x.jsonl"], tmp_path)

    def test_output_that_is_an_input_rejected_naming_it(self, tmp_path):
        (tmp_path / "sub").mkdir()
        inputs = [tmp_path / "a" / "x.jsonl", tmp_path / "y.jsonl"]
        out_dir = tmp_path / "sub" / ".."  # another spelling of the second input's directory
        with pytest.raises(ShardNameError, match=re.escape(f"output {out_dir / 'y.jsonl'} is an input shard")):
            output_paths(inputs, out_dir)
        assert output_paths(inputs, tmp_path / "sub") == [tmp_path / "sub" / "x.jsonl", tmp_path / "sub" / "y.jsonl"]


# stages one output in a scope it holds open until its stdin closes
_HOLD_STAGED = """
import sys
from pathlib import Path
from corpuskit.shard_io import ShardPool
out = Path(sys.argv[1])
with ShardPool(1, out_dir=out) as pool:
    (staged,) = pool.staged([out / "held.jsonl"])
    staged.write_text("held")
    print("staged", flush=True)
    sys.stdin.read()
"""


class TestPublishing:
    def test_jobs_run_at_once_into_one_out_dir_publish_both(self, tmp_path):
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(shard_io.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", _HOLD_STAGED, str(out)], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            assert proc.stdout.readline() == "staged\n"
            with ShardPool(1, out_dir=out) as pool:
                (staged,) = pool.staged([out / "own.jsonl"])
                staged.write_text("own")
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert [(p.name, p.read_text()) for p in sorted(out.iterdir())] == [("held.jsonl", "held"), ("own.jsonl", "own")]

    def test_staged_outputs_moved_into_place_in_order_on_success(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        moved = []
        real_replace = os.replace
        monkeypatch.setattr(shard_io.os, "replace", lambda src, dst: moved.append(dst) or real_replace(src, dst))
        with ShardPool(2, out_dir=out) as pool:
            staged = pool.staged([out / "b.jsonl", out / "a.jsonl"])
            assert all(path.parent.parent == out for path in staged)
            pool.map(Path.write_text, [(path, path.name) for path in staged])
            assert not (out / "a.jsonl").exists()
        assert moved == [out / "b.jsonl", out / "a.jsonl"]
        assert sorted(p.name for p in out.iterdir()) == ["a.jsonl", "b.jsonl"]
        assert (out / "a.jsonl").read_text() == "a.jsonl"

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_job_moves_nothing_and_removes_what_it_made(self, tmp_path, existing):
        out = tmp_path / "deep" / "out"
        if existing:
            out.mkdir(parents=True)
            (out / "a.jsonl").write_text("earlier")
        with pytest.raises(ZeroDivisionError):
            with ShardPool(1, out_dir=out) as pool:
                (staged,) = pool.staged([out / "a.jsonl"])
                staged.write_text("later")
                1 / 0
        if existing:
            assert [(p.name, p.read_text()) for p in out.iterdir()] == [("a.jsonl", "earlier")]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_intermediate_directories_leave_no_output_directory(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ZeroDivisionError):
            with ShardPool(1, ".stage", out_dir=out) as pool:
                (pool.temp_dirs[0] / "0.jsonl").write_text("")
                1 / 0
        assert not out.exists()


class TestStageReportMerge:
    def test_fieldwise_sum(self):
        a = StageReport(stage="s", input_docs=3, kept_docs=2, kept_text_bytes=10)
        a.drop("r1")
        b = StageReport(stage="other", input_docs=2, kept_docs=1, sampled_out_docs=1)
        b.drop("r1")
        b.drop("r2")
        a.merge(b)
        assert (a.stage, a.input_docs, a.kept_docs, a.dropped_docs) == ("s", 5, 3, 3)
        assert (a.sampled_out_docs, a.kept_text_bytes) == (1, 10)
        assert a.drop_reasons == {"r1": 2, "r2": 1}

    def test_fieldwise_sum_of_input_bytes_time_and_flags(self):
        a = StageReport(stage="s", input_text_bytes=7, wall_seconds=0.5, flagged_docs={"t__a": 1})
        a.flagged_spans["t__a"], a.flagged_bytes["t__a"] = 2, 9
        b = StageReport(stage="s", input_text_bytes=3, wall_seconds=0.25)
        b.flagged_docs.update({"t__a": 2, "t__b": 1})
        b.flagged_spans.update({"t__a": 3, "t__b": 1})
        b.flagged_bytes.update({"t__a": 4, "t__b": 6})
        a.merge(b)
        assert (a.input_text_bytes, a.wall_seconds) == (10, 0.75)
        assert a.flagged_docs == {"t__a": 3, "t__b": 1}
        assert a.flagged_spans == {"t__a": 5, "t__b": 1}
        assert a.flagged_bytes == {"t__a": 13, "t__b": 6}

    def test_filter_health_is_kept_not_summed(self):
        health = {"m": 39, "k": 14, "fill": 0.5, "estimated_fpr": 0.1, "added": 3, "n_target": 2}
        a, b = StageReport(stage="s", bloom=dict(health)), StageReport(stage="s", bloom=dict(health))
        a.merge(b)
        assert a.bloom == health
        a.merge(StageReport(stage="s"))
        assert a.bloom == health and a.to_json()["bloom"] == health

    def test_flag_counts_documents_spans_and_merged_bytes(self):
        report = StageReport(stage="s")
        overlapping = [AttributeSpan(0, 5, 1.0), AttributeSpan(3, 8, 0.5), AttributeSpan(10, 12, 1.0)]
        rec = DocumentAttributes(id="a", attributes={"t__a": overlapping, "t__empty": []})
        assert report.flag(rec) is rec
        report.flag(DocumentAttributes(id="b"))
        report.flag(DocumentAttributes(id="c", attributes={"t__a": [AttributeSpan(0, 4, 1.0)]}))
        assert report.input_docs == 3
        assert report.flagged_docs == {"t__a": 2}  # an attribute without spans flags nothing
        assert report.flagged_spans == {"t__a": 4}
        assert report.flagged_bytes == {"t__a": 8 + 2 + 4}  # [0, 8) and [10, 12) merged, then [0, 4)


class TestStageReportKept:
    def test_counts_drops_by_reason_and_yields_keeps_in_order(self):
        a, b, c = docs3()
        report = StageReport(stage="s")
        decisions = [Drop("r1"), Keep(a), Drop("r2"), Keep(b), Drop("r1"), Keep(c)]
        assert list(report.kept(decisions)) == [a, b, c]
        assert (report.input_docs, report.kept_docs, report.dropped_docs) == (6, 3, 3)
        assert report.drop_reasons == {"r1": 2, "r2": 1}

    def test_counts_lazily_as_the_next_stage_pulls(self):
        a, b, c = docs3()
        first, second = StageReport(stage="first"), StageReport(stage="second")
        decisions = iter([Keep(a), Drop("r1"), Keep(b), Keep(c)])
        survivors = first.kept(decisions)
        pulled = second.kept(Drop("r2") if doc is a else Keep(doc) for doc in survivors)
        assert (first.input_docs, second.input_docs) == (0, 0)
        assert next(pulled) is b
        # a was dropped by the second stage; the first has counted only up to b
        assert (first.input_docs, first.kept_docs, first.dropped_docs) == (3, 2, 1)
        assert (second.input_docs, second.kept_docs, second.drop_reasons) == (2, 1, {"r2": 1})
        assert list(decisions) == [Keep(c)]
