"""Newline-delimited JSON shard I/O for documents and attribute sidecars,
and the shard-task engine every per-shard job runs through.

One JSON object per line; a malformed line, a record whose field has the
wrong type, an infinite span offset, bytes that are not UTF-8, an escaped
lone surrogate or a cut or corrupt gzip stream raises
:class:`MalformedRecordError` with its path and line number, and
:func:`write_documents` is the one writer of document lines. A line is
decoded by the C JSON scanner when it reads the whole line, and by
``json.loads`` otherwise, so the records read and every error are
``json.loads``'. A record is encoded by one C JSON encoder, built at
import and not per record, so every line written is
``json.dumps(obj, ensure_ascii=False)``. Gzip is detected on read by magic
bytes (robust to renamed shards) and selected on write by the ``.gz``
suffix of the output path. Gzip members are written with mtime pinned to
0 so identical content always produces identical bytes.

An attribute sidecar lines up with its document shard record for record:
:func:`sidecar_paths` finds a shard's sidecars and :func:`zip_sidecars`
walks them alongside it. Per-shard jobs name their outputs with
:func:`output_paths` and run in one :class:`ShardPool`, the job's one
scope: it holds the job's intermediate directories inside its staging
directory, and its worker processes start at the first fan-out that needs
them, serve every later one and are joined before the directories are
removed; it is the one publish step, moving a job's outputs into place
only if the job succeeds. Its one fan-out, ``stream``, submits each task as
its iterable yields it and gives the results in task order as they come
in, so a job can overlap its own stages with its tasks; ``map`` is its list form.
Jobs fold their per-shard :class:`StageReport` counters together with
``merge``: it is the one counted report of every job, its ``flag`` the
one counter of attribute records and its ``kept`` the one counter of
filter decisions.

:func:`tagged` is the one loop that tags a stream of documents: taggers,
dedup stages and decontamination alike get chunks of consecutive
documents, and a :class:`ChunkTagger` tags a whole chunk in one call.
Given a gate, it runs its taggers as a cascade: a document the gate calls
dropped gets no later tagger.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
import shutil
import signal
import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, Sized

from corpuskit.documents import AttributeSpan, Document, DocumentAttributes
from corpuskit.filters import Decision, Drop, merge_spans

_GZIP_MAGIC = b"\x1f\x8b"

_DOC_FIELDS = frozenset(("id", "text", "source", "created", "metadata"))


class MalformedRecordError(ValueError):
    def __init__(self, path: str | os.PathLike, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason

    def __reduce__(self):
        # a worker's error reaches the parent pickled; by default unpickling
        # would call __init__ with the message alone
        return type(self), (self.path, self.line_no, self.reason)


def open_shard_read(path: str | os.PathLike) -> io.TextIOBase:
    f = open(path, "rb")
    magic = f.read(2)
    f.seek(0)
    if magic == _GZIP_MAGIC:
        return io.TextIOWrapper(gzip.GzipFile(fileobj=f, mode="rb"), encoding="utf-8")
    return io.TextIOWrapper(f, encoding="utf-8")


_DOC_TYPES = (("id", str), ("text", str), ("source", str), ("created", (str, type(None))), ("metadata", dict))
_ATTRS_TYPES = (("id", str), ("attributes", dict))


def _wrong_type(obj: dict, types: tuple) -> TypeError:
    """The error naming the first field of ``obj`` not of its type in ``types``."""
    key = next(key for key, t in types if key in obj and not isinstance(obj[key], t))
    return TypeError(f"field {key!r} has type {type(obj[key]).__name__}")


def _doc_from_obj(obj: dict) -> Document:
    doc_id, text, source = obj["id"], obj.get("text", ""), obj.get("source", "")
    created, metadata = obj.get("created"), obj.get("metadata", {})
    # _DOC_TYPES checked inline, not by a loop over it, as this runs for every record read
    if not (
        isinstance(doc_id, str)
        and isinstance(text, str)
        and isinstance(source, str)
        and (created is None or isinstance(created, str))
        and isinstance(metadata, dict)
    ):
        raise _wrong_type(obj, _DOC_TYPES)
    return Document(
        id=doc_id,
        text=text,
        source=source,
        created=created,
        metadata=metadata,
        extra={} if obj.keys() <= _DOC_FIELDS else {k: v for k, v in obj.items() if k not in _DOC_FIELDS},
    )


def _doc_to_obj(doc: Document) -> dict:
    # Field order is normalized on write: known fields first, extras sorted.
    obj: dict = {"id": doc.id, "text": doc.text, "source": doc.source}
    if doc.created is not None:
        obj["created"] = doc.created
    if doc.metadata:
        obj["metadata"] = doc.metadata
    for key in sorted(doc.extra):
        obj[key] = doc.extra[key]
    return obj


# a lone surrogate enters a record only as a \uD800-\uDFFF escape the JSON decoder leaves
# unpaired: a high one with no low after it, or a low one with no high before it
_lone_surrogate = re.compile(r"(?i)\\ud(?:[89ab]..(?!\\ud[c-f])|(?<![^\\]\\ud[89ab]..\\ud)[c-f])").search


_scan_once = json.JSONDecoder().scan_once


def _decode_line(line: str) -> object:
    """``json.loads(line)``, faster: the C scanner's object when it reads the
    whole line, and otherwise ``json.loads`` itself, so that surrounding
    whitespace, a BOM, trailing data and every error come out as it gives them."""
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


def _read_records(path: str | os.PathLike, decode: Callable[[dict], object]) -> Iterator:
    """The JSONL line loop of both readers: decode each non-empty line's object."""
    line_no = 0
    with open_shard_read(path) as f:
        try:
            for line_no, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    obj = _decode_line(line)
                    if not isinstance(obj, dict):
                        raise ValueError("record is not an object")
                    if _lone_surrogate(line):
                        # the record decodes, but cannot be written as UTF-8: fail on its line
                        _encode(obj).encode("utf-8")
                    record = decode(obj)
                except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                    raise MalformedRecordError(path, line_no, str(exc)) from exc
                yield record
        except (UnicodeDecodeError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
            # bytes that are not UTF-8, or a gzip stream cut short or corrupt,
            # met reading the next line; the decoder reads ahead by a block,
            # so bad bytes are found on their own line by reading again
            bad_line = isinstance(exc, UnicodeDecodeError) and _first_escaped_line(path)
            raise MalformedRecordError(path, bad_line or line_no + 1, str(exc)) from exc


_escaped_byte = re.compile(r"[\udc80-\udcff]").search


def _first_escaped_line(path: str | os.PathLike) -> int | None:
    """The number of the first line of ``path`` holding bytes that are not
    UTF-8, split into lines as :func:`_read_records` splits them; None if
    none is found before the end or a gzip fault."""
    try:
        with open_shard_read(path) as f:
            f.reconfigure(errors="surrogateescape")
            for line_no, line in enumerate(f, start=1):
                if _escaped_byte(line):
                    return line_no
    except (EOFError, gzip.BadGzipFile, zlib.error):
        pass
    return None


def record_line(path: str | os.PathLike, index: int) -> int:
    """The number of the line of ``path`` holding its record ``index``
    (from 0), split into lines as :func:`_read_records` splits them: an
    empty line holds no record."""
    with open_shard_read(path) as f:
        lines = (line_no for line_no, line in enumerate(f, start=1) if line.rstrip("\n"))
        return next(islice(lines, index, None))


def read_documents(path: str | os.PathLike) -> Iterator[Document]:
    """Yield documents in file order; a malformed line raises
    :class:`MalformedRecordError` naming its line."""
    yield from _read_records(path, _doc_from_obj)


@contextmanager
def atomic_output(path: str | os.PathLike) -> Iterator[Path]:
    """Yield a temporary sibling of ``path`` to write to; it replaces ``path``
    if the block succeeds and is removed if it fails, leaving no partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


# one encoder for every record: ``JSONEncoder.encode`` builds a new C encoder
# on every call, so the C encoder is built once here, with its settings
_encoder = json.JSONEncoder(ensure_ascii=False)
_markers: dict = {}  # the containers an encoding is inside, for its circular-reference check
_c_encode = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    _markers, _encoder.default, json.encoder.encode_basestring, _encoder.indent, _encoder.key_separator,
    _encoder.item_separator, _encoder.sort_keys, _encoder.skipkeys, _encoder.allow_nan,
)


def _encode(obj: dict) -> str:
    """``json.dumps(obj, ensure_ascii=False)``, by the one prebuilt C encoder
    where the C accelerator is present."""
    if _c_encode is None:
        return _encoder.encode(obj)
    try:
        return "".join(_c_encode(obj, 0))
    except BaseException:
        # a failed encoding leaves the containers it was inside in the markers
        _markers.clear()
        raise


def _write_records(objs: Iterable[dict], path: str | os.PathLike) -> int:
    """Write one JSON object per line, atomically, as one gzip member if
    ``path`` ends in ``.gz``; returns the count."""
    count = 0
    with atomic_output(path) as tmp, open(tmp, "wb") as raw:
        binary = raw
        if str(path).endswith(".gz"):
            binary = gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
        with io.TextIOWrapper(binary, encoding="utf-8") as f:
            for obj in objs:
                f.write(_encode(obj) + "\n")
                count += 1
    return count


def write_documents(docs: Iterable[Document], path: str | os.PathLike) -> int:
    """Write documents as one JSON object per line; returns the count."""
    return _write_records(map(_doc_to_obj, docs), path)


def _attrs_from_obj(obj: dict) -> DocumentAttributes:
    doc_id, encoded = obj["id"], obj.get("attributes", {})
    if not (isinstance(doc_id, str) and isinstance(encoded, dict)):
        raise _wrong_type(obj, _ATTRS_TYPES)
    attributes = {}
    for name, spans in encoded.items():
        attributes[name] = [AttributeSpan(int(s), int(e), float(v)) for s, e, v in spans]
    return DocumentAttributes(id=doc_id, attributes=attributes)


def _attrs_to_obj(attrs: DocumentAttributes) -> dict:
    encoded = {}
    for name in sorted(attrs.attributes):
        spans = sorted(attrs.attributes[name], key=lambda sp: (sp.start, sp.end))
        encoded[name] = [[sp.start, sp.end, float(sp.score)] for sp in spans]
    return {"id": attrs.id, "attributes": encoded}


def read_attributes(path: str | os.PathLike) -> Iterator[DocumentAttributes]:
    """Yield attribute records in file order (mirrors ``read_documents``)."""
    yield from _read_records(path, _attrs_from_obj)


def write_attributes(records: Iterable[DocumentAttributes], path: str | os.PathLike) -> int:
    """Write attribute records aligned with their document shard order."""
    return _write_records(map(_attrs_to_obj, records), path)


class ShardNameError(ValueError):
    pass


def output_paths(inputs: Iterable[str | os.PathLike], out_dir: str | os.PathLike) -> list[Path]:
    """Name each input shard's output ``out_dir/<basename>``.

    Two inputs with one basename would write the same output, and an output
    that is an input would replace it, so both are rejected before anything
    is read.
    """
    out_dir = Path(out_dir)
    inputs = list(inputs)
    resolved = {Path(path).resolve() for path in inputs}
    seen: dict[str, str] = {}
    outputs = []
    for path in inputs:
        name = Path(path).name
        if name in seen:
            raise ShardNameError(
                f"input shards {seen[name]} and {path} share the basename {name!r}; "
                f"their outputs in {out_dir} would collide"
            )
        if (out_dir / name).resolve() in resolved:
            raise ShardNameError(f"output {out_dir / name} is an input shard; it would be overwritten")
        seen[name] = str(path)
        outputs.append(out_dir / name)
    return outputs


def sidecar_paths(doc_path: str | os.PathLike, entries: Iterable[str | os.PathLike]) -> list[Path]:
    """The attribute sidecars of the document shard ``doc_path``, one per
    entry: a directory entry holds the sidecar named like the shard,
    ``<dir>/<shard basename>`` (the name :func:`output_paths` gives it), and
    a file entry is used as given."""
    resolved = []
    for entry in map(Path, entries):
        if entry.is_dir():
            entry = entry / Path(doc_path).name
            if not entry.exists():
                raise FileNotFoundError(f"no attribute sidecar {entry} for {doc_path}")
        resolved.append(entry)
    return resolved


def zip_sidecars(
    records: Iterable, path: str | os.PathLike, sidecars: Sequence[str | os.PathLike]
) -> Iterator[tuple]:
    """Pair each record read from the shard ``path`` with its sidecars'
    attribute records, merged into one :class:`DocumentAttributes`.

    Sidecars line up with their shard record for record, by id; a sidecar
    that is shorter, longer or misaligned raises ``ValueError`` naming it.
    """
    streams = [read_attributes(p) for p in sidecars]
    for record in records:
        merged = DocumentAttributes(id=record.id)
        for stream, sidecar in zip(streams, sidecars):
            attrs = next(stream, None)
            if attrs is None:
                raise ValueError(f"attribute shard {sidecar} shorter than {path}")
            if attrs.id != record.id:
                raise ValueError(
                    f"attribute shard {sidecar} misaligned: got {attrs.id!r}, expected {record.id!r}"
                )
            merged.merge(attrs)
        yield record, merged
    for stream, sidecar in zip(streams, sidecars):
        if next(stream, None) is not None:
            raise ValueError(f"attribute shard {sidecar} longer than {path}")


TaggerFn = Callable[[Document], dict[str, list[AttributeSpan]]]

# tagging hands each tagger a chunk of consecutive documents; a chunk closes
# once it holds this many documents or this many UTF-8 text bytes, so a
# chunk of large documents does not grow the batch arrays of a tagger
TAG_CHUNK_DOCS = 32
TAG_CHUNK_BYTES = 1 << 16


class ChunkTagger:
    """A tagger that also tags a chunk of documents in one call,
    ``tag_many(docs)``, returning each document's attributes in order;
    called on one document, it tags a chunk of one."""

    def __init__(self, tag_many: Callable[[list[Document]], list[dict[str, list[AttributeSpan]]]]) -> None:
        self.tag_many = tag_many

    def __call__(self, doc: Document) -> dict[str, list[AttributeSpan]]:
        return self.tag_many([doc])[0]


def _tag_chunk(
    docs: list[Document], taggers: Sequence[TaggerFn], dropped: Callable[[Document, DocumentAttributes], bool] | None
) -> list[DocumentAttributes]:
    """Run every tagger on a chunk of documents and merge each document's
    attributes; a :class:`ChunkTagger` tags the chunk in one call, any
    other tagger one document at a time. After each tagger, a document
    ``dropped`` calls dropped gets no later tagger."""
    records = [DocumentAttributes(id=doc.id) for doc in docs]
    live = list(zip(docs, records))
    for tagger in taggers:
        batch = [doc for doc, _ in live]
        results = tagger.tag_many(batch) if isinstance(tagger, ChunkTagger) else map(tagger, batch)
        for (_, record), attributes in zip(live, results):
            record.merge(DocumentAttributes(id=record.id, attributes=attributes))
        if dropped is not None:
            live = [(doc, record) for doc, record in live if not dropped(doc, record)]
            if not live:
                break
    return records


def tagged(
    docs: Iterable[Document],
    taggers: Sequence[TaggerFn],
    dropped: Callable[[Document, DocumentAttributes], bool] | None = None,
) -> Iterator[tuple[Document, DocumentAttributes]]:
    """Yield each document with its merged attributes, in order, tagging
    consecutive documents in chunks of ``TAG_CHUNK_DOCS`` documents or
    ``TAG_CHUNK_BYTES`` text bytes, whichever is reached first.

    With a gate ``dropped(doc, attrs)``, the taggers run as a cascade: after
    each tagger, a document the gate calls dropped, on the attributes
    merged so far, gets no later tagger, so its record holds only the
    attributes of the taggers it reached, and a :class:`ChunkTagger` gets
    the chunk's remaining documents in one call. Without one, every tagger
    tags every document."""
    docs = iter(docs)
    while True:
        chunk, size = [], 0
        for doc in docs:
            chunk.append(doc)
            size += doc.text_size
            if len(chunk) >= TAG_CHUNK_DOCS or size >= TAG_CHUNK_BYTES:
                break
        if not chunk:
            return
        yield from zip(chunk, _tag_chunk(chunk, taggers, dropped))


class ShardPool:
    """The one scope of a job: its worker processes, which all its fan-outs
    share, its intermediate directories, and the publishing of its outputs.
    ``with ShardPool(workers, *temp_names, out_dir=out) as pool:`` makes
    ``out/.publish-<pid>`` (one per job's process, so jobs run at once into
    ``out`` stay apart), where the job writes the outputs it names with
    :meth:`staged`, and inside it the intermediate directories named
    ``temp_names``, whose paths are ``pool.temp_dirs``. When the block ends,
    the results of its fan-outs that nobody drew are drawn, tasks not yet
    started are cancelled, the workers joined, and only then, if the block
    and those results succeeded, the outputs moved into ``out`` in the order
    named. The staging directory is removed either way. When the job fails,
    the workers are sent SIGTERM first, so a task still running does not
    hold the job up, and nothing is moved; the directories only the staging
    directory made are removed too. A worker also ends by itself once the
    job's process is gone."""

    def __init__(self, workers: int, *temp_names: str, out_dir: str | os.PathLike | None = None) -> None:
        self.workers = workers
        self.staging = None if out_dir is None else Path(out_dir) / f".publish-{os.getpid()}"
        self.temp_dirs = [self.staging / name for name in temp_names]
        self.outputs: list[Path] = []  # the staged outputs' final paths, in publishing order
        self.made: list[Path] = []  # the directories only the staging directory made
        self.undrawn: list[deque] = []  # per fan-out, the calls giving the results not drawn yet
        self.executor: ProcessPoolExecutor | None = None

    def __enter__(self) -> "ShardPool":
        if self.staging is not None:
            self.made = [d for d in self.staging.parents if not d.exists()]
            try:
                for d in (self.staging, *self.temp_dirs):
                    d.mkdir(parents=True, exist_ok=True)
            except BaseException as exc:
                self.__exit__(type(exc))
                raise
        return self

    def __exit__(self, exc_type=None, *exc_info) -> None:
        failed = exc_type is not None
        try:
            if not failed:
                # a result nobody drew may be a task's failure, which fails the job
                for calls in self.undrawn:
                    for call in calls:
                        call()
        except BaseException:
            failed = True
            raise
        finally:
            self._end(failed)

    def _end(self, failed: bool) -> None:
        try:
            if self.executor is not None:
                if failed:
                    # the executor's own record of its workers, so that no
                    # other child of the job's process is ended
                    workers = list((self.executor._processes or {}).values())
                    for worker in workers:
                        worker.terminate()
                    for worker in workers:
                        worker.join()
                self.executor.shutdown(wait=True, cancel_futures=True)
            if not failed:
                for path in self.outputs:
                    os.replace(self.staging / path.name, path)
        finally:
            if self.staging is not None:
                shutil.rmtree(self.staging, ignore_errors=True)
            if failed:
                for d in self.made:
                    with suppress(OSError):
                        d.rmdir()

    def staged(self, outputs: Sequence[Path]) -> list[Path]:
        """Where the job writes ``outputs``, files of its ``out_dir``: their
        names in the staging directory. When the job succeeds, they are
        moved into place after those named before them."""
        self.outputs += outputs
        return [self.staging / path.name for path in outputs]

    def stream(self, fn: Callable, tasks: Iterable[tuple]) -> Iterator:
        """Run ``fn(*task)`` for every task, and return an iterator over the
        results in task order, each given once it and every result before
        it are in.

        Every task is taken before this returns, and each one is submitted
        as soon as ``tasks`` yields it, so ``tasks`` may be a generator that
        makes each task's input just before yielding it. With ``workers <= 1``,
        or a sized ``tasks`` of at most one task, the calls run in this
        process, in order, each as its result is drawn; otherwise they fan
        out over the job's process pool, started by the first fan-out that
        needs it, so ``fn`` and its arguments must pickle. Drawing the result
        of a task that failed raises its exception; the results nobody draws
        are drawn when the scope ends.
        """
        if self.workers <= 1 or (isinstance(tasks, Sized) and len(tasks) <= 1):
            calls = deque(partial(fn, *task) for task in tasks)
        else:
            calls = deque(self._submit(fn, task).result for task in tasks)
        self.undrawn.append(calls)
        return _drawn(calls)

    def map(self, fn: Callable, tasks: Sequence[tuple]) -> list:
        """The results of :meth:`stream` as a list: an exception raised by a
        task propagates, the first in task order, once the tasks before it
        have ended."""
        return list(self.stream(fn, tasks))

    def _submit(self, fn: Callable, task: tuple) -> Future:
        # the workers fork at the first submit: SIGTERM waits until the
        # executor has recorded them all, so that its shutdown joins them
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            if self.executor is None:
                self.executor = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_end_with_parent, initargs=(os.getpid(),)
                )
            return self.executor.submit(fn, *task)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)


def _drawn(calls: deque) -> Iterator:
    """Call each of ``calls`` in turn, yielding its result; a call is taken
    off before it runs, so a result is drawn once, a failure included."""
    while calls:
        yield calls.popleft()()


def _end_with_parent(parent: int) -> None:
    """Worker initializer: take back the default SIGTERM action and let it
    through, as the fork copied the handler of a parent that may turn it
    into an exception and the mask that held it back, and end this worker
    once ``parent``, the job's process, is gone."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@dataclass
class StageReport:
    """What one stage of a job, one source of a mix or one tagging run
    counted: documents in, kept, dropped (by reason) and sampled out; text
    bytes in and kept; its wall time; and per attribute, the documents its
    records flag, their spans and the bytes the merged spans cover. A dedup
    stage of ``pipeline-web`` also carries its Bloom filter's ``health()``."""

    stage: str
    input_docs: int = 0
    kept_docs: int = 0
    dropped_docs: int = 0
    sampled_out_docs: int = 0
    input_text_bytes: int = 0
    kept_text_bytes: int = 0
    wall_seconds: float = 0.0
    drop_reasons: dict = field(default_factory=dict)
    flagged_docs: dict = field(default_factory=dict)
    flagged_spans: dict = field(default_factory=dict)
    flagged_bytes: dict = field(default_factory=dict)
    bloom: dict | None = None

    def merge(self, other: "StageReport") -> None:
        """Add ``other`` field by field: numbers add, count dicts add per
        key, and the stage name and filter health stay this report's."""
        for f in fields(self):
            if f.name == "bloom":  # a snapshot of one filter, not a count
                continue
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if isinstance(mine, dict):
                for key, n in theirs.items():
                    mine[key] = mine.get(key, 0) + n
            elif isinstance(mine, (int, float)):
                setattr(self, f.name, mine + theirs)

    def drop(self, reason: str) -> None:
        self.dropped_docs += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def kept(self, decisions: Iterable[Decision]) -> Iterator[Document]:
        """Count each filter decision as one input document, then as a drop
        by its reason or a keep, and yield the kept documents in order;
        lazily, so a stage's counts cover the decisions drawn so far."""
        for decision in decisions:
            self.input_docs += 1
            if isinstance(decision, Drop):
                self.drop(decision.reason)
            else:
                self.kept_docs += 1
                yield decision.doc

    def flag(self, attrs: DocumentAttributes) -> DocumentAttributes:
        """Count one input document's attribute record: each attribute with
        spans flags the document once, and adds its spans and the bytes
        they cover once merged. Returns ``attrs``, so a writer can count
        the records it writes with ``map(report.flag, records)``."""
        self.input_docs += 1
        for name, spans in attrs.attributes.items():
            if spans:
                self.flagged_docs[name] = self.flagged_docs.get(name, 0) + 1
                self.flagged_spans[name] = self.flagged_spans.get(name, 0) + len(spans)
                covered = sum(sp.end - sp.start for sp in merge_spans(spans))
                self.flagged_bytes[name] = self.flagged_bytes.get(name, 0) + covered
        return attrs

    def to_json(self) -> dict:
        report = {
            "stage": self.stage,
            "input_docs": self.input_docs,
            "kept_docs": self.kept_docs,
            "dropped_docs": self.dropped_docs,
            "drop_reasons": dict(sorted(self.drop_reasons.items())),
        }
        if self.bloom is not None:
            report["bloom"] = self.bloom
        return report
