"""Mixing: filter streams, up/down-sample sources, and reshard the output.

Sampling is per-document Bernoulli on a seeded hash of (source, doc id,
repeat index), so decisions need no coordination between workers and the
output is reproducible for a fixed config and seed. A mix is one
:class:`~corpuskit.shard_io.ShardPool` scope, whose workers serve both of
its fan-outs: with proportions, a measuring pass sizes each input file's
sources in parallel, and the parent sums the sizes (every source with
input mass must have a weight); then filtering and sampling run per input
file into one part each. Resharding then concatenates the parts in config
order into shards, so output bytes do not depend on worker count, and the
scope publishes them only if the mix succeeds. A span past the end of its
document fails naming the sidecar and line it came from.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterator

from corpuskit.documents import Document, DocumentAttributes
from corpuskit.filters import ConfigObject, Drop, FilterExpr, SpanBoundsError, apply_filters
from corpuskit.shard_io import (
    ShardPool,
    StageReport,
    read_attributes,
    read_documents,
    record_line,
    sidecar_paths,
    write_documents,
    zip_sidecars,
)

_MASK64 = (1 << 64) - 1
DEFAULT_SHARD_BYTES = 64 * 2**20


class MixConfigError(ValueError):
    pass


@dataclass
class StreamConfig:
    documents: list[str]
    attributes: list[str] = field(default_factory=list)
    filters: list[FilterExpr] = field(default_factory=list)

    @classmethod
    def from_json(cls, obj: dict) -> "StreamConfig":
        """A stream from its JSON object: ``documents`` and ``attributes``
        lists of paths and ``filters`` a list of filter objects."""
        obj = ConfigObject(obj, MixConfigError, "a stream")
        stream = cls(
            documents=obj.take("documents", "a list of strings"),
            attributes=obj.take("attributes", "a list of strings", []),
            filters=[FilterExpr.from_json(e) for e in obj.take("filters", "a list of objects", [])],
        )
        obj.refuse_unread()
        return stream


@dataclass
class MixConfig:
    streams: list[StreamConfig]
    proportions: dict[str, float] | None = None  # source -> target weight
    upsample: dict[str, int] = field(default_factory=dict)  # source -> repeats
    seed: int = 0
    output_shard_bytes: int = DEFAULT_SHARD_BYTES

    def __post_init__(self) -> None:
        if not self.streams:
            raise MixConfigError("mix config needs at least one stream")
        if self.proportions is not None:
            if not all(0 <= w < math.inf for w in self.proportions.values()):
                raise MixConfigError("proportion weights must be finite and >= 0")
            if not any(w > 0 for w in self.proportions.values()):
                raise MixConfigError("proportion weights must not all be zero")
        for source, factor in self.upsample.items():
            if int(factor) < 1:
                raise MixConfigError(f"upsample factor for {source!r} must be >= 1")
        if self.output_shard_bytes < 1:
            raise MixConfigError("output_shard_bytes must be >= 1")

    @classmethod
    def from_json(cls, obj: dict) -> "MixConfig":
        """The mix a JSON object describes; a missing ``streams`` or a mistyped or
        unread key raises :class:`MixConfigError` naming the key. Weights are
        JSON numbers, and repeats, the seed and the shard size integers."""
        obj = ConfigObject(obj, MixConfigError, "the mix config")
        config = cls(
            streams=[StreamConfig.from_json(s) for s in obj.take("streams", "a list of objects")],
            proportions=obj.take("proportions", "an object of numbers", None),
            upsample=obj.take("upsample", "an object of integers", {}),
            seed=obj.take("seed", "an integer", 0),
            output_shard_bytes=obj.take("output_shard_bytes", "an integer", DEFAULT_SHARD_BYTES),
        )
        obj.refuse_unread()
        return config


def sample_proportions(weights: dict[str, float], sizes: dict[str, float]) -> dict[str, float]:
    """Per-source inclusion probabilities realizing the target byte shares.

    Expected output shares equal the normalized weights exactly; the
    densest source is sampled at 100% (a source cannot exceed its available
    mass without upsampling). A source with input mass but no weight would
    be kept whole, outside the shares, so it is refused. Deterministic and
    seed-free: the mix seed drives only the later per-document draws.
    """
    total_weight = sum(weights.values())
    if total_weight <= 0:
        raise MixConfigError("proportion weights must not all be zero")
    unweighted = next((source for source, size in sizes.items() if size > 0 and source not in weights), None)
    if unweighted is not None:
        raise MixConfigError(f"source {unweighted!r} has input mass but no proportion weight")
    densities = {}
    for source, weight in weights.items():
        if weight == 0:
            continue
        size = sizes.get(source, 0)
        if size <= 0:
            raise MixConfigError(f"source {source!r} has weight but no input mass")
        densities[source] = (weight, size)
    peak_w, peak_s = max(densities.values(), key=lambda ws: ws[0] / ws[1])
    # cross products keep equal-density sources at exactly 1.0
    rates = {source: (w * peak_s) / (s * peak_w) for source, (w, s) in densities.items()}
    for source, weight in weights.items():
        if weight == 0:
            rates[source] = 0.0
    return rates


def _keep_draw(seed: int, source: str, doc_id: str, repeat: int) -> float:
    payload = f"{seed}\x1f{source}\x1f{doc_id}\x1f{repeat}".encode("utf-8")
    h = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
    return h / (_MASK64 + 1)


@dataclass
class MixReport:
    sources: dict[str, StageReport] = field(default_factory=dict)
    output_shards: list[str] = field(default_factory=list)

    def source(self, name: str) -> StageReport:
        if name not in self.sources:
            self.sources[name] = StageReport(stage=name)
        return self.sources[name]

    def to_json(self) -> dict:
        total_bytes = sum(s.kept_text_bytes for s in self.sources.values())
        sources = {}
        for name, rep in sorted(self.sources.items()):
            sources[name] = {
                "input_docs": rep.input_docs,
                "kept_docs": rep.kept_docs,
                "dropped_docs": rep.dropped_docs,
                "sampled_out_docs": rep.sampled_out_docs,
                "kept_text_bytes": rep.kept_text_bytes,
                "byte_share": rep.kept_text_bytes / total_bytes if total_bytes else 0.0,
                "drop_reasons": dict(sorted(rep.drop_reasons.items())),
            }
        return {
            "sources": sources,
            "total_kept_docs": sum(s.kept_docs for s in self.sources.values()),
            "total_kept_text_bytes": total_bytes,
            "output_shards": self.output_shards,
        }


def iter_doc_attrs(
    doc_path: str | os.PathLike, attribute_entries: list[str]
) -> Iterator[tuple[Document, DocumentAttributes]]:
    """Zip a document shard with its attribute sidecars, checking alignment."""
    yield from zip_sidecars(read_documents(doc_path), doc_path, sidecar_paths(doc_path, attribute_entries))


def _measure_one_file(doc_path: str, upsample: dict[str, int]) -> dict[str, int]:
    """Measuring task: one input file's text bytes per source, times repeats."""
    sizes: dict[str, int] = {}
    for doc in read_documents(doc_path):
        repeats = int(upsample.get(doc.source, 1))
        sizes[doc.source] = sizes.get(doc.source, 0) + doc.text_size * repeats
    return sizes


def measure_source_sizes(config: MixConfig, pool: ShardPool) -> dict[str, int]:
    """Pre-filter text bytes per source, used to derive sampling rates: one
    task per input file on ``pool``, summed here.

    Upsampled sources count once per repeat. Heavy filtering will skew
    realized shares away from the targets; the mix report shows what was
    realized.
    """
    tasks = [(str(path), config.upsample) for stream in config.streams for path in stream.documents]
    sizes: dict[str, int] = {}
    for file_sizes in pool.map(_measure_one_file, tasks):
        for source, size in file_sizes.items():
            sizes[source] = sizes.get(source, 0) + size
    return sizes


def _filter_one_file(
    stream: StreamConfig,
    doc_path: str,
    part_path: str,
    seed: int,
    upsample: dict[str, int],
    rates: dict[str, float] | None,
) -> dict[str, StageReport]:
    """Phase 1 worker: filter + sample one input file into one part file."""
    report = MixReport()

    def kept() -> Iterator[Document]:
        for index, (doc, attrs) in enumerate(iter_doc_attrs(doc_path, stream.attributes)):
            rep = report.source(doc.source)
            rep.input_docs += 1
            try:
                decision = apply_filters(doc, attrs, stream.filters)
            except SpanBoundsError as exc:
                raise _naming_sidecar(exc, stream, doc_path, index, doc) from exc
            if isinstance(decision, Drop):
                rep.drop(decision.reason)
                continue
            kept_doc = decision.doc
            rate = 1.0 if rates is None else rates.get(doc.source, 1.0)
            for repeat in range(int(upsample.get(doc.source, 1))):
                if rate < 1.0 and _keep_draw(seed, doc.source, doc.id, repeat) >= rate:
                    rep.sampled_out_docs += 1
                    continue
                rep.kept_docs += 1
                rep.kept_text_bytes += kept_doc.text_size
                yield kept_doc

    write_documents(kept(), part_path)
    return report.sources


def _naming_sidecar(
    exc: SpanBoundsError, stream: StreamConfig, doc_path: str, index: int, doc: Document
) -> SpanBoundsError:
    """The span error ``exc`` of record ``index`` of ``doc_path``, prefixed
    with ``<sidecar>:<line>:`` as a ``MalformedRecordError`` is. An attribute
    lives in one sidecar, so the sidecar is the one whose record alone
    raises the same error; ``exc`` itself if none does. Error path only."""
    for sidecar in sidecar_paths(doc_path, stream.attributes):
        attrs = next(islice(read_attributes(sidecar), index, None))
        try:
            apply_filters(doc, attrs, stream.filters)
        except SpanBoundsError as own:
            if str(own) == str(exc):
                return SpanBoundsError(f"{sidecar}:{record_line(sidecar, index)}: {exc}")
    return exc


def mix(config: MixConfig, out_dir: str | os.PathLike, workers: int = 1) -> MixReport:
    """Run the full mix: filter, sample, upsample, and reshard.

    Same config and seed produce byte-identical output shards regardless of
    worker count. The filtered parts live in ``.mix-parts/`` and the output
    shards are written beside it, both in the staging directory of the mix's
    :class:`~corpuskit.shard_io.ShardPool`, which moves the shards into
    ``out_dir`` only if the mix succeeds. An ``out_dir`` holding a
    ``part-*.jsonl`` this mix would not overwrite raises
    :class:`MixConfigError`, and no shard of this mix is moved into it.
    """
    out_dir = Path(out_dir)
    rates = None
    report = MixReport()
    with ShardPool(workers, ".mix-parts", out_dir=out_dir) as pool:
        (tmp_dir,) = pool.temp_dirs
        if config.proportions is not None:
            sizes = measure_source_sizes(config, pool)
            rates = sample_proportions(config.proportions, sizes)

        tasks = []
        parts = []
        for stream_idx, stream in enumerate(config.streams):
            for file_idx, doc_path in enumerate(stream.documents):
                part = tmp_dir / f"part-{stream_idx:03d}-{file_idx:05d}.jsonl"
                parts.append(part)
                tasks.append((stream, str(doc_path), str(part), config.seed, config.upsample, rates))

        for sources in pool.map(_filter_one_file, tasks):
            for name, counts in sources.items():
                report.source(name).merge(counts)
        absent = sorted(config.upsample.keys() - report.sources.keys())
        if absent:
            raise MixConfigError(f"upsample source {absent[0]!r} has no documents")

        # Phase 2: concatenate parts in config order into byte-capped shards.
        # A shard takes at least one line, and an empty mix writes one empty shard.
        paths: list[Path] = []
        lines = _part_lines(parts)
        line = next(lines, None)
        while line is not None or not paths:
            paths.append(out_dir / f"part-{len(paths):05d}.jsonl")
            (shard,) = pool.staged(paths[-1:])
            with open(shard, "wb") as out:
                size = 0
                while line is not None and (size == 0 or size + len(line) <= config.output_shard_bytes):
                    out.write(line)
                    size += len(line)
                    line = next(lines, None)
        # Shards of an earlier mix that this one would not overwrite are
        # refused: a reader globbing part-*.jsonl would mix them in.
        stale = sorted(set(out_dir.glob("part-*.jsonl")) - set(paths))
        if stale:
            raise MixConfigError(
                f"{stale[0]} is a shard this mix would not write; remove the earlier mix's shards first"
            )
    report.output_shards = [str(path) for path in paths]
    return report


def _part_lines(parts: list[Path]) -> Iterator[bytes]:
    """Yield the lines of the part files in order, deleting each once read."""
    for part in parts:
        with open(part, "rb") as f:
            yield from f
        os.unlink(part)
