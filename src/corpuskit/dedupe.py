"""Exact deduplication stages and test-set decontamination.

Three stages, run in pipeline order: URL, whole-document, and paragraph
dedup. The first occurrence of a key in stream order is kept; later ones
are flagged. Grouped paragraph dedup partitions consecutive shards into
byte-capped groups and dedupes within each group independently.
Decontamination seeds a filter with evaluation-set paragraphs and flags
any document sharing one.

Every stage is a chunk tagger run through :func:`corpuskit.shard_io.tagged`:
it hands its filter the keys of a chunk of consecutive documents in one
batch call, which answers as checking them one by one in stream order
would; paragraph keys come from one bulk split per document, and spans
only for the documents flagged. Every stage only flags: it yields each
document with its attribute record, one at a time, and counts nothing.
Callers act on the flags through :func:`corpuskit.filters.apply_filters`.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence
from urllib.parse import urlsplit, urlunsplit

from corpuskit.bloom import ExactSet
from corpuskit.documents import (
    AttributeSpan,
    Document,
    DocumentAttributes,
    count_words,
    paragraph_spans,
    split_paragraphs,
)
from corpuskit.shard_io import ChunkTagger, read_documents, tagged

logger = logging.getLogger(__name__)

URL_DUPLICATE = "dedupe__url_duplicate"
DOC_DUPLICATE = "dedupe__doc_duplicate"
PARAGRAPH_DUPLICATE = "dedupe__dup_paragraph"
CONTAMINATED = "decontamination__contaminated"

DECONTAMINATION_MIN_TOKENS = 13
CCNET_MAX_GROUP_BYTES = 20 * 2**30


# the keys ``seed_filter`` hands its filter in one call
KEY_CHUNK = 256


class KeyFilter(Protocol):
    read_only: bool

    def insert_check_many(self, keys: Sequence[bytes]) -> list[bool]: ...

    def contains_many(self, keys: Sequence[bytes]) -> list[bool]: ...

    def freeze(self) -> "KeyFilter": ...


def _key_tagger(
    name: str,
    keys_of: Callable[[Document], list[bytes]],
    check_many: Callable[[list[bytes]], list[bool]],
    spans: bool = False,
) -> ChunkTagger:
    """A tagger handing the keys of a chunk of documents to ``check_many`` in
    one call, in stream order, and flagging under ``name`` each document it
    answers true for a key of: the whole document, or with ``spans`` (when
    the keys are the document's :func:`split_paragraphs`) the bytes of each
    such key. Bounds are summed only for the documents flagged."""

    def tag_many(docs: list[Document]) -> list[dict[str, list[AttributeSpan]]]:
        keyed = [keys_of(doc) for doc in docs]
        flags = check_many([key for keys in keyed for key in keys])
        out, end = [], 0
        for doc, keys in zip(docs, keyed):
            start, end = end, end + len(keys)
            if True not in flags[start:end]:
                out.append({})
            elif spans:
                out.append({name: paragraph_spans(keys, flags[start:end])})
            else:
                out.append({name: [AttributeSpan(0, doc.text_size, 1.0)]})
        return out

    return ChunkTagger(tag_many)


def normalize_url(url: str) -> str:
    """Lowercase scheme and host, strip the fragment and any trailing slash."""
    parts = urlsplit(url.strip())
    path = parts.path.rstrip("/")
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), path, parts.query, ""))


def dedupe_by_url(
    docs: Iterable[Document], backend: KeyFilter
) -> Iterator[tuple[Document, DocumentAttributes]]:
    """Flag documents whose normalized URL was already seen.

    Documents without a URL (absent or null) pass through unflagged.
    """

    def keys_of(doc: Document) -> list[bytes]:
        url = doc.metadata.get("url")
        return [] if url is None else [normalize_url(str(url)).encode("utf-8")]

    yield from tagged(docs, [_key_tagger(URL_DUPLICATE, keys_of, backend.insert_check_many)])


def dedupe_by_document(
    docs: Iterable[Document], backend: KeyFilter
) -> Iterator[tuple[Document, DocumentAttributes]]:
    """Flag exact text duplicates; the key is the raw text bytes, so empty
    documents share a key and count as duplicates of each other."""
    tagger = _key_tagger(DOC_DUPLICATE, lambda doc: [doc.text_bytes], backend.insert_check_many)
    yield from tagged(docs, [tagger])


def _admits(para: bytes, min_tokens: int) -> bool:
    """The token gate: whether the paragraph ``para`` has more than
    ``min_tokens`` unicode words; a gate of 0 admits every paragraph."""
    return min_tokens <= 0 or count_words(para.decode("utf-8")) > min_tokens


def dedupe_by_paragraph(
    docs: Iterable[Document],
    backend: KeyFilter,
    min_paragraph_tokens: int = 0,
) -> Iterator[tuple[Document, DocumentAttributes]]:
    """Flag repeat paragraphs anywhere in the stream, empty ones included.
    A chunk's paragraphs are split in bulk and checked in one call, the
    token gate run once on each; spans are built only where one repeats."""

    def gated_many(paras: list[bytes]) -> list[bool]:
        admitted = [_admits(para, min_paragraph_tokens) for para in paras]
        flags = iter(backend.insert_check_many([para for para, ok in zip(paras, admitted) if ok]))
        return [ok and next(flags) for ok in admitted]

    check_many = gated_many if min_paragraph_tokens > 0 else backend.insert_check_many
    tagger = _key_tagger(PARAGRAPH_DUPLICATE, lambda doc: split_paragraphs(doc.text_bytes), check_many, spans=True)
    yield from tagged(docs, [tagger])


def plan_shard_groups(
    paths: list[str | os.PathLike], max_group_bytes: int = CCNET_MAX_GROUP_BYTES
) -> list[list[Path]]:
    """Partition consecutive shards into groups of bounded cumulative size.

    A single shard over the cap becomes its own group (with a warning).
    """
    groups: list[list[Path]] = []
    current: list[Path] = []
    current_bytes = 0
    for raw in paths:
        path = Path(raw)
        size = path.stat().st_size
        if size > max_group_bytes:
            logger.warning("shard %s (%d bytes) exceeds the %d-byte group cap", path, size, max_group_bytes)
        if current and current_bytes + size > max_group_bytes:
            groups.append(current)
            current = []
            current_bytes = 0
        current.append(path)
        current_bytes += size
    if current:
        groups.append(current)
    return groups


def ccnet_group_dedupe(
    shard_paths: list[str | os.PathLike],
    max_group_bytes: int = CCNET_MAX_GROUP_BYTES,
) -> Iterator[tuple[Path, Iterator[tuple[Document, DocumentAttributes]]]]:
    """Exact paragraph dedup within consecutive byte-capped shard groups.

    Yields each shard's path with its stream: :func:`dedupe_by_paragraph`
    without a token gate over the group's fresh :class:`ExactSet`, which
    keys each paragraph by its SHA-1 digest. Nothing of a shard is read
    until its stream is drawn, and a stream must be drawn before the next
    shard is taken, so the group's set sees its keys in shard order.
    Duplicates across different groups are deliberately not flagged.
    """
    for group in plan_shard_groups(shard_paths, max_group_bytes):
        seen = ExactSet()
        for path in group:
            yield path, dedupe_by_paragraph(read_documents(path), seen)


def gated_keys(test_docs: Iterable[Document], min_paragraph_tokens: int) -> list[bytes]:
    """The bytes of every test-set paragraph the token gate admits, in order:
    the keys a decontamination filter is seeded with."""
    paras = (para for doc in test_docs for para in split_paragraphs(doc.text_bytes))
    return [para for para in paras if _admits(para, min_paragraph_tokens)]


def seed_filter(filt: KeyFilter, keys: Sequence[bytes]) -> KeyFilter:
    """Insert ``keys``, ``KEY_CHUNK`` at a time, then freeze the filter
    read-only."""
    if filt.read_only:
        raise ValueError("decontamination seeding needs a mutable filter")
    for start in range(0, len(keys), KEY_CHUNK):
        filt.insert_check_many(keys[start : start + KEY_CHUNK])
    return filt.freeze()


def decontaminate_seed(
    filt: KeyFilter,
    test_docs: Iterable[Document],
    min_paragraph_tokens: int = DECONTAMINATION_MIN_TOKENS,
) -> KeyFilter:
    """Insert every test-set paragraph longer than the token gate, then
    freeze the filter read-only: :func:`seed_filter` over :func:`gated_keys`."""
    return seed_filter(filt, gated_keys(test_docs, min_paragraph_tokens))


def decontaminate_tag(
    docs: Iterable[Document],
    seeded: KeyFilter,
    min_paragraph_tokens: int = DECONTAMINATION_MIN_TOKENS,
) -> Iterator[tuple[Document, DocumentAttributes]]:
    """Flag documents with at least one paragraph that the token gate admits
    and the seeded filter holds.

    Tagging probes every paragraph of a chunk in one ``contains_many`` call
    and gates only the hits. A read-only probe has no side effects, so the
    flags equal gating first and probing what the gate admits, and the
    paragraphs that miss, nearly all of them, are never counted."""
    if not seeded.read_only:
        raise ValueError("decontamination tagging requires a read-only (seeded) filter")

    def contaminated_many(paras: list[bytes]) -> list[bool]:
        hits = seeded.contains_many(paras)
        return [hit and _admits(para, min_paragraph_tokens) for para, hit in zip(paras, hits)]

    tagger = _key_tagger(CONTAMINATED, lambda doc: split_paragraphs(doc.text_bytes), contaminated_many)
    yield from tagged(docs, [tagger])
