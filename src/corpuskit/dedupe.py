"""Exact deduplication stages and test-set decontamination.

Three stages, run in pipeline order: URL, whole-document, and paragraph
dedup. The first occurrence of a key in stream order is kept; later ones
are flagged. Grouped paragraph dedup partitions consecutive shards into
byte-capped groups and dedupes within each group independently.
Decontamination seeds a filter with evaluation-set paragraphs and flags
any document sharing one.

Every stage only flags: it yields each document with its attribute record
and counts nothing. Callers count what they need from those records and
act on the flags through :func:`corpuskit.filters.apply_filters`.
"""

from __future__ import annotations

import hashlib
import logging
import os
from pathlib import Path
from typing import Iterable, Iterator, Protocol
from urllib.parse import urlsplit, urlunsplit

from corpuskit.bloom import ExactSet
from corpuskit.documents import (
    AttributeSpan,
    Document,
    DocumentAttributes,
    count_words,
    segment_paragraphs,
)
from corpuskit.shard_io import read_documents

logger = logging.getLogger(__name__)

URL_DUPLICATE = "dedupe__url_duplicate"
DOC_DUPLICATE = "dedupe__doc_duplicate"
PARAGRAPH_DUPLICATE = "dedupe__dup_paragraph"
CONTAMINATED = "decontamination__contaminated"

DECONTAMINATION_MIN_TOKENS = 13
CCNET_MAX_GROUP_BYTES = 20 * 2**30


class KeyFilter(Protocol):
    read_only: bool

    def insert_check(self, key: bytes) -> bool: ...

    def contains(self, key: bytes) -> bool: ...


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
    for doc in docs:
        attrs = DocumentAttributes(id=doc.id)
        url = doc.metadata.get("url")
        if url is not None and backend.insert_check(normalize_url(str(url)).encode("utf-8")):
            attrs.attributes[URL_DUPLICATE] = [AttributeSpan(0, len(doc.text_bytes), 1.0)]
        yield doc, attrs


def dedupe_by_document(
    docs: Iterable[Document], backend: KeyFilter
) -> Iterator[tuple[Document, DocumentAttributes]]:
    """Flag exact text duplicates; the key is the raw text bytes, so empty
    documents share a key and count as duplicates of each other."""
    for doc in docs:
        attrs = DocumentAttributes(id=doc.id)
        if backend.insert_check(doc.text_bytes):
            attrs.attributes[DOC_DUPLICATE] = [AttributeSpan(0, len(doc.text_bytes), 1.0)]
        yield doc, attrs


def gated_paragraphs(doc: Document, min_tokens: int):
    """Yield ``(span, paragraph bytes)`` for each paragraph with more than
    ``min_tokens`` unicode words; a gate of 0 admits every paragraph."""
    data = doc.text_bytes
    for span in segment_paragraphs(doc.text):
        para = data[span.start : span.end]
        if min_tokens > 0 and count_words(para.decode("utf-8")) <= min_tokens:
            continue
        yield span, para


def dedupe_by_paragraph(
    docs: Iterable[Document],
    backend: KeyFilter,
    min_paragraph_tokens: int = 0,
) -> Iterator[tuple[Document, DocumentAttributes]]:
    """Flag repeat paragraphs anywhere in the stream, empty ones included."""
    for doc in docs:
        attrs = DocumentAttributes(id=doc.id)
        spans = []
        for span, para in gated_paragraphs(doc, min_paragraph_tokens):
            if backend.insert_check(para):
                spans.append(AttributeSpan(span.start, span.end, 1.0))
        if spans:
            attrs.attributes[PARAGRAPH_DUPLICATE] = spans
        yield doc, attrs


class _DigestSet(ExactSet):
    """Exact set holding each key's 20-byte sha1 digest, not the key."""

    def insert_check(self, key: bytes) -> bool:
        return super().insert_check(hashlib.sha1(key).digest())


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
) -> Iterator[tuple[Path, list[DocumentAttributes]]]:
    """Exact paragraph dedup within consecutive byte-capped shard groups.

    This is :func:`dedupe_by_paragraph` without a token gate over a fresh
    exact set per group, keyed by each paragraph's sha1 digest; duplicates
    across different groups are deliberately not flagged.
    """
    for group in plan_shard_groups(shard_paths, max_group_bytes):
        seen = _DigestSet()
        for path in group:
            yield path, [attrs for _, attrs in dedupe_by_paragraph(read_documents(path), seen)]


def decontaminate_seed(
    filt: KeyFilter,
    test_docs: Iterable[Document],
    min_paragraph_tokens: int = DECONTAMINATION_MIN_TOKENS,
) -> KeyFilter:
    """Insert every test-set paragraph longer than the token gate, then
    freeze the filter read-only."""
    if filt.read_only:
        raise ValueError("decontamination seeding needs a mutable filter")
    for doc in test_docs:
        for _, para in gated_paragraphs(doc, min_paragraph_tokens):
            filt.insert_check(para)
    return filt.freeze()


def decontaminate_tag(
    docs: Iterable[Document],
    seeded: KeyFilter,
    min_paragraph_tokens: int = DECONTAMINATION_MIN_TOKENS,
) -> Iterator[tuple[Document, DocumentAttributes]]:
    """Flag documents with at least one seeded paragraph (same token gate)."""
    if not seeded.read_only:
        raise ValueError("decontamination tagging requires a read-only (seeded) filter")
    for doc in docs:
        attrs = DocumentAttributes(id=doc.id)
        contaminated = any(
            seeded.contains(para) for _, para in gated_paragraphs(doc, min_paragraph_tokens)
        )
        if contaminated:
            attrs.attributes[CONTAMINATED] = [AttributeSpan(0, len(doc.text_bytes), 1.0)]
        yield doc, attrs
