"""Document/attribute data model and text segmentation primitives.

All span offsets throughout the toolkit are UTF-8 *byte* offsets into the
document text. Byte offsets are cheapest for slicing and unambiguous across
languages; every tagger emits spans on codepoint boundaries, so slicing the
encoded text at span edges always yields valid UTF-8.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

_INFINITIES = (math.inf, -math.inf)


@dataclass(frozen=True)
class AttributeSpan:
    """A scored character range: [start, end) in UTF-8 byte offsets."""

    start: int
    end: int
    score: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")
        if self.score != self.score or self.score in _INFINITIES:
            raise ValueError(f"span score must be finite, got {self.score}")


@dataclass
class Document:
    """One text record; the unit flowing through every pipeline stage.

    ``metadata`` is a flat string-keyed map of JSON scalars (URL, file
    extension, vote count, subreddit, ...). Unknown top-level fields from
    serialized records are preserved opaquely in ``extra``.
    """

    id: str
    text: str
    source: str = ""
    created: str | None = None
    metadata: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")

    @property
    def text_bytes(self) -> bytes:
        return self.text.encode("utf-8")

    @property
    def text_size(self) -> int:
        """``len(self.text_bytes)``; ASCII text is measured without encoding it."""
        return len(self.text) if self.text.isascii() else len(self.text_bytes)


def metadata_flag(value) -> bool:
    """A metadata flag as a bool. A string is true only as "true", "1" or
    "yes" in any case, so "false" and "0" stay false; other values go by
    their truth value, and an absent flag (None) is false."""
    if isinstance(value, str):
        return value.lower() in ("true", "1", "yes")
    return bool(value)


@dataclass
class DocumentAttributes:
    """Tagger outputs for one document, stored beside (not inside) it.

    Attribute names follow the ``<tagger>__<rule>`` convention; span lists
    are kept sorted by start and non-overlapping within one attribute name.
    """

    id: str
    attributes: dict[str, list[AttributeSpan]] = field(default_factory=dict)

    def merge(self, other: "DocumentAttributes") -> None:
        if other.id != self.id:
            raise ValueError(f"attribute id mismatch: {self.id!r} vs {other.id!r}")
        for name, spans in other.attributes.items():
            if name in self.attributes:
                raise ValueError(f"duplicate attribute name {name!r} for doc {self.id!r}")
            self.attributes[name] = spans


@dataclass
class CorpusStats:
    utf8_bytes: int = 0
    documents: int = 0
    unicode_words: int = 0

    def add(self, doc: Document) -> None:
        self.utf8_bytes += doc.text_size
        self.documents += 1
        self.unicode_words += count_words(doc.text)


def char_spans_to_byte_spans(
    text: str, spans: Iterable[tuple[int, int, float]]
) -> list[AttributeSpan]:
    """Convert (start, end, score) codepoint spans to byte-offset spans.

    Spans must be sorted by start; this walks the text once.
    """
    encoded_len = len(text.encode("utf-8"))
    if encoded_len == len(text):  # pure ASCII: byte offset == char offset
        return [AttributeSpan(s, e, score) for s, e, score in spans]
    out = []
    char_pos = 0
    byte_pos = 0
    for s, e, score in spans:
        if s < char_pos:
            raise ValueError("char spans must be sorted and non-overlapping")
        byte_pos += len(text[char_pos:s].encode("utf-8"))
        byte_start = byte_pos
        byte_pos += len(text[s:e].encode("utf-8"))
        char_pos = e
        out.append(AttributeSpan(byte_start, byte_pos, score))
    return out


def split_paragraphs(data: bytes) -> list[bytes]:
    """The paragraphs of the UTF-8 ``data``, in one ``bytes.split``: the
    bytes between newlines, the newline itself in none. Empty paragraphs
    count too, and b"" is one empty paragraph. The toolkit's one paragraph
    splitter; :func:`paragraph_spans` turns paragraphs into byte spans."""
    return data.split(b"\n")


def paragraph_spans(paras: list[bytes], flags: Iterable[bool]) -> list[AttributeSpan]:
    """A span over each paragraph of :func:`split_paragraphs` whose flag is
    true, its bounds summed from the lengths of the paragraphs before it."""
    spans, start = [], 0
    for para, flag in zip(paras, flags):
        if flag:
            spans.append(AttributeSpan(start, start + len(para), 1.0))
        start += len(para) + 1
    return spans


def segment_paragraphs(text: str) -> list[AttributeSpan]:
    """The byte spans of every paragraph of :func:`split_paragraphs`: the
    text between newlines, the newline in none. Empty paragraphs give empty
    spans, which dedup like any other, and "" gives one."""
    return paragraph_spans(split_paragraphs(text.encode("utf-8")), repeat(True))


# UAX #29-style word segmentation, reduced to a documented rule set. Each
# code point maps to a one-letter class code:
#   L letter (L*)   D decimal digit (Nd)   C connector punctuation (Pc)
#   M combining mark (M*)   q mid-letter only (' ’ ·)   b mid-letter and
#   mid-number (.)   n mid-number only (,)   space: anything else
# A word is a match of ``[LDC](?:[LDCM]|(?<=L)[qb](?=L)|(?<=D)[bn](?=D))*``
# over the text's code string: it starts at a letter, digit or connector;
# letters, digits, connectors and marks extend it; one mid-letter code
# between two letters, or one mid-number code between two digits, does not
# break it. Only matches holding a letter or digit count: one without is all
# ``C`` and ``M`` codes, which ``strip("CM")`` empties, so a run of
# connectors alone is not a word. ``_WORD`` is that pattern with its loop
# unrolled, so a run of word codes matches in one repeat instead of one
# alternation per character.
#
# ``count_words`` counts the same words without matching them. A match
# spans a maximal run of word codes and of the mid codes that join two of
# them, from its first ``L``, ``D`` or ``C``. ``_JOINED_MID`` turns each
# joining mid code into ``L``; its lookbehinds read the code before and the
# mid code itself. The mid codes left then become spaces, so ``str.split``
# yields the runs, one match each. A run counts unless it is all ``C`` and
# ``M`` codes; ``_CM_RUN`` finds those. Both patterns lead with a class, so
# the scanner skips to the codes that can start a match.
_WORD = re.compile(r"[LDC][LDCM]*(?:(?:(?<=L)[qb](?=L)|(?<=D)[bn](?=D))[LDCM]*)*")
_JOINED_MID = re.compile(r"[qbn](?:(?<=L[qb])(?=L)|(?<=D[bn])(?=D))")
_MIDS_TO_SPACES = str.maketrans("qbn", "   ")
_CM_RUN = re.compile(r"[CM](?<![LDCM].)[CM]*(?![LDCM])")
_MID_CODES = {"'": "q", "’": "q", "·": "q", ".": "b", ",": "n"}
# the most code points the class table memoises; rarer ones past it are
# classified on every sight, so the table cannot grow without bound
_CLASS_TABLE_CAP = 1 << 16


def _class_code(cp: int) -> str:
    ch = chr(cp)
    cat = unicodedata.category(ch)
    if cat[0] == "L":
        return "L"
    if cat == "Nd":
        return "D"
    if cat == "Pc":
        return "C"
    if cat[0] == "M":
        return "M"
    return _MID_CODES.get(ch, " ")


class _ClassTable(dict):
    """Code point -> class code, for ``str.translate``; each code point is
    classified once, on first sight, while the table is under its cap."""

    def __missing__(self, cp: int) -> str:
        code = _class_code(cp)
        if len(self) < _CLASS_TABLE_CAP:
            self[cp] = code
        return code


_CLASS_TABLE = _ClassTable()
_ASCII_CODES = bytes(ord(_class_code(b)) for b in range(256))


def _class_codes(text: str) -> str:
    """One class code per character of ``text``."""
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_CODES).decode("ascii")
    return text.translate(_CLASS_TABLE)


# ``\s`` in a str pattern is exactly ``str.isspace``
_NON_SPACE_RUN = re.compile(r"\S+")
# 1 for a byte that is not ``str.isspace``, 0 for one that is
_NON_SPACE_BYTES = bytes(not chr(b).isspace() for b in range(256))


def whitespace_word_spans(text: str) -> list[tuple[int, int]]:
    """Codepoint ``(start, end)`` of each run of non-whitespace characters."""
    return [m.span() for m in _NON_SPACE_RUN.finditer(text)]


def word_ids(text: str) -> tuple[np.ndarray, list[str]]:
    """The words of ``text.split()`` as int64 ids, equal words equal ids,
    numbered from 0 in order of first appearance, and the distinct words:
    ``words[ids[i]]`` is word i."""
    # numpy loads with the first word table, not with ``import corpuskit``
    import numpy as np

    intern: dict[str, int] = {}
    ids = [intern.setdefault(w, len(intern)) for w in text.split()]
    return np.array(ids, dtype=np.int64), list(intern)


class WordTable(NamedTuple):
    """The whitespace-delimited words of a text, from :func:`word_table`."""

    ids: np.ndarray  # int64 id of each word, as :func:`word_ids` numbers them
    words: list[str]  # the distinct words, by id
    starts: np.ndarray  # int64 codepoint start of each word
    ends: np.ndarray  # int64 codepoint end of each word, exclusive


def word_table(text: str) -> WordTable:
    """:func:`word_ids` with the codepoint bounds of each word, the bounds of
    :func:`whitespace_word_spans`: ``text.split()`` yields exactly the runs
    of non-whitespace characters. In ASCII text a word starts where a
    whitespace byte (or the start) meets one that is not, and ends where
    it meets whitespace (or the end) again; other text takes the runs from
    the regex scan."""
    import numpy as np

    ids, words = word_ids(text)
    if text.isascii():
        flags = np.frombuffer(b"\0" + text.encode("ascii").translate(_NON_SPACE_BYTES) + b"\0", dtype=bool)
        edges = np.flatnonzero(np.diff(flags))  # rises and falls alternate
        starts, ends = edges[0::2], edges[1::2]
    else:
        starts, ends = np.array(whitespace_word_spans(text), dtype=np.int64).reshape(-1, 2).T
    return WordTable(ids, words, starts, ends)


def segment_words(text: str) -> list[AttributeSpan]:
    """Return word spans (byte offsets, score 1.0) per the rule set
    documented above; :func:`whitespace_word_spans` splits on whitespace."""
    words = (m.span() for m in _WORD.finditer(_class_codes(text)) if m.group().strip("CM"))
    return char_spans_to_byte_spans(text, ((s, e, 1.0) for s, e in words))


def count_words(text: str) -> int:
    """The number of words :func:`segment_words` finds."""
    codes = _JOINED_MID.sub("L", _class_codes(text)).translate(_MIDS_TO_SPACES)
    words = len(codes.split())
    if "C" in codes or "M" in codes:
        words -= len(_CM_RUN.findall(codes))
    return words


def count_stats(docs: Iterable[Document]) -> CorpusStats:
    """Sum UTF-8 byte length, document count, and unicode word count."""
    stats = CorpusStats()
    for doc in docs:
        stats.add(doc)
    return stats
