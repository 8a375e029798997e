"""Document-shape quality heuristics with fixed thresholds.

Eleven rules over whitespace-segmented words and raw lines: repeated n-gram
character fractions, word-count and word-length bounds, symbol ratios,
required stopwords, and line-shape fractions. A document "matches" when any
rule trips; the mixer typically drops matching documents.

Counting conventions pinned here (and mirrored by the naive oracles in the
test suite):

* words are whitespace-segmented;
* the most-common-n-gram fraction counts characters covered by a greedy
  non-overlapping left-to-right cover of the modal n-gram (internal spaces
  included), divided by total text length;
* the duplicate-n-gram fraction counts characters covered by any occurrence
  of any n-gram appearing more than once (union, counted once), divided by
  total text length;
* line statistics ignore the empty artifact line produced by a trailing
  newline; duplicate-line statistics consider only lines that are non-blank
  after trimming, and count occurrences beyond the first.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

from corpuskit.documents import AttributeSpan, Document, whitespace_word_spans

TOP_NGRAM_THRESHOLDS = {2: 0.20, 3: 0.18, 4: 0.16}
DUP_NGRAM_THRESHOLDS = {5: 0.15, 6: 0.14, 7: 0.13, 8: 0.12, 9: 0.11, 10: 0.10}
MIN_WORD_COUNT = 50
MAX_WORD_COUNT = 100_000
MIN_MEDIAN_WORD_LENGTH = 3
MAX_MEDIAN_WORD_LENGTH = 10
MAX_SYMBOL_TO_WORD_RATIO = 0.10
MIN_ALPHA_WORD_FRACTION = 0.80
REQUIRED_WORDS = frozenset({"the", "be", "to", "of", "and", "that", "have", "with"})
MIN_REQUIRED_WORD_HITS = 2
MAX_BULLET_LINE_FRACTION = 0.90
MAX_ELLIPSIS_LINE_FRACTION = 0.30
MAX_DUPLICATE_LINE_FRACTION = 0.30
MAX_DUPLICATE_LINE_CHAR_FRACTION = 0.30

SYMBOLS = ("#", "…", "...")
BULLET_PREFIXES = ("•", "‣", "-", "*")
ELLIPSIS_SUFFIXES = ("…", "...")

_STRIP_PUNCT = "".join(chr(c) for c in range(33, 128) if not chr(c).isalnum())


@dataclass
class GopherReport:
    word_count: int
    median_word_length: float
    symbol_to_word_ratio: float
    alpha_word_fraction: float
    required_word_hits: int
    bullet_line_fraction: float
    ellipsis_line_fraction: float
    duplicate_line_fraction: float
    duplicate_line_char_fraction: float
    top_ngram_char_fraction: dict[int, float]  # n in 2..4
    dup_ngram_char_fraction: dict[int, float]  # n in 5..10

    @property
    def rule_flags(self) -> dict[str, bool]:
        return {
            "word_count": self.word_count < MIN_WORD_COUNT or self.word_count > MAX_WORD_COUNT,
            "median_word_length": (
                self.median_word_length < MIN_MEDIAN_WORD_LENGTH
                or self.median_word_length > MAX_MEDIAN_WORD_LENGTH
            ),
            "symbol_to_word_ratio": self.symbol_to_word_ratio > MAX_SYMBOL_TO_WORD_RATIO,
            "alpha_word_fraction": self.alpha_word_fraction < MIN_ALPHA_WORD_FRACTION,
            "required_words": self.required_word_hits < MIN_REQUIRED_WORD_HITS,
            "bullet_lines": self.bullet_line_fraction > MAX_BULLET_LINE_FRACTION,
            "ellipsis_lines": self.ellipsis_line_fraction > MAX_ELLIPSIS_LINE_FRACTION,
            "duplicate_lines": self.duplicate_line_fraction > MAX_DUPLICATE_LINE_FRACTION,
            "duplicate_line_chars": (
                self.duplicate_line_char_fraction > MAX_DUPLICATE_LINE_CHAR_FRACTION
            ),
            "top_ngrams": any(
                self.top_ngram_char_fraction[n] > thr for n, thr in TOP_NGRAM_THRESHOLDS.items()
            ),
            "dup_ngrams": any(
                self.dup_ngram_char_fraction[n] > thr for n, thr in DUP_NGRAM_THRESHOLDS.items()
            ),
        }

    @property
    def matches_any(self) -> bool:
        return any(self.rule_flags.values())


def split_lines(text: str) -> list[str]:
    """Lines for line-based statistics; drops the trailing-newline artifact."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _top_ngram_fraction(token_ids: list[int], spans: list[tuple[int, int]], n: int, text_len: int) -> float:
    if len(token_ids) < n or text_len == 0:
        return 0.0
    counts: Counter[tuple[int, ...]] = Counter()
    first_pos: dict[tuple[int, ...], int] = {}
    for i in range(len(token_ids) - n + 1):
        gram = tuple(token_ids[i : i + n])
        counts[gram] += 1
        if gram not in first_pos:
            first_pos[gram] = i
    best = max(counts.items(), key=lambda kv: (kv[1], -first_pos[kv[0]]))[0]
    covered = 0
    i = 0
    while i <= len(token_ids) - n:
        if tuple(token_ids[i : i + n]) == best:
            covered += spans[i + n - 1][1] - spans[i][0]
            i += n
        else:
            i += 1
    return covered / text_len


def _dup_ngram_fraction(token_ids: list[int], spans: list[tuple[int, int]], n: int, text_len: int) -> float:
    if len(token_ids) < n or text_len == 0:
        return 0.0
    counts: Counter[tuple[int, ...]] = Counter(
        tuple(token_ids[i : i + n]) for i in range(len(token_ids) - n + 1)
    )
    mask = bytearray(text_len)
    for i in range(len(token_ids) - n + 1):
        if counts[tuple(token_ids[i : i + n])] >= 2:
            start, end = spans[i][0], spans[i + n - 1][1]
            for j in range(start, end):
                mask[j] = 1
    return sum(mask) / text_len


def gopher_report(text: str) -> GopherReport:
    word_spans = whitespace_word_spans(text)
    words = [text[s:e] for s, e in word_spans]
    word_count = len(words)

    # intern tokens so n-gram keys are small int tuples
    intern: dict[str, int] = {}
    token_ids = [intern.setdefault(w, len(intern)) for w in words]

    median_len = float(statistics.median([len(w) for w in words])) if words else 0.0
    symbol_count = sum(text.count(sym) for sym in SYMBOLS)
    symbol_ratio = symbol_count / word_count if word_count else 0.0
    alpha_frac = (
        sum(1 for w in words if any(c.isalpha() for c in w)) / word_count if word_count else 0.0
    )
    normalized = {w.lower().strip(_STRIP_PUNCT) for w in words}
    required_hits = len(REQUIRED_WORDS & normalized)

    lines = split_lines(text)
    n_lines = len(lines)
    bullet_frac = (
        sum(1 for ln in lines if ln.lstrip().startswith(BULLET_PREFIXES)) / n_lines
        if n_lines
        else 0.0
    )
    ellipsis_frac = (
        sum(1 for ln in lines if ln.rstrip().endswith(ELLIPSIS_SUFFIXES)) / n_lines
        if n_lines
        else 0.0
    )

    seen: set[str] = set()
    dup_lines = 0
    dup_chars = 0
    total_chars = 0
    for ln in lines:
        trimmed = ln.strip()
        if not trimmed:
            continue
        total_chars += len(ln)
        if trimmed in seen:
            dup_lines += 1
            dup_chars += len(ln)
        else:
            seen.add(trimmed)
    non_blank = len(seen) + dup_lines
    dup_line_frac = dup_lines / non_blank if non_blank else 0.0
    dup_char_frac = dup_chars / total_chars if total_chars else 0.0

    text_len = len(text)
    top_fracs = {
        n: _top_ngram_fraction(token_ids, word_spans, n, text_len) for n in TOP_NGRAM_THRESHOLDS
    }
    dup_fracs = {
        n: _dup_ngram_fraction(token_ids, word_spans, n, text_len) for n in DUP_NGRAM_THRESHOLDS
    }

    return GopherReport(
        word_count=word_count,
        median_word_length=median_len,
        symbol_to_word_ratio=symbol_ratio,
        alpha_word_fraction=alpha_frac,
        required_word_hits=required_hits,
        bullet_line_fraction=bullet_frac,
        ellipsis_line_fraction=ellipsis_frac,
        duplicate_line_fraction=dup_line_frac,
        duplicate_line_char_fraction=dup_char_frac,
        top_ngram_char_fraction=top_fracs,
        dup_ngram_char_fraction=dup_fracs,
    )


def tag_gopher(doc: Document) -> dict[str, list[AttributeSpan]]:
    """Emit every raw statistic as a whole-document span plus the match flag.

    Statistic attributes are always present; ``gopher__matches_any`` is
    emitted only when some rule trips (score 1.0), so report percentages
    count exactly the matching documents.
    """
    report = gopher_report(doc.text)
    end = len(doc.text_bytes)

    def whole(score: float) -> list[AttributeSpan]:
        return [AttributeSpan(0, end, float(score))]

    attrs = {
        "gopher__word_count": whole(report.word_count),
        "gopher__median_word_length": whole(report.median_word_length),
        "gopher__symbol_to_word_ratio": whole(report.symbol_to_word_ratio),
        "gopher__alpha_word_fraction": whole(report.alpha_word_fraction),
        "gopher__required_word_hits": whole(report.required_word_hits),
        "gopher__bullet_line_fraction": whole(report.bullet_line_fraction),
        "gopher__ellipsis_line_fraction": whole(report.ellipsis_line_fraction),
        "gopher__duplicate_line_fraction": whole(report.duplicate_line_fraction),
        "gopher__duplicate_line_char_fraction": whole(report.duplicate_line_char_fraction),
    }
    for n, frac in report.top_ngram_char_fraction.items():
        attrs[f"gopher__top_{n}gram_char_fraction"] = whole(frac)
    for n, frac in report.dup_ngram_char_fraction.items():
        attrs[f"gopher__dup_{n}gram_char_fraction"] = whole(frac)
    if report.matches_any:
        attrs["gopher__matches_any"] = whole(1.0)
    return attrs
