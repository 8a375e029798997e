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

Every word statistic comes from one word table per document
(:func:`corpuskit.documents.word_table`): int word ids in order of first
appearance, the distinct words, and the codepoint bounds of each word as
numpy arrays. The median word length is the middle of the sorted bounds'
differences; in ASCII text a word holds a letter when some byte from its
start to the next word's start is a letter, one ``maximum.reduceat`` over
per-byte letter flags; the required words are looked up among the distinct
words only. A quality worker is forked fresh for each job and pays for the
first call of each numpy kernel in page faults and resident pages, so the
median sorts a list, not an array, and the letter test takes a maximum,
not a sum: ``np.sort`` over int64 and ``add.reduceat`` over bytes would
cost such a worker 256 and 64 KB more.

The n-gram statistics work on the same arrays. The ids of the n+1-grams
are rolled forward from those of the n-grams by ranking (n-gram id, next
word) pairs, so equal ids mean equal n-grams: no hashing, no collisions.
The greedy cover walks the occurrences of the modal n-gram only, and the
duplicate coverage is the length of the union of the repeated n-grams'
character intervals. Both are integer character counts over
``len(text)``, as the conventions above define them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from corpuskit.documents import AttributeSpan, Document, WordTable, word_table

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

# 1 for a byte that is an ASCII letter: in ASCII text the letters
# (``str.isalpha``) are exactly [A-Za-z]
_ASCII_LETTER_BYTES = bytes(b < 128 and chr(b).isalpha() for b in range(256))


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


def _ngram_fractions(table: WordTable, text_len: int) -> tuple[dict[int, float], dict[int, float]]:
    """The most-common and duplicate n-gram character fractions.

    Each n-gram gets an exact id: the id at n+1 is the rank of the pair
    (id of the n-gram at i, word i+n) among all such pairs, so equal ids
    mean equal n-grams and nothing is hashed. A repeated (n+1)-gram starts
    with a repeated n-gram, so each step ranks only the positions whose
    n-gram repeats.
    """
    top = dict.fromkeys(TOP_NGRAM_THRESHOLDS, 0.0)
    dup = dict.fromkeys(DUP_NGRAM_THRESHOLDS, 0.0)
    words, starts, ends = table.ids, table.starts, table.ends
    base = len(table.words)  # word ids run 0..base-1
    pos, ids = np.arange(len(words)), words  # positions of repeated n-grams, their ids
    for n in range(2, max(DUP_NGRAM_THRESHOLDS) + 1):
        if len(words) < n:
            break
        if len(pos):
            fits = pos <= len(words) - n
            pos = pos[fits]
            # packed pairs stay below len(words) * base, far from overflow
            keys = ids[fits] * base + words[pos + n - 1]
            _, ids, counts = np.unique(keys, return_inverse=True, return_counts=True)
            counts = counts[ids]
            repeated = counts >= 2
            pos, ids, counts = pos[repeated], ids[repeated], counts[repeated]
        if n in top:
            # modal n-gram: highest count, earliest first occurrence on ties;
            # when none repeats, each occurs once and the first is modal
            occurrences = pos[ids == ids[np.argmax(counts)]].tolist() if len(pos) else [0]
            cover: list[int] = []
            free = 0
            for i in occurrences:
                if i >= free:  # greedy left-to-right non-overlapping cover
                    cover.append(i)
                    free = i + n
            first = np.array(cover)
            top[n] = int((ends[first + n - 1] - starts[first]).sum()) / text_len
        if n in dup and len(pos):
            # union of [start_i, end_(i+n-1)) over repeated n-grams; both
            # ends rise with i, so each interval adds what passes the last
            s, e = starts[pos], ends[pos + n - 1]
            dup[n] = int((e - np.maximum(s, np.concatenate(([0], e[:-1])))).sum()) / text_len
    return top, dup


def _median_word_length(table: WordTable) -> float:
    """``statistics.median`` of the word lengths: the middle length, or
    the mean of the two middle lengths."""
    lengths = sorted((table.ends - table.starts).tolist())
    if not lengths:
        return 0.0
    mid = len(lengths) // 2
    return float(lengths[mid]) if len(lengths) % 2 else (lengths[mid - 1] + lengths[mid]) / 2


def _alpha_word_count(text: str, table: WordTable) -> int:
    """The number of words holding a letter (``str.isalpha``), in a text
    of at least one word."""
    if text.isascii():
        letters = np.frombuffer(text.encode("ascii").translate(_ASCII_LETTER_BYTES), dtype=np.uint8)
        # from each word's start to the next word's start: the word, then
        # whitespace, which holds no letter
        return int(np.count_nonzero(np.maximum.reduceat(letters, table.starts)))
    alpha = np.array([any(c.isalpha() for c in w) for w in table.words])
    return int(np.count_nonzero(alpha[table.ids]))


def gopher_report(text: str) -> GopherReport:
    table = word_table(text)
    word_count = len(table.ids)

    median_len = _median_word_length(table)
    symbol_count = sum(text.count(sym) for sym in SYMBOLS)
    symbol_ratio = symbol_count / word_count if word_count else 0.0
    alpha_frac = _alpha_word_count(text, table) / word_count if word_count else 0.0
    normalized = {w.lower().strip(_STRIP_PUNCT) for w in table.words}
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

    top_fracs, dup_fracs = _ngram_fractions(table, len(text))

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
    end = doc.text_size

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
