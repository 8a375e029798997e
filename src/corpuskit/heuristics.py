"""Line punctuation, repetition, Wikipedia length, and Reddit quality rules."""

from __future__ import annotations

import numpy as np

from corpuskit.documents import (
    AttributeSpan,
    Document,
    char_spans_to_byte_spans,
    count_words,
    metadata_flag,
    whitespace_word_spans,
    word_ids,
)
from corpuskit.gopher import split_lines

TERMINAL_PUNCTUATION = frozenset('.?!"')

MAX_TOKEN_REPETITIONS = 100
REPETITION_MAX_PERIOD = 5

WIKI_MAX_SHORT_WORDS = 25

REDDIT_MIN_COMMENT_CHARS = 500
REDDIT_MIN_SUBMISSION_CHARS = 400
REDDIT_MAX_CHARS = 40_000
REDDIT_MIN_COMMENT_VOTES = 3


def tag_c4_nopunc(doc: Document) -> dict[str, list[AttributeSpan]]:
    """Flag lines whose last non-whitespace character is not terminal
    punctuation (``.``, ``?``, ``!``, ``"``).

    Emits a span per failing line plus the failing-line fraction as a
    document-level attribute. Blank lines are neither flagged nor counted.
    The mixer decides what to do with the signal: remove the flagged spans,
    or drop documents whose fraction exceeds one half.
    """
    text = doc.text
    failing: list[tuple[int, int, float]] = []
    countable = 0
    pos = 0
    for line in split_lines(text):
        stripped = line.rstrip()
        if stripped:
            countable += 1
            if stripped[-1] not in TERMINAL_PUNCTUATION:
                failing.append((pos, pos + len(line), 1.0))
        pos += len(line) + 1
    fraction = len(failing) / countable if countable else 0.0
    attrs = {
        "c4__no_punc_fraction": [AttributeSpan(0, doc.text_size, fraction)],
    }
    if failing:
        attrs["c4__no_punc_line"] = char_spans_to_byte_spans(text, failing)
    return attrs


def _has_repeat_stretch(tokens: np.ndarray, period: int) -> bool:
    """Whether ``tokens[j] == tokens[j + period]`` holds at 100·period
    consecutive positions j, which any run of more than 100 repeats at
    this period needs."""
    if len(tokens) - period + 1 <= MAX_TOKEN_REPETITIONS * period:
        return False  # fewer positions j than that, before any numpy call
    unequal = np.flatnonzero(tokens[:-period] != tokens[period:])
    bounds = np.concatenate(([-1], unequal, [len(tokens) - period]))
    return bool(np.diff(bounds).max() > MAX_TOKEN_REPETITIONS * period)


def find_repetition_runs(text: str) -> list[tuple[int, int, int]]:
    """Find maximal runs where a 1..5-token sequence repeats consecutively
    more than 100 times; returns (char_start, char_end, repeat_count).

    Each run is reported once, at the smallest period that detects it. An
    exact numpy screen runs first: a period whose token sequence lacks a
    long enough stretch of ``tokens[j] == tokens[j + period]`` (see
    :func:`_has_repeat_stretch`) holds no run, so its greedy scan is skipped.
    """
    token_array, _ = word_ids(text)
    periods = [p for p in range(1, REPETITION_MAX_PERIOD + 1) if _has_repeat_stretch(token_array, p)]
    if not periods:
        return []
    tokens = token_array.tolist()
    n = len(tokens)
    runs: list[tuple[int, int, int]] = []  # token index ranges + count
    for period in periods:
        # i skips the tokens of runs found at smaller periods; runs found at
        # this period lie behind i. covered[:k] all end at or before i.
        covered = sorted(runs)
        k = 0
        i = 0
        while i + period <= n:
            while k < len(covered) and covered[k][1] <= i:
                k += 1
            if k < len(covered) and covered[k][0] <= i:
                i = covered[k][1]
                continue
            repeats = 1
            while (
                i + (repeats + 1) * period <= n
                and tokens[i + repeats * period : i + (repeats + 1) * period]
                == tokens[i : i + period]
            ):
                repeats += 1
            if repeats > MAX_TOKEN_REPETITIONS:
                runs.append((i, i + repeats * period, repeats))
                i += repeats * period
            else:
                i += max(1, (repeats - 1) * period)
    if not runs:
        return []
    runs.sort()
    spans = whitespace_word_spans(text)
    return [(spans[a][0], spans[b - 1][1], count) for a, b, count in runs]


def tag_repetition(doc: Document) -> dict[str, list[AttributeSpan]]:
    runs = find_repetition_runs(doc.text)
    if not runs:
        return {}
    # runs found at different periods can overlap by a few tokens at their
    # edges; clip so emitted spans stay disjoint
    clipped: list[tuple[int, int, float]] = []
    prev_end = 0
    for s, e, count in sorted(runs):
        s = max(s, prev_end)
        if e <= s:
            continue
        clipped.append((s, e, float(count)))
        prev_end = e
    byte_spans = char_spans_to_byte_spans(doc.text, clipped)
    return {"repetition__run": byte_spans}


def tag_wiki_min_words(doc: Document) -> dict[str, list[AttributeSpan]]:
    """Flag pages with 25 or fewer unicode-segmented words."""
    if count_words(doc.text) <= WIKI_MAX_SHORT_WORDS:
        return {"wiki__short": [AttributeSpan(0, doc.text_size, 1.0)]}
    return {}


def load_subreddit_blocklist(path) -> frozenset[str]:
    """One lowercase subreddit name per line; blank lines ignored."""
    with open(path, "r", encoding="utf-8") as f:
        return frozenset(line.strip().lower() for line in f if line.strip())


def tag_banned_subreddit(
    doc: Document, blocklist: frozenset[str]
) -> dict[str, list[AttributeSpan]]:
    """Case-insensitive blocklist membership for the document's subreddit."""
    subreddit = doc.metadata.get("subreddit")
    if subreddit is None:
        raise ValueError(f"doc {doc.id!r} has no 'subreddit' metadata")
    if str(subreddit).lower() in blocklist:
        return {"reddit__banned_subreddit": [AttributeSpan(0, doc.text_size, 1.0)]}
    return {}


def tag_reddit_quality(doc: Document) -> dict[str, list[AttributeSpan]]:
    """Length, vote, and moderation flags for submissions and comments.

    Comments shorter than 500 characters and submissions shorter than 400
    are too short; documents over 40,000 characters are too long; comments
    with fewer than 3 votes are low-vote. Deleted/removed/over-18 content
    is flagged for removal. Banned subreddits are
    :func:`tag_banned_subreddit`'s job.
    """
    kind = doc.metadata.get("kind")
    if kind not in ("submission", "comment"):
        raise ValueError(f"doc {doc.id!r} has no valid 'kind' metadata (got {kind!r})")
    flags: dict[str, bool] = {}
    length = len(doc.text)
    min_chars = REDDIT_MIN_COMMENT_CHARS if kind == "comment" else REDDIT_MIN_SUBMISSION_CHARS
    flags["reddit__too_short"] = length < min_chars
    flags["reddit__too_long"] = length > REDDIT_MAX_CHARS
    if kind == "comment" and "votes" in doc.metadata:
        flags["reddit__low_votes"] = int(doc.metadata["votes"]) < REDDIT_MIN_COMMENT_VOTES
    flags["reddit__author_deleted"] = metadata_flag(doc.metadata.get("author_deleted"))
    flags["reddit__moderator_removed"] = metadata_flag(doc.metadata.get("moderator_removed"))
    flags["reddit__over_18"] = metadata_flag(doc.metadata.get("over_18"))

    end = doc.text_size
    return {name: [AttributeSpan(0, end, 1.0)] for name, value in flags.items() if value}
