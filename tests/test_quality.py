"""Gopher, C4 NoPunc, repetition, wiki, and Reddit rule tests.

Every statistic is cross-checked against a naive recount written
independently of the production code paths.
"""

import random
import statistics
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from corpuskit.documents import Document, whitespace_word_spans
from corpuskit.gopher import (
    DUP_NGRAM_THRESHOLDS,
    REQUIRED_WORDS,
    TOP_NGRAM_THRESHOLDS,
    gopher_report,
    tag_gopher,
)
from corpuskit.heuristics import (
    MAX_TOKEN_REPETITIONS,
    REPETITION_MAX_PERIOD,
    find_repetition_runs,
    tag_banned_subreddit,
    tag_c4_nopunc,
    tag_reddit_quality,
    tag_repetition,
    tag_wiki_min_words,
)


# ---------------------------------------------------------------- oracle --
def naive_lines(text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def naive_gopher(text) -> dict:
    """Independent recount of every statistic, simplest possible code."""
    words = text.split()
    spans = []
    pos = 0
    for w in words:  # recover char spans by scanning
        start = text.index(w, pos)
        spans.append((start, start + len(w)))
        pos = start + len(w)

    out = {}
    out["word_count"] = len(words)
    out["median_word_length"] = float(statistics.median([len(w) for w in words])) if words else 0.0
    n_sym = text.count("#") + text.count("…") + text.count("...")
    out["symbol_to_word_ratio"] = n_sym / len(words) if words else 0.0
    out["alpha_word_fraction"] = (
        sum(1 for w in words if any(c.isalpha() for c in w)) / len(words) if words else 0.0
    )
    strip_chars = "".join(chr(c) for c in range(33, 128) if not chr(c).isalnum())
    out["required_word_hits"] = len(
        {w.lower().strip(strip_chars) for w in words} & set(REQUIRED_WORDS)
    )

    lines = naive_lines(text)
    out["bullet_line_fraction"] = (
        sum(1 for ln in lines if ln.lstrip().startswith(("•", "‣", "-", "*"))) / len(lines)
        if lines
        else 0.0
    )
    out["ellipsis_line_fraction"] = (
        sum(1 for ln in lines if ln.rstrip().endswith(("…", "..."))) / len(lines)
        if lines
        else 0.0
    )
    non_blank = [ln for ln in lines if ln.strip()]
    seen = Counter()
    dup_count = 0
    dup_chars = 0
    for ln in non_blank:
        if seen[ln.strip()]:
            dup_count += 1
            dup_chars += len(ln)
        seen[ln.strip()] += 1
    out["duplicate_line_fraction"] = dup_count / len(non_blank) if non_blank else 0.0
    total = sum(len(ln) for ln in non_blank)
    out["duplicate_line_char_fraction"] = dup_chars / total if total else 0.0

    out["top_ngram_char_fraction"] = {}
    out["dup_ngram_char_fraction"] = {}
    for n in (2, 3, 4):
        out["top_ngram_char_fraction"][n] = _naive_top_fraction(text, words, spans, n)
    for n in (5, 6, 7, 8, 9, 10):
        out["dup_ngram_char_fraction"][n] = _naive_dup_fraction(text, words, spans, n)
    return out


def _naive_top_fraction(text, words, spans, n):
    if len(words) < n or not text:
        return 0.0
    grams = [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]
    counts = Counter(grams)
    top = counts.most_common(1)[0][1]
    # modal gram: max count, earliest first occurrence on ties
    modal = min((g for g in counts if counts[g] == top), key=grams.index)
    covered = 0
    i = 0
    while i <= len(words) - n:
        if tuple(words[i : i + n]) == modal:
            covered += spans[i + n - 1][1] - spans[i][0]
            i += n
        else:
            i += 1
    return covered / len(text)


def _naive_dup_fraction(text, words, spans, n):
    if len(words) < n or not text:
        return 0.0
    grams = [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]
    counts = Counter(grams)
    mask = [False] * len(text)
    for i, g in enumerate(grams):
        if counts[g] >= 2:
            for j in range(spans[i][0], spans[i + n - 1][1]):
                mask[j] = True
    return sum(mask) / len(text)


def reference_top_ngram_fraction(token_ids, spans, n, text_len):
    """``gopher``'s most-common-n-gram fraction as it was before n-gram ids
    were rolled from n to n+1: a tuple per n-gram and a full greedy scan."""
    if len(token_ids) < n or text_len == 0:
        return 0.0
    counts = Counter()
    first_pos = {}
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


def reference_dup_ngram_fraction(token_ids, spans, n, text_len):
    """``gopher``'s duplicate-n-gram fraction as it was before the interval
    union: one mask byte per character."""
    if len(token_ids) < n or text_len == 0:
        return 0.0
    counts = Counter(tuple(token_ids[i : i + n]) for i in range(len(token_ids) - n + 1))
    mask = bytearray(text_len)
    for i in range(len(token_ids) - n + 1):
        if counts[tuple(token_ids[i : i + n])] >= 2:
            start, end = spans[i][0], spans[i + n - 1][1]
            for j in range(start, end):
                mask[j] = 1
    return sum(mask) / text_len


def reference_ngram_fractions(text):
    spans = whitespace_word_spans(text)
    intern = {}
    token_ids = [intern.setdefault(text[s:e], len(intern)) for s, e in spans]
    return (
        {n: reference_top_ngram_fraction(token_ids, spans, n, len(text)) for n in TOP_NGRAM_THRESHOLDS},
        {n: reference_dup_ngram_fraction(token_ids, spans, n, len(text)) for n in DUP_NGRAM_THRESHOLDS},
    )


# texts over a 2-4 word vocabulary, so n-grams tie and overlap often,
# separated by runs of ASCII and unicode whitespace (\x1c-\x1f and the
# ideographic space are str.isspace too), over one or several lines
_SEPARATORS = [" ", "  ", "\n", "\t", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", "\x0b", " \n "]
_few_word_texts = st.lists(
    st.sampled_from(["a", "bb", "é", "c#d", "the"]), min_size=2, max_size=4, unique=True
).flatmap(
    lambda vocab: st.lists(
        st.tuples(st.sampled_from(vocab), st.sampled_from(_SEPARATORS)), max_size=40
    ).map(lambda pairs: "".join(word + sep for word, sep in pairs))
) | st.sampled_from(["", " ", "\u3000a\x1cbb\x0b", "a", "a\x1fa"])


def random_text(rng, vocab, n_words, n_lines=1):
    lines = []
    for _ in range(n_lines):
        lines.append(" ".join(rng.choice(vocab) for _ in range(n_words)))
    return "\n".join(lines)


class TestGopherOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_statistics_match_naive_recount(self, seed):
        rng = random.Random(seed)
        vocab = ["the", "of", "fox", "#", "...", "•x", "aaa", "bb", "-", "lighthouse"]
        text = random_text(rng, vocab, rng.randrange(1, 60), rng.randrange(1, 6))[:1000]
        report = gopher_report(text)
        oracle = naive_gopher(text)
        assert report.word_count == oracle["word_count"]
        assert report.median_word_length == oracle["median_word_length"]
        assert report.symbol_to_word_ratio == pytest.approx(oracle["symbol_to_word_ratio"])
        assert report.alpha_word_fraction == pytest.approx(oracle["alpha_word_fraction"])
        assert report.required_word_hits == oracle["required_word_hits"]
        assert report.bullet_line_fraction == pytest.approx(oracle["bullet_line_fraction"])
        assert report.ellipsis_line_fraction == pytest.approx(oracle["ellipsis_line_fraction"])
        assert report.duplicate_line_fraction == pytest.approx(oracle["duplicate_line_fraction"])
        assert report.duplicate_line_char_fraction == pytest.approx(
            oracle["duplicate_line_char_fraction"]
        )
        # integer character counts over len(text) on both sides: exact
        assert report.top_ngram_char_fraction == oracle["top_ngram_char_fraction"]
        assert report.dup_ngram_char_fraction == oracle["dup_ngram_char_fraction"]

    @given(_few_word_texts, st.booleans())
    def test_ngram_fractions_match_reference_and_naive(self, body, lead):
        text = (" " if lead else "") + body
        report = gopher_report(text)
        top, dup = reference_ngram_fractions(text)
        oracle = naive_gopher(text)
        assert report.top_ngram_char_fraction == top == oracle["top_ngram_char_fraction"]
        assert report.dup_ngram_char_fraction == dup == oracle["dup_ngram_char_fraction"]

    # ASCII letters, digits, "_", punctuation, and the whitespace str.split
    # splits on (\x1c-\x1f among it); the non-ASCII characters, a letter é and
    # the non-letters ² and Ⅷ, send a text to the per-word loop
    _ASCII = "aZq09_.-#!\t\n\x0b\x0c\r \x1c\x1d\x1e\x1f"

    @given(st.text(st.sampled_from(_ASCII), max_size=60) | st.text(st.sampled_from(_ASCII + "é²Ⅷ"), max_size=60))
    @example("12 345 0\x1c..\x1d#!-\x1e_ __\x1fa_1 1a _Z_")
    @example("\x1c\x1d\x1e\x1f")
    @example("é ² Ⅷ 12 .. _ a")
    def test_alpha_word_fraction_matches_per_word_loop(self, text):
        words = text.split()
        expected = sum(1 for w in words if any(c.isalpha() for c in w)) / len(words) if words else 0.0
        assert gopher_report(text).alpha_word_fraction == expected

    def test_alpha_word_count_is_linear_in_a_word_without_letters(self):
        # a count that scanned such a word from each of its characters would take minutes
        started = time.monotonic()
        assert gopher_report("1" * 100_000 + " a").alpha_word_fraction == 0.5
        assert time.monotonic() - started < 2

    def test_matches_any_equals_external_disjunction(self):
        rng = random.Random(99)
        for _ in range(20):
            vocab = ["the", "to", "of", "x", "yy", "zzzzzzzzzzzz", "#"]
            text = random_text(rng, vocab, rng.randrange(0, 80), rng.randrange(1, 4))
            report = gopher_report(text)
            flags = report.rule_flags
            assert report.matches_any == any(flags.values())
            # recompute the disjunction from the emitted raw statistics
            external = (
                report.word_count < 50
                or report.word_count > 100_000
                or report.median_word_length < 3
                or report.median_word_length > 10
                or report.symbol_to_word_ratio > 0.10
                or report.alpha_word_fraction < 0.80
                or report.required_word_hits < 2
                or report.bullet_line_fraction > 0.90
                or report.ellipsis_line_fraction > 0.30
                or report.duplicate_line_fraction > 0.30
                or report.duplicate_line_char_fraction > 0.30
                or any(report.top_ngram_char_fraction[n] > t for n, t in TOP_NGRAM_THRESHOLDS.items())
                or any(report.dup_ngram_char_fraction[n] > t for n, t in DUP_NGRAM_THRESHOLDS.items())
            )
            assert report.matches_any == external


class TestGopherRules:
    def test_word_count_boundaries(self):
        short = " ".join(["word"] * 49)
        exact = " ".join(["word"] * 50)
        assert gopher_report(short).rule_flags["word_count"]
        assert not gopher_report(exact).rule_flags["word_count"]

    def test_bullet_fraction_example(self):
        report = gopher_report("• a\n• b\n• c\nplain")
        assert report.bullet_line_fraction == 0.75
        assert not report.rule_flags["bullet_lines"]

    def test_repeated_token_trips_top_bigram(self):
        text = "x " * 100
        report = gopher_report(text)
        assert report.top_ngram_char_fraction[2] == pytest.approx(
            naive_gopher(text)["top_ngram_char_fraction"][2]
        )
        assert report.top_ngram_char_fraction[2] > 0.20
        assert report.rule_flags["top_ngrams"]

    def test_empty_doc_trips_word_count(self):
        report = gopher_report("")
        assert report.rule_flags["word_count"] and report.matches_any

    def test_emitted_fractions_within_unit_interval(self):
        rng = random.Random(5)
        for _ in range(20):
            text = random_text(rng, ["a", "bb", "#", "..."], rng.randrange(0, 40))
            report = gopher_report(text)
            for frac in (
                report.symbol_to_word_ratio,
                report.alpha_word_fraction,
                report.bullet_line_fraction,
                report.ellipsis_line_fraction,
                report.duplicate_line_fraction,
                report.duplicate_line_char_fraction,
                *report.top_ngram_char_fraction.values(),
                *report.dup_ngram_char_fraction.values(),
            ):
                if frac != report.symbol_to_word_ratio:  # ratio may legally exceed 1
                    assert 0.0 <= frac <= 1.0

    def test_tagger_emits_flag_only_when_matching(self):
        # clean: >=50 distinct words, sane median, required words present
        words = ["the", "of", "and", "with"] + [f"word{i:03d}" for i in range(56)]
        good = Document(id="g", text=" ".join(words))
        report = gopher_report(good.text)
        assert not report.matches_any, report.rule_flags
        assert "gopher__matches_any" not in tag_gopher(good)
        bad = Document(id="b", text="tiny doc")
        attrs = tag_gopher(bad)
        assert attrs["gopher__matches_any"][0].score == 1.0

    def test_spans_cover_whole_document(self):
        doc = Document(id="d", text="héllo wörld " * 20)
        for spans in tag_gopher(doc).values():
            assert spans[0].start == 0 and spans[0].end == len(doc.text.encode("utf-8"))


class TestC4NoPunc:
    def test_terminal_punctuation_passes(self):
        doc = Document(id="1", text="Hello world.")
        assert "c4__no_punc_line" not in tag_c4_nopunc(doc)

    def test_each_accepted_terminal_character(self):
        for ch in ".?!\"":
            doc = Document(id="1", text=f"line ends well{ch}")
            assert "c4__no_punc_line" not in tag_c4_nopunc(doc), ch

    def test_unpunctuated_line_gets_full_span(self):
        doc = Document(id="1", text="no punct here")
        spans = tag_c4_nopunc(doc)["c4__no_punc_line"]
        assert [(spans[0].start, spans[0].end)] == [(0, len(doc.text))]

    def test_failing_fraction(self):
        doc = Document(id="1", text="good.\nbad\nworse\nawful")
        attrs = tag_c4_nopunc(doc)
        assert attrs["c4__no_punc_fraction"][0].score == 0.75
        assert len(attrs["c4__no_punc_line"]) == 3

    def test_blank_lines_not_counted(self):
        doc = Document(id="1", text="good.\n\nfine.")
        attrs = tag_c4_nopunc(doc)
        assert attrs["c4__no_punc_fraction"][0].score == 0.0

    def test_trailing_whitespace_ignored(self):
        doc = Document(id="1", text="ends fine.   ")
        assert "c4__no_punc_line" not in tag_c4_nopunc(doc)

    def test_comma_fails(self):
        doc = Document(id="1", text="ends with comma,")
        assert "c4__no_punc_line" in tag_c4_nopunc(doc)


def naive_repetition_coverage(text, threshold=100, max_period=5):
    """Mark every token index inside some >threshold consecutive repeat."""
    tokens = text.split()
    covered = set()
    for period in range(1, max_period + 1):
        for start in range(len(tokens) - period + 1):
            repeats = 1
            while (
                start + (repeats + 1) * period <= len(tokens)
                and tokens[start + repeats * period : start + (repeats + 1) * period]
                == tokens[start : start + period]
            ):
                repeats += 1
            if repeats > threshold:
                covered.update(range(start, start + repeats * period))
    return covered


def reference_repetition_runs(text):
    """``find_repetition_runs`` as it was before it kept a pointer into the
    covered runs: every position rescans the whole covered list."""
    spans = whitespace_word_spans(text)
    intern = {}
    tokens = [intern.setdefault(text[s:e], len(intern)) for s, e in spans]
    n = len(tokens)
    runs = []
    covered = []
    for period in range(1, REPETITION_MAX_PERIOD + 1):
        i = 0
        while i + period <= n:
            inside = next((c for c in covered if c[0] <= i < c[1]), None)
            if inside:
                i = inside[1]
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
                covered.append((i, i + repeats * period))
                i += repeats * period
            else:
                i += max(1, (repeats - 1) * period)
    runs.sort()
    return [(spans[a][0], spans[b - 1][1], count) for a, b, count in runs]


# texts made of a few segments, each a short token pattern repeated up to
# 130 times, so runs of several periods abut, overlap and nest
_repeated_segments = st.lists(
    st.tuples(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6), st.integers(1, 130)),
    max_size=6,
).map(lambda segments: " ".join(" ".join(pattern * count) for pattern, count in segments))


class TestRepetition:
    def test_101_repeats_detected_100_not(self):
        doc101 = Document(id="a", text="spam " * 101)
        doc100 = Document(id="b", text="spam " * 100)
        spans = tag_repetition(doc101)["repetition__run"]
        assert len(spans) == 1 and spans[0].score == 101
        assert tag_repetition(doc100) == {}

    def test_span_covers_the_run(self):
        text = "spam " * 101
        (span,) = tag_repetition(Document(id="a", text=text))["repetition__run"]
        assert (span.start, span.end) == (0, len("spam " * 101) - 1)

    def test_period_two_run(self):
        text = "a b " * 150
        runs = find_repetition_runs(text)
        assert runs == [(0, len(text) - 1, 150)]

    def test_prefixed_run_detected(self):
        text = "intro words then " + "x " * 150
        runs = find_repetition_runs(text)
        assert len(runs) == 1 and runs[0][2] == 150

    @pytest.mark.parametrize(
        "text",
        [
            "spam " * 101,
            "a b " * 150,
            "lead in " + "tok " * 120 + "tail",
            "u v w " * 40,  # period-3, 40 repeats: under threshold
            "x " * 100,
        ],
    )
    def test_coverage_matches_naive_oracle(self, text):
        tokens = text.split()
        spans_by_token = set()
        token_spans = []
        pos = 0
        for tok in tokens:
            start = text.index(tok, pos)
            token_spans.append((start, start + len(tok)))
            pos = start + len(tok)
        for start_char, end_char, _ in find_repetition_runs(text):
            for idx, (s, e) in enumerate(token_spans):
                if s >= start_char and e <= end_char:
                    spans_by_token.add(idx)
        assert spans_by_token == naive_repetition_coverage(text)

    @pytest.mark.parametrize("period", range(1, REPETITION_MAX_PERIOD + 1))
    def test_threshold_at_each_period_between_other_words(self, period):
        # a pattern with no shorter period, between words that extend no
        # stretch of tokens[j] == tokens[j + period]
        pattern = " ".join(f"t{k}" for k in range(period)) + " "
        prefix = "alpha beta gamma "
        for repeats in (100, 101):
            text = prefix + pattern * repeats + "delta epsilon"
            runs = find_repetition_runs(text)
            assert runs == reference_repetition_runs(text)
            if repeats == 100:
                assert runs == []
            else:
                assert runs == [(len(prefix), len(prefix) + len(pattern) * repeats - 1, repeats)]

    def test_stretch_inside_smaller_period_run_is_skipped(self):
        # 250 equal tokens also give 248 positions with tokens[j] == tokens[j + 2],
        # enough for the period-2 screen, so the period-2 scan runs and must
        # skip the tokens the period-1 run covers
        text = "lead " + "x " * 250 + "y x " * 30 + "tail"
        tokens = np.array(text.split())
        assert (tokens[:-2] == tokens[2:])[1:249].all()
        runs = find_repetition_runs(text)
        assert runs == reference_repetition_runs(text)
        assert runs == [(5, 5 + len("x " * 250) - 1, 250)]
        covered = set()
        for start, end, _ in runs:
            covered |= {i for i, (s, e) in enumerate(whitespace_word_spans(text)) if start <= s and e <= end}
        assert covered == naive_repetition_coverage(text)

    @given(_repeated_segments)
    def test_matches_reference_scan(self, text):
        assert find_repetition_runs(text) == reference_repetition_runs(text)


class TestWikiShort:
    def test_boundary_25_vs_26(self):
        short = Document(id="a", text=" ".join(["word"] * 25))
        long = Document(id="b", text=" ".join(["word"] * 26))
        assert "wiki__short" in tag_wiki_min_words(short)
        assert tag_wiki_min_words(long) == {}

    def test_empty_page_flagged(self):
        assert "wiki__short" in tag_wiki_min_words(Document(id="a", text=""))

    def test_hundred_word_page_passes(self):
        rng = random.Random(1)
        text = " ".join(rng.choice(["alpha", "beta", "gamma"]) for _ in range(100))
        assert tag_wiki_min_words(Document(id="a", text=text)) == {}


def reddit_doc(kind, length, **metadata):
    metadata.setdefault("kind", kind)
    return Document(id="r", text="x" * length, metadata=metadata)


class TestRedditQuality:
    def test_comment_length_boundary(self):
        assert "reddit__too_short" in tag_reddit_quality(reddit_doc("comment", 499))
        assert "reddit__too_short" not in tag_reddit_quality(reddit_doc("comment", 500))

    def test_submission_length_boundary(self):
        assert "reddit__too_short" in tag_reddit_quality(reddit_doc("submission", 399))
        assert "reddit__too_short" not in tag_reddit_quality(reddit_doc("submission", 400))

    def test_too_long_boundary(self):
        assert "reddit__too_long" not in tag_reddit_quality(reddit_doc("submission", 40_000))
        assert "reddit__too_long" in tag_reddit_quality(reddit_doc("submission", 40_001))

    def test_votes_boundary(self):
        assert "reddit__low_votes" in tag_reddit_quality(reddit_doc("comment", 600, votes=2))
        assert "reddit__low_votes" not in tag_reddit_quality(reddit_doc("comment", 600, votes=3))

    def test_votes_rule_only_for_comments(self):
        attrs = tag_reddit_quality(reddit_doc("submission", 600, votes=0))
        assert "reddit__low_votes" not in attrs

    def test_moderation_flags(self):
        attrs = tag_reddit_quality(
            reddit_doc("comment", 600, votes=5, author_deleted=True, moderator_removed=True, over_18=True)
        )
        assert {"reddit__author_deleted", "reddit__moderator_removed", "reddit__over_18"} <= set(attrs)

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            tag_reddit_quality(Document(id="r", text="x"))


class TestBannedSubreddit:
    def test_membership(self):
        blocklist = frozenset({"spamtown"})
        doc = Document(id="1", text="x", metadata={"subreddit": "spamtown"})
        assert "reddit__banned_subreddit" in tag_banned_subreddit(doc, blocklist)

    def test_non_member_passes(self):
        doc = Document(id="1", text="x", metadata={"subreddit": "fineplace"})
        assert tag_banned_subreddit(doc, frozenset({"spamtown"})) == {}

    def test_mixed_case_flagged(self):
        doc = Document(id="1", text="x", metadata={"subreddit": "SpamTown"})
        assert "reddit__banned_subreddit" in tag_banned_subreddit(doc, frozenset({"spamtown"}))

    def test_missing_subreddit_rejected(self):
        with pytest.raises(ValueError):
            tag_banned_subreddit(Document(id="1", text="x"), frozenset())
