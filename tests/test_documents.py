import math
import random
import sys
import unicodedata

import numpy as np
import pytest
from conftest import ALL_SPACES
from hypothesis import example, given, strategies as st

from corpuskit import documents
from corpuskit.documents import (
    AttributeSpan,
    CorpusStats,
    Document,
    count_stats,
    count_words,
    segment_paragraphs,
    segment_words,
    split_paragraphs,
    whitespace_word_spans,
    word_table,
)


def spans_as_tuples(spans):
    return [(sp.start, sp.end) for sp in spans]


# The per-character scanner that the class-code table and ``_WORD`` replaced,
# kept as the oracle for the rule set documented in ``corpuskit.documents``.
_MID_LETTER = {"'", "’", "·", "."}
_MID_NUM = {".", ","}


def _char_class(ch):
    cat = unicodedata.category(ch)
    if cat[0] == "L":
        return "letter"
    if cat == "Nd":
        return "digit"
    if cat == "Pc":
        return "connector"
    if cat[0] == "M":
        return "mark"
    return "other"


def oracle_word_char_spans(text):
    n = len(text)
    i = 0
    while i < n:
        cls = _char_class(text[i])
        if cls not in ("letter", "digit", "connector"):
            i += 1
            continue
        start = i
        has_alnum = cls in ("letter", "digit")
        i += 1
        while i < n:
            cls = _char_class(text[i])
            if cls in ("letter", "digit"):
                has_alnum = True
                i += 1
            elif cls in ("connector", "mark"):
                i += 1
            elif (
                i + 1 < n
                and text[i] in _MID_LETTER
                and _char_class(text[i - 1]) == "letter"
                and _char_class(text[i + 1]) == "letter"
            ):
                i += 1
            elif (
                i + 1 < n
                and text[i] in _MID_NUM
                and _char_class(text[i - 1]) == "digit"
                and _char_class(text[i + 1]) == "digit"
            ):
                i += 1
            else:
                break
        if has_alnum:
            yield start, i


def oracle_byte_spans(text):
    return [
        (len(text[:s].encode("utf-8")), len(text[:e].encode("utf-8")))
        for s, e in oracle_word_char_spans(text)
    ]


# one or more characters of every class code: letters (Latin, accented, CJK),
# decimal digits (ASCII and Arabic-Indic), connectors (``_``, U+203F), a
# combining mark, the mid-letter and mid-number characters, a letter-like
# number that is not Nd (U+216B), other punctuation and whitespace
WORD_RULE_ALPHABET = "aZé中09\u0663_\u203f\u0301'’·.,\u216b-! \n\t"


class TestParagraphs:
    def test_two_lines(self):
        assert spans_as_tuples(segment_paragraphs("a\nb")) == [(0, 1), (2, 3)]

    def test_empty_text_is_one_empty_paragraph(self):
        assert spans_as_tuples(segment_paragraphs("")) == [(0, 0)]

    def test_interior_empty_paragraph(self):
        assert spans_as_tuples(segment_paragraphs("x\n\ny")) == [(0, 1), (2, 2), (3, 4)]

    def test_trailing_newline_yields_empty_final_paragraph(self):
        assert spans_as_tuples(segment_paragraphs("x\n")) == [(0, 1), (2, 2)]

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200))
    def test_partition_reconstructs_text(self, text):
        data = text.encode("utf-8")
        pieces = [data[sp.start : sp.end] for sp in segment_paragraphs(text)]
        assert b"\n".join(pieces).decode("utf-8") == text

    @given(st.binary(max_size=200))
    def test_split_bounds_slice_out_each_paragraph(self, data):
        pieces = list(split_paragraphs(data))
        assert [para for _, para in pieces] == data.split(b"\n")
        assert all(data[start:end] == para for (start, end), para in pieces)

    def test_byte_offsets_for_multibyte_text(self):
        text = "héllo\nwörld"
        spans = segment_paragraphs(text)
        data = text.encode("utf-8")
        assert [data[sp.start : sp.end].decode("utf-8") for sp in spans] == ["héllo", "wörld"]


class TestWords:
    def test_hello_world_unicode(self):
        assert count_words("Hello, world!") == 2

    def test_empty(self):
        assert count_words("") == 0

    def test_contraction_is_one_word(self):
        assert count_words("don't stop") == 2

    def test_decimal_and_grouped_numbers(self):
        assert count_words("3.14 and 1,000") == 3

    def test_punctuation_only_has_no_words(self):
        assert count_words("... !!! --") == 0
        assert count_words("___") == 0  # connectors alone are not words

    @pytest.mark.parametrize(
        "text, words",
        [
            ("a'b'c", 1),  # mid-letter codes join a chain of letters
            ("a'.b", 2),  # two mid codes in a row break the word
            ("1.,2", 2),
            ("a.1", 2),  # a mid code joins letters to letters, digits to digits
            ("1,000.5", 1),
            ("1.2.3", 1),
            ("a''b", 2),
            ("x\u0301\u0301'y", 2),  # a mark before the mid code is not a letter
            ("__ _a", 1),  # connector runs count only with a letter or digit
            ("\u203f\u203f x", 1),
        ],
    )
    def test_mid_codes_marks_and_connectors(self, text, words):
        assert count_words(text) == words == len(segment_words(text))

    def test_word_spans_cover_words(self):
        text = "naïve café"
        data = text.encode("utf-8")
        got = [data[sp.start : sp.end].decode("utf-8") for sp in segment_words(text)]
        assert got == ["naïve", "café"]

    @given(st.text(alphabet=WORD_RULE_ALPHABET, max_size=60))
    def test_spans_and_count_match_oracle_on_rule_alphabet(self, text):
        assert spans_as_tuples(segment_words(text)) == oracle_byte_spans(text)
        assert count_words(text) == len(oracle_byte_spans(text))

    @given(st.text())
    def test_spans_and_count_match_oracle_on_any_text(self, text):
        assert spans_as_tuples(segment_words(text)) == oracle_byte_spans(text)
        assert count_words(text) == len(oracle_byte_spans(text))

    def test_class_table_bounded_over_every_code_point(self):
        text = "".join(chr(cp) for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF)
        assert count_words(text) == sum(1 for _ in oracle_word_char_spans(text))
        assert len(documents._CLASS_TABLE) <= documents._CLASS_TABLE_CAP

    def test_category_looked_up_once_per_code_point(self, monkeypatch):
        calls = []
        category = unicodedata.category

        def counting(ch):
            calls.append(ch)
            return category(ch)

        monkeypatch.setattr(unicodedata, "category", counting)
        monkeypatch.setattr(documents, "_CLASS_TABLE", documents._ClassTable())
        text = "ſtraße ⅻ ٣٤٥ \U0001d7d8 " * 3
        count_words(text)
        assert sorted(calls) == sorted(set(text))
        calls.clear()
        segment_words(text)
        count_words(text)
        assert calls == []

    @given(st.text())
    def test_whitespace_words_match_str_split(self, text):
        assert [text[s:e] for s, e in whitespace_word_spans(text)] == text.split()


_ASCII_SPACES = ALL_SPACES[:10]  # \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f and space
_table_texts = (
    # ASCII words between ASCII whitespace: the byte-table path
    st.text(st.sampled_from(_ASCII_SPACES + "ab#.1Z_"), max_size=60)
    # and with any whitespace and a few non-ASCII words: the regex path
    | st.lists(
        st.tuples(
            st.sampled_from(["a", "bb", "é", "日本", "😀", "c#d", "a"]),
            st.text(st.sampled_from(ALL_SPACES), max_size=3),
        ),
        max_size=30,
    ).map(lambda pairs: "".join(word + sep for word, sep in pairs))
    | st.text(st.sampled_from(ALL_SPACES), max_size=8)
)


class TestWordTable:
    """``word_table`` against its oracle: first-appearance interning of
    ``text.split()`` and the spans of ``whitespace_word_spans``."""

    def test_all_spaces_are_every_isspace_code_point(self):
        assert ALL_SPACES == "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())

    @given(_table_texts)
    @example("")
    @example(_ASCII_SPACES)
    @example(ALL_SPACES)
    @example("".join("ab"[i % 2] + space for i, space in enumerate(_ASCII_SPACES)))
    @example("".join("ab"[i % 2] + space for i, space in enumerate(ALL_SPACES)))
    @example(" a\x85b\xa0c\u2028a ")
    def test_matches_split_interning_and_spans(self, text):
        table = word_table(text)
        intern = {}
        assert table.ids.tolist() == [intern.setdefault(w, len(intern)) for w in text.split()]
        assert table.words == list(intern)
        assert list(zip(table.starts.tolist(), table.ends.tolist())) == whitespace_word_spans(text)
        assert table.ids.dtype == table.starts.dtype == table.ends.dtype == np.int64


class TestStats:
    def test_empty_stream(self):
        assert count_stats([]) == CorpusStats(0, 0, 0)

    def test_single_doc(self):
        stats = count_stats([Document(id="1", text="a b")])
        assert (stats.utf8_bytes, stats.documents, stats.unicode_words) == (3, 1, 2)

    def test_matches_brute_force_recount(self):
        rng = random.Random(0)
        docs = [
            Document(id=str(i), text=" ".join(rng.choice(["alpha", "beta", "π"]) for _ in range(rng.randrange(0, 20))))
            for i in range(100)
        ]
        stats = count_stats(docs)
        assert stats.documents == 100
        assert stats.utf8_bytes == sum(len(d.text.encode("utf-8")) for d in docs)
        assert stats.unicode_words == sum(count_words(d.text) for d in docs)


class TestInvariants:
    def test_span_rejects_negative_start(self):
        with pytest.raises(ValueError):
            AttributeSpan(-1, 2, 0.0)

    def test_span_rejects_end_before_start(self):
        with pytest.raises(ValueError):
            AttributeSpan(3, 2, 0.0)

    def test_span_rejects_non_finite_score(self):
        with pytest.raises(ValueError):
            AttributeSpan(0, 1, float("nan"))
        with pytest.raises(ValueError):
            AttributeSpan(0, 1, float("inf"))
        for score in (-math.inf, np.float64("nan"), np.float64("-inf")):
            with pytest.raises(ValueError, match="finite"):
                AttributeSpan(0, 1, score)

    @pytest.mark.parametrize("score", [0.0, -0.0, 1, sys.float_info.max, -sys.float_info.max, np.float32(2.5)])
    def test_span_accepts_finite_scores(self, score):
        assert AttributeSpan(0, 1, score).score == score

    def test_document_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Document(id="", text="x")

    def test_empty_text_is_legal(self):
        assert Document(id="1", text="").text == ""
