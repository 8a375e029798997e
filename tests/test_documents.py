import random

import pytest
from hypothesis import given, strategies as st

from corpuskit.documents import (
    AttributeSpan,
    CorpusStats,
    Document,
    count_stats,
    count_words,
    segment_paragraphs,
    segment_words,
    whitespace_word_spans,
)


def spans_as_tuples(spans):
    return [(sp.start, sp.end) for sp in spans]


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

    def test_word_spans_cover_words(self):
        text = "naïve café"
        data = text.encode("utf-8")
        got = [data[sp.start : sp.end].decode("utf-8") for sp in segment_words(text)]
        assert got == ["naïve", "café"]

    @given(st.text())
    def test_whitespace_words_match_str_split(self, text):
        assert [text[s:e] for s, e in whitespace_word_spans(text)] == text.split()


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

    def test_document_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Document(id="", text="x")

    def test_empty_text_is_legal(self):
        assert Document(id="1", text="").text == ""
