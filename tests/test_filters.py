import pytest
from hypothesis import given, strategies as st

from corpuskit.documents import AttributeSpan, Document, DocumentAttributes
from corpuskit.filters import (
    Drop,
    FilterConfigError,
    FilterExpr,
    Keep,
    SpanBoundsError,
    apply_filters,
    merge_spans,
)


def doc_with(text, **attributes):
    doc = Document(id="d", text=text)
    attrs = DocumentAttributes(id="d", attributes=attributes)
    return doc, attrs


def whole_span(text, score=1.0):
    return [AttributeSpan(0, len(text.encode("utf-8")), score)]


class TestMergeSpans:
    def test_overlap(self):
        merged = merge_spans([AttributeSpan(0, 5, 1.0), AttributeSpan(3, 8, 1.0)])
        assert [(sp.start, sp.end) for sp in merged] == [(0, 8)]

    def test_empty(self):
        assert merge_spans([]) == []

    def test_adjacent_merge(self):
        merged = merge_spans([AttributeSpan(0, 3, 1.0), AttributeSpan(3, 6, 2.0)])
        assert [(sp.start, sp.end, sp.score) for sp in merged] == [(0, 6, 2.0)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 60), st.integers(1, 15), st.floats(0, 5)),
            max_size=100,
        )
    )
    def test_matches_boolean_mask_union(self, raw):
        spans = [AttributeSpan(s, s + length, score) for s, length, score in raw]
        merged = merge_spans(spans)
        mask = [False] * 80
        for sp in spans:
            for i in range(sp.start, sp.end):
                mask[i] = True
        merged_mask = [False] * 80
        for sp in merged:
            assert sp.start <= sp.end
            for i in range(sp.start, sp.end):
                assert not merged_mask[i], "merged spans overlap"
                merged_mask[i] = True
        # empty spans vanish into neighbours or stand alone; compare cover
        assert [i for i, v in enumerate(merged_mask) if v] == [
            i for i, v in enumerate(mask) if v
        ]
        for prev, cur in zip(merged, merged[1:]):
            assert cur.start > prev.end  # disjoint and not even adjacent


class TestFilterExprValidation:
    def test_drop_requires_document_scope(self):
        with pytest.raises(FilterConfigError):
            FilterExpr("a", "span", ">", 0.5, "drop_doc")

    def test_remove_requires_span_scope(self):
        with pytest.raises(FilterConfigError):
            FilterExpr("a", "document", ">", 0.5, "remove_span")

    def test_replace_requires_replacement(self):
        with pytest.raises(FilterConfigError):
            FilterExpr("a", "span", ">", 0.5, "replace_span")

    def test_unknown_comparator(self):
        with pytest.raises(FilterConfigError):
            FilterExpr("a", "document", "!=", 0.5, "drop_doc")

    def test_equals_alias(self):
        expr = FilterExpr("a", "document", "=", 1.0, "drop_doc")
        assert expr.matches(1.0) and not expr.matches(0.5)

    def test_nan_threshold_refused_infinite_kept(self):
        # a NaN threshold matches no score; the PII mask filters use -inf
        with pytest.raises(FilterConfigError, match="NaN"):
            FilterExpr.from_json(
                {"attribute": "a", "scope": "document", "op": ">", "threshold": float("nan"), "action": "drop_doc"}
            )
        assert FilterExpr("a", "document", ">", float("-inf"), "drop_doc").matches(0.0)
        assert not FilterExpr("a", "document", ">=", float("inf"), "drop_doc").matches(1e308)


class TestApplyFilters:
    def test_document_drop(self):
        doc, attrs = doc_with("text", gopher__matches_any=whole_span("text"))
        expr = FilterExpr("gopher__matches_any", "document", ">=", 1.0, "drop_doc")
        assert apply_filters(doc, attrs, [expr]) == Drop("gopher__matches_any")

    def test_span_removal_with_separator_healing(self):
        text = "good.\nbad line\nfine."
        doc, attrs = doc_with(text, c4__no_punc_line=[AttributeSpan(6, 14, 1.0)])
        expr = FilterExpr("c4__no_punc_line", "span", ">=", 1.0, "remove_span")
        decision = apply_filters(doc, attrs, [expr])
        assert isinstance(decision, Keep)
        assert decision.doc.text == "good.\nfine."

    def test_replacement_substitutes_token(self):
        text = "call 123 now"
        doc, attrs = doc_with(text, pii__phone=[AttributeSpan(5, 8, 1.0)])
        expr = FilterExpr("pii__phone", "span", ">=", 1.0, "replace_span", "|||PHONE_NUMBER|||")
        decision = apply_filters(doc, attrs, [expr])
        assert decision.doc.text == "call |||PHONE_NUMBER||| now"

    def test_document_scope_uses_max_span_score(self):
        doc, attrs = doc_with(
            "abcdef",
            toxicity__hate=[AttributeSpan(0, 2, 0.2), AttributeSpan(3, 5, 0.9)],
        )
        expr = FilterExpr("toxicity__hate", "document", ">", 0.5, "drop_doc")
        assert isinstance(apply_filters(doc, attrs, [expr]), Drop)

    def test_unknown_attribute_absent_vs_fail(self):
        doc, attrs = doc_with("text")
        expr = FilterExpr("missing__attr", "document", ">=", 1.0, "drop_doc")
        assert isinstance(apply_filters(doc, attrs, [expr]), Keep)

    def test_emptied_document_dropped(self):
        text = "only line"
        doc, attrs = doc_with(text, bad=[AttributeSpan(0, len(text), 1.0)])
        expr = FilterExpr("bad", "span", ">=", 1.0, "remove_span")
        assert apply_filters(doc, attrs, [expr]) == Drop("emptied")

    def test_all_lines_removed_drops(self):
        text = "a\nb"
        doc, attrs = doc_with(text, bad=[AttributeSpan(0, 1, 1.0), AttributeSpan(2, 3, 1.0)])
        expr = FilterExpr("bad", "span", ">=", 1.0, "remove_span")
        assert apply_filters(doc, attrs, [expr]) == Drop("emptied")

    def test_span_out_of_bounds_rejected(self):
        doc, attrs = doc_with("abc", bad=[AttributeSpan(0, 99, 1.0)])
        expr = FilterExpr("bad", "span", ">=", 1.0, "remove_span")
        with pytest.raises(SpanBoundsError):
            apply_filters(doc, attrs, [expr])

    def test_attrs_id_mismatch_rejected(self):
        doc = Document(id="a", text="x")
        attrs = DocumentAttributes(id="b")
        with pytest.raises(ValueError):
            apply_filters(doc, attrs, [])

    def test_replacement_inside_removal_subsumed(self):
        text = "delete all of this line\nkeep."
        doc, attrs = doc_with(
            text,
            kill=[AttributeSpan(0, 23, 1.0)],
            mask=[AttributeSpan(7, 10, 1.0)],
        )
        exprs = [
            FilterExpr("kill", "span", ">=", 1.0, "remove_span"),
            FilterExpr("mask", "span", ">=", 1.0, "replace_span", "|||X|||"),
        ]
        decision = apply_filters(doc, attrs, exprs)
        assert decision.doc.text == "keep."

    def test_threshold_comparators(self):
        doc, attrs = doc_with("text", score=whole_span("text", 0.5))
        keep = FilterExpr("score", "document", ">", 0.5, "drop_doc")
        drop = FilterExpr("score", "document", ">=", 0.5, "drop_doc")
        assert isinstance(apply_filters(doc, attrs, [keep]), Keep)
        assert isinstance(apply_filters(doc, attrs, [drop]), Drop)

    def test_no_matching_spans_returns_same_doc(self):
        doc, attrs = doc_with("text", score=whole_span("text", 0.1))
        expr = FilterExpr("score", "span", ">", 0.5, "remove_span")
        decision = apply_filters(doc, attrs, [expr])
        assert decision.doc is doc

    def test_multibyte_safe_removal(self):
        text = "héllo\nwörld"
        data = text.encode("utf-8")
        first_line_end = data.index(b"\n")
        doc, attrs = doc_with(text, bad=[AttributeSpan(0, first_line_end, 1.0)])
        expr = FilterExpr("bad", "span", ">=", 1.0, "remove_span")
        decision = apply_filters(doc, attrs, [expr])
        assert decision.doc.text == "wörld"
