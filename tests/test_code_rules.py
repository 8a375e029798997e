import random

import pytest
from hypothesis import given, strategies as st

from corpuskit.code_rules import (
    DEFAULT_BLOCKED_EXTENSIONS,
    comment_ratio,
    document_extension,
    html_text_ratio,
    rpj_report,
    tag_code_rpj,
    tag_code_starcoder,
    tag_extension_filter,
)
from corpuskit.documents import Document


def code_doc(text, extension=None, **metadata):
    if extension is not None:
        metadata["extension"] = extension
    return Document(id="c", text=text, metadata=metadata)


class TestRpjRules:
    def test_max_line_length_boundary(self):
        ok = tag_code_rpj(code_doc("x" * 1000))
        bad = tag_code_rpj(code_doc("x" * 1001))
        assert "rpj_code__rule_max_line_length" not in ok
        assert "rpj_code__rule_max_line_length" in bad

    def test_avg_line_length_boundary(self):
        ok = tag_code_rpj(code_doc("x" * 100))
        bad = tag_code_rpj(code_doc("x" * 101))
        assert "rpj_code__rule_avg_line_length" not in ok
        assert "rpj_code__rule_avg_line_length" in bad

    def test_numeric_text_has_zero_alpha_ratio(self):
        attrs = tag_code_rpj(code_doc("1234 5678"))
        assert attrs["rpj_code__alpha_token_ratio"][0].score == 0.0
        assert "rpj_code__rule_alpha_token_ratio" in attrs

    def test_alnum_fraction_boundary(self):
        at = tag_code_rpj(code_doc("a---"))  # 1 alnum / 4 chars = 0.25
        below = tag_code_rpj(code_doc("a----"))  # 0.2
        assert "rpj_code__rule_alnum_fraction" not in at
        assert "rpj_code__rule_alnum_fraction" in below

    def test_alpha_token_ratio_boundary(self):
        at = tag_code_rpj(code_doc("abc def"))  # 6 alpha / 2 tokens = 3.0
        attrs = tag_code_rpj(code_doc("ab c"))  # 3 alpha / 2 tokens = 1.5
        low = tag_code_rpj(code_doc("a b"))  # 2 / 2 = 1.0
        assert "rpj_code__rule_alpha_token_ratio" not in at
        assert "rpj_code__rule_alpha_token_ratio" not in attrs
        assert "rpj_code__rule_alpha_token_ratio" in low

    def test_statistics_match_brute_force(self):
        rng = random.Random(0)
        pieces = []
        for _ in range(20):
            pieces.append(
                "".join(rng.choice("abc123 _-#\t") for _ in range(rng.randrange(0, 120)))
            )
        text = "\n".join(pieces)
        report = rpj_report(text)
        lines = text.split("\n")
        assert report.max_line_len == max(len(ln) for ln in lines)
        assert report.avg_line_len == pytest.approx(sum(len(ln) for ln in lines) / len(lines))
        assert report.alnum_char_fraction == pytest.approx(
            sum(c.isalnum() for c in text) / len(text)
        )
        assert report.alpha_to_token_ratio == pytest.approx(
            sum(c.isalpha() for c in text) / len(text.split())
        )

    @given(
        st.one_of(
            st.text(st.characters(max_codepoint=0x7F)),
            st.text(st.sampled_from("aZ09_ \t\n\x1f-#é²Ⅷ٣ß日")),
            st.text(),
        )
    )
    def test_character_counts_equal_per_character_definition(self, text):
        report = rpj_report(text)
        tokens = len(text.split())
        assert report.alnum_char_fraction == (sum(c.isalnum() for c in text) / len(text) if text else 0.0)
        assert report.alpha_to_token_ratio == (sum(c.isalpha() for c in text) / tokens if tokens else 0.0)

    def test_trailing_newline_line_not_counted(self):
        with_nl = rpj_report("x" * 10 + "\n")
        without = rpj_report("x" * 10)
        assert with_nl.avg_line_len == without.avg_line_len == 10


class TestStarcoder:
    def test_xml_template_detected(self):
        attrs = tag_code_starcoder(code_doc('<?xml version="1.0"?><doc/>', "xml"))
        assert "starcoder__has_xml_template" in attrs
        assert "starcoder__matches_any" in attrs

    def test_xml_marker_after_first_100_chars_ignored(self):
        text = "x" * 101 + '<?xml version="1.0"?>'
        assert "starcoder__has_xml_template" not in tag_code_starcoder(code_doc(text, "txt"))

    def test_html_ratio_low_visible_text_trips(self):
        # one big div, 10 visible chars out of 200 total bytes
        visible = "0123456789"
        open_tag = '<div pad="' + "y" * (200 - 10 - len('<div pad=""></div>')) + '">'
        text = open_tag + visible + "</div>"
        assert len(text) == 200
        assert html_text_ratio(text) == pytest.approx(0.05)
        attrs = tag_code_starcoder(Document(id="h", text=text, metadata={"extension": "html"}))
        assert attrs["starcoder__html_text_ratio"][0].score == pytest.approx(0.05)
        assert "starcoder__rule_html_text_ratio" in attrs

    def test_html_ratio_boundary(self):
        # exactly 0.2 trips (rule is <=), just above passes
        tag = "<" + "a" * 38 + ">"  # 40 bytes
        at = tag + "v" * 10  # 10 / 50 = 0.2
        above = tag + "v" * 11  # 11 / 51 > 0.2
        assert html_text_ratio(at) == pytest.approx(0.2)
        attrs_at = tag_code_starcoder(Document(id="h", text=at, metadata={"extension": "html"}))
        attrs_above = tag_code_starcoder(Document(id="h", text=above, metadata={"extension": "html"}))
        assert "starcoder__rule_html_text_ratio" in attrs_at
        assert "starcoder__rule_html_text_ratio" not in attrs_above

    def test_python_zero_comments_trips(self):
        text = "def f():\n    return 1\n"
        attrs = tag_code_starcoder(code_doc(text, "py"))
        assert attrs["starcoder__comment_ratio"][0].score == 0.0
        assert "starcoder__rule_comment_ratio" in attrs

    def test_comment_ratio_boundaries(self):
        def py_doc(comment_lines, code_lines):
            lines = ["# c"] * comment_lines + ["x = 1"] * code_lines
            return comment_ratio("\n".join(lines), "py")

        assert py_doc(1, 99) == pytest.approx(0.01)  # <= 0.01 trips
        assert py_doc(2, 98) == pytest.approx(0.02)
        assert py_doc(80, 20) == pytest.approx(0.8)  # exactly 0.8 passes (> 0.8 trips)
        assert py_doc(81, 19) == pytest.approx(0.81)
        at = tag_code_starcoder(code_doc("\n".join(["# c"] * 80 + ["x = 1"] * 20), "py"))
        above = tag_code_starcoder(code_doc("\n".join(["# c"] * 81 + ["x = 1"] * 19), "py"))
        assert "starcoder__rule_comment_ratio" not in at
        assert "starcoder__rule_comment_ratio" in above

    def test_java_block_comments_counted(self):
        text = "/* start\nmiddle line\nend */\nint x = 1;\n// trailing\n"
        assert comment_ratio(text, "java") == pytest.approx(4 / 5)

    def test_js_inline_block_on_one_line(self):
        text = "/* all on one line */\ncode();\n"
        assert comment_ratio(text, "js") == pytest.approx(1 / 2)

    def test_code_then_comment_line_not_counted(self):
        text = "int x; // note\nint y;\n"
        assert comment_ratio(text, "java") == 0.0

    def test_unknown_extension_emits_nothing_without_xml(self):
        assert tag_code_starcoder(code_doc("plain text here", "rs")) == {}

    def test_missing_extension_metadata(self):
        doc = Document(id="c", text="no extension info")
        assert tag_code_starcoder(doc) == {}


class TestExtensionFilter:
    def test_csv_flagged(self):
        doc = Document(id="c", text="a,b", metadata={"filename": "data.csv"})
        assert "ext__blocked" in tag_extension_filter(doc)

    def test_rust_not_flagged(self):
        doc = Document(id="c", text="fn main() {}", metadata={"filename": "main.rs"})
        assert tag_extension_filter(doc) == {}

    def test_case_insensitive(self):
        doc = Document(id="c", text="{}", metadata={"filename": "FILE.JSON"})
        assert "ext__blocked" in tag_extension_filter(doc)

    def test_extension_metadata_preferred(self):
        doc = Document(id="c", text="x", metadata={"extension": "svg"})
        assert "ext__blocked" in tag_extension_filter(doc)

    def test_default_blocklist_contents(self):
        assert {"json", "json5", "jsonld", "jsoniq", "csv", "svg"} <= DEFAULT_BLOCKED_EXTENSIONS

    def test_custom_blocklist(self):
        doc = Document(id="c", text="x", metadata={"extension": "dat"})
        assert "ext__blocked" in tag_extension_filter(doc, frozenset({"dat"}))

    def test_document_extension_fallback(self):
        assert document_extension(Document(id="c", text="", metadata={"filename": "a.tar.GZ"})) == "gz"
        assert document_extension(Document(id="c", text="", metadata={})) is None
