import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from corpuskit.cli import main
from corpuskit.documents import Document, DocumentAttributes, char_spans_to_byte_spans
from corpuskit.filters import Drop, Keep
from corpuskit.pii import (
    ContentTagConfig,
    IP_PATTERN,
    PHONE_PATTERN,
    REPLACEMENT_TOKENS,
    PiiSpan,
    _char_matches,
    _email_spans,
    apply_pii_policy,
    pii_attributes,
    tag_pii,
)
from corpuskit.shard_io import read_attributes, write_documents

# The source email pattern, run on the text plus a virtual trailing newline.
# It is quadratic in the length of a whitespace-free run, so it serves only
# as the oracle for _email_spans.
EMAIL_PATTERN = re.compile(r"[.\s@,?!;:)(]*([^\s@]+@[^\s@,?!;:)(]+?)[.\s@,?!;:)(]?[\s\n\r]")


def reference_char_matches(text):
    """Every detector's matches from plain finditer, without screens."""
    found = [(m.start(1), m.end(1), "email") for m in EMAIL_PATTERN.finditer(text + "\n")]
    found += [(m.start(), m.end(), "phone") for m in PHONE_PATTERN.finditer(text)]
    found += [(m.start(), m.end(), "ip") for m in IP_PATTERN.finditer(text)]
    return found


def reference_tag_pii(document):
    candidates = sorted(reference_char_matches(document.text), key=lambda m: (m[0], -m[1]))
    kept = []
    last_end = 0
    for start, end, kind in candidates:
        if start < last_end:
            continue
        kept.append((start, end, kind))
        last_end = end
    byte_spans = char_spans_to_byte_spans(document.text, ((s, e, 1.0) for s, e, _ in kept))
    return [PiiSpan(kind=kind, span=span) for (_, _, kind), span in zip(kept, byte_spans)]


def raw_spans(matches, kind):
    return sorted((start, end) for start, end, k in matches if k == kind)


# reaches every character class of the three patterns: letters (ASCII and
# not), ASCII and Arabic-Indic digits, the email punctuation, the phone
# separator and ASCII and Unicode whitespace
PII_ALPHABET = list("axé0125٣.@,();:!?-") + [" ", "\t", "\n", "\x0b", "\x1c", "\u3000"]
# texts are joined from single characters and from fragments over the same
# alphabet that make whole matches likely
PII_PIECES = PII_ALPHABET + ["a@x", "x.é", "1.25.0.9", "5.0", "٣٣٣", "(120) 555-0125", ".@", "@@"]
pii_texts = st.lists(st.sampled_from(PII_PIECES), max_size=30).map("".join)

# 200,000-character whitespace-free lines; the source email pattern is
# quadratic on all but the dot-at and letter-at lines and takes minutes there
ADVERSARIAL_LINES = {
    "x": "x" * 200_000,
    "x-then-at": "x" * 200_000 + "@",
    "dot-at": ".@" * 100_000,
    "paren-at": "(@" * 100_000,
    "letter-at": "a@" * 100_000,
    "digit-dot": "1." * 100_000,
}


def doc(text):
    return Document(id="d", text=text)


def span_texts(document, spans):
    data = document.text.encode("utf-8")
    return [(p.kind, data[p.span.start : p.span.end].decode("utf-8")) for p in spans]


class TestTagPii:
    def test_email_span(self):
        d = doc("write a@b.com today")
        assert span_texts(d, tag_pii(d)) == [("email", "a@b.com")]

    def test_ip_span(self):
        d = doc("server at 192.168.0.1 down")
        assert span_texts(d, tag_pii(d)) == [("ip", "192.168.0.1")]

    def test_empty_text(self):
        assert tag_pii(doc("")) == []

    def test_phone_formats(self):
        d = doc("call (206) 555-0123 or 425-555-0199")
        assert span_texts(d, tag_pii(d)) == [
            ("phone", "(206) 555-0123"),
            ("phone", "425-555-0199"),
        ]

    def test_phone_at_start_of_text(self):
        d = doc("206-555-0123 is the number")
        assert span_texts(d, tag_pii(d)) == [("phone", "206-555-0123")]

    def test_email_at_end_of_text(self):
        d = doc("reach me at user@example.org")
        assert span_texts(d, tag_pii(d)) == [("email", "user@example.org")]

    def test_email_trailing_punctuation_excluded(self):
        d = doc("ask a@b.com.")
        assert span_texts(d, tag_pii(d)) == [("email", "a@b.com")]

    def test_spans_sorted_and_disjoint(self):
        d = doc("a@b.com then 10.0.0.1 then (555) 123-4567 then c@d.net end")
        spans = tag_pii(d)
        kinds = [p.kind for p in spans]
        assert kinds == ["email", "ip", "phone", "email"]
        for prev, cur in zip(spans, spans[1:]):
            assert prev.span.end <= cur.span.start

    def test_attribute_names(self):
        d = doc("mail a@b.com and ping 10.0.0.1 soon")
        attrs = pii_attributes(d)
        assert set(attrs) == {"pii__email", "pii__ip"}


class TestDetectorOracle:
    """Screens and the @-anchored email matcher against plain finditer."""

    @settings(max_examples=1000, deadline=None)
    @given(pii_texts)
    def test_email_spans_match_regex(self, text):
        assert _email_spans(text) == raw_spans(reference_char_matches(text), "email")

    @settings(max_examples=500, deadline=None)
    @given(pii_texts)
    def test_each_detector_matches_regex(self, text):
        found, expected = _char_matches(text), reference_char_matches(text)
        for kind in ("email", "phone", "ip"):
            assert raw_spans(found, kind) == raw_spans(expected, kind)

    @settings(max_examples=500, deadline=None)
    @given(pii_texts)
    def test_tag_pii_matches_reference(self, text):
        assert tag_pii(doc(text)) == reference_tag_pii(doc(text))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "@",
            "@abc ",
            "abc@",
            "x y@",
            "..@x.y ",
            ".@.@abc ",
            "10.0.0.1a@b.com ",
            "10.0.0.1 a@b.com",
            "(a@b.c) d@e.f.",
            "a@b a@b a@b",
            "a@b@c d",
            "a@b.\u3000\x1cc@d",
            "call ٣٣٣-٣٣٣-٣٣٣٣ now",
            "at 1.25.0.9 or 255.255.255.2555",
        ],
    )
    def test_explicit_cases(self, text):
        expected = reference_char_matches(text)
        assert _email_spans(text) == raw_spans(expected, "email")
        assert tag_pii(doc(text)) == reference_tag_pii(doc(text))

    def test_email_right_after_ip(self):
        d = doc("host 10.0.0.1 a@b.com up")
        assert span_texts(d, tag_pii(d)) == [("ip", "10.0.0.1"), ("email", "a@b.com")]
        # with no space between, the email's local part takes the address in
        d = doc("host 10.0.0.1a@b.com up")
        assert span_texts(d, tag_pii(d)) == [("email", "10.0.0.1a@b.com")]

    def test_largest_group_start_in_leading_punctuation(self):
        # the greedy prefix gives back one "." so the group starts there
        assert _email_spans("..@x.y ") == [(1, 6)]

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_LINES))
    def test_whitespace_free_line_is_fast(self, name):
        d = doc(ADVERSARIAL_LINES[name])
        start = time.perf_counter()
        tag_pii(d)
        assert time.perf_counter() - start < 1.0


class TestTagCommand:
    def test_long_line_sidecar_matches_oracle(self, tmp_path):
        text = (
            "mail a@b.com or 10.0.0.1\n"
            + ADVERSARIAL_LINES["letter-at"]
            + "\ncall 206-555-0123 or c@d.org"
        )
        document = Document(id="long", text=text, source="s")
        shard = tmp_path / "in.jsonl"
        write_documents([document], shard)
        out = tmp_path / "attrs"
        assert main(["tag", "--inputs", str(shard), "--taggers", "pii", "--out-dir", str(out)]) == 0
        expected = pii_attributes(document, reference_tag_pii(document))
        # a@b.com, c@d.org and the run's last "a@a" (its trailer is "@\n")
        assert len(expected["pii__email"]) == 3
        assert list(read_attributes(out / "in.jsonl")) == [
            DocumentAttributes(id="long", attributes=expected)
        ]


class TestPiiPolicy:
    def test_no_spans_unchanged(self):
        d = doc("nothing sensitive here")
        decision = apply_pii_policy(d, tag_pii(d))
        assert isinstance(decision, Keep) and decision.doc.text == d.text

    def test_masking_is_byte_exact(self):
        d = doc("one a@b.com two 10.0.0.1 three")
        decision = apply_pii_policy(d, tag_pii(d))
        assert decision.doc.text == "one |||EMAIL_ADDRESS||| two |||IP_ADDRESS||| three"

    def test_exact_replacement_tokens(self):
        assert REPLACEMENT_TOKENS == {
            "email": "|||EMAIL_ADDRESS|||",
            "phone": "|||PHONE_NUMBER|||",
            "ip": "|||IP_ADDRESS|||",
        }

    def test_five_spans_masked(self):
        text = " ".join(f"u{i}@x{i}.com" for i in range(5)) + " tail"
        decision = apply_pii_policy(doc(text), tag_pii(doc(text)))
        assert isinstance(decision, Keep)
        assert decision.doc.text.count("|||EMAIL_ADDRESS|||") == 5
        assert decision.doc.text.endswith(" tail")

    def test_six_spans_dropped(self):
        text = " ".join(f"u{i}@x{i}.com" for i in range(6)) + " tail"
        decision = apply_pii_policy(doc(text), tag_pii(doc(text)))
        assert decision == Drop("pii_density")

    def test_reddit_mode_any_span_drops(self):
        d = doc("just one a@b.com here")
        config = ContentTagConfig(reddit_mode=True)
        assert isinstance(apply_pii_policy(d, tag_pii(d), config), Drop)
        clean = doc("no pii at all")
        assert isinstance(apply_pii_policy(clean, tag_pii(clean), config), Keep)

    def test_retagging_masked_text_finds_nothing(self):
        d = doc("mail a@b.com or call (206) 555-0123 or ping 10.0.0.1 now")
        decision = apply_pii_policy(d, tag_pii(d))
        assert tag_pii(decision.doc) == []

    def test_bytes_outside_spans_preserved(self):
        text = "prefix✓ a@b.com suffix✓"
        d = doc(text)
        decision = apply_pii_policy(d, tag_pii(d))
        assert decision.doc.text == "prefix✓ |||EMAIL_ADDRESS||| suffix✓"

    def test_policy_monotone_in_span_count(self):
        # once the density rule drops a document, more PII never un-drops it
        dropped = False
        for k in range(0, 10):
            text = " ".join(f"u{i}@x{i}.com" for i in range(k)) + " end"
            d = doc(text)
            decision = apply_pii_policy(d, tag_pii(d))
            if dropped:
                assert isinstance(decision, Drop)
            elif isinstance(decision, Drop):
                dropped = True
        assert dropped

    def test_replacement_tokens_never_nest(self):
        d = doc("a@b.com 10.0.0.1 (206) 555-0123 x@y.org 10.0.0.2")
        decision = apply_pii_policy(d, tag_pii(d))
        text = decision.doc.text
        assert text == (
            "|||EMAIL_ADDRESS||| |||IP_ADDRESS||| |||PHONE_NUMBER||| "
            "|||EMAIL_ADDRESS||| |||IP_ADDRESS|||"
        )


class TestConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            ContentTagConfig(toxicity_threshold=1.5)
        with pytest.raises(ValueError):
            ContentTagConfig(hate_threshold=-0.1)

    def test_defaults(self):
        config = ContentTagConfig()
        assert config.toxicity_threshold == 0.4
        assert not config.reddit_mode
