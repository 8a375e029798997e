import pytest

from corpuskit.documents import Document
from corpuskit.filters import Drop, Keep
from corpuskit.pii import (
    ContentTagConfig,
    REPLACEMENT_TOKENS,
    apply_pii_policy,
    pii_attributes,
    tag_pii,
)


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
        for token in REPLACEMENT_TOKENS.values():
            inner = text
            while token in inner:
                start = inner.index(token)
                inner = inner[start + len(token) :]
            # stripping tokens left-to-right never leaves a partial token
        assert "||||||" not in text


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
