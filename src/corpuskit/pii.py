"""PII detection and masking policy: email addresses, phone numbers, IPv4.

Regex-only detection; model-based detectors are out of scope. Detection is
linear in the text length. Each detector first screens the text for a
character sequence its pattern needs (an ``@`` for email, three digits in
a row for phone, a digit, a ``.`` and a digit for IPv4) and skips texts
without one. Emails are matched from each ``@`` outwards by
``_email_spans``, which gives the spans of the source email regex (kept in
the tests as the oracle) on the text plus a virtual trailing newline,
without its quadratic retries.

Documents with five or fewer PII spans (``MAX_SPANS_FOR_MASKING``, a
constant of the policy) get each span replaced by a special token; denser
documents are removed outright. Reddit-style short documents are removed
on any PII hit instead of masked (``ContentTagConfig.reddit_mode``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from corpuskit.documents import (
    AttributeSpan,
    Document,
    DocumentAttributes,
    char_spans_to_byte_spans,
)
from corpuskit.filters import Decision, Drop, FilterExpr, Keep, apply_filters

# The source patterns miss a match at position 0 (phone wants preceding
# whitespace) and at end-of-text (email wants a trailing whitespace), so the
# phone pattern accepts start-of-text as its boundary and _email_spans
# matches on the text plus a virtual trailing newline; no email span can
# reach that newline, since the domain stops at whitespace. The source email
# pattern,
#   [.\s@,?!;:)(]*([^\s@]+@[^\s@,?!;:)(]+?)[.\s@,?!;:)(]?[\s\n\r]
# retries its left part from every start in a whitespace-free run, which is
# quadratic in the run's length; _email_spans splits it at the "@" instead.
# The phone pattern (tried only at the start of the text or after
# whitespace) and the IP pattern (at most 15 characters) are linear as is.
PHONE_PATTERN = re.compile(r"(?:^|(?<=\s))\(?(\d{3})\)?[-\. ]*(\d{3})[-. ]?(\d{4})")
IP_PATTERN = re.compile(
    r"(?:(?:25[0-5]|2[0-4][0-9]|[01]?[0-9]{1,2})\.){3}(?:25[0-5]|2[0-4][0-9]|[01]?[0-9]{1,2})"
)

# Screens: a phone number has three digits in a row and an IPv4 address a
# digit, a "." and a digit. \d matches every Unicode digit, so each screen
# passes every text its pattern can match in.
_PHONE_SCREEN = re.compile(r"\d\d\d")
_IP_SCREEN = re.compile(r"\d\.\d")

# The pieces of the email pattern: the right part after the "@" (the lazy
# domain, then an optional trailer character and a whitespace), the leading
# punctuation-or-space run, and the last whitespace before a position.
_EMAIL_RIGHT = re.compile(r"([^\s@,?!;:)(]+?)[.\s@,?!;:)(]?\s")
_EMAIL_PREFIX_RUN = re.compile(r"[.\s@,?!;:)(]*")
_LAST_SPACE = re.compile(r".*\s", re.DOTALL)

REPLACEMENT_TOKENS = {
    "email": "|||EMAIL_ADDRESS|||",
    "phone": "|||PHONE_NUMBER|||",
    "ip": "|||IP_ADDRESS|||",
}

PII_ATTRIBUTE_NAMES = {
    "email": "pii__email",
    "phone": "pii__phone",
    "ip": "pii__ip",
}

# every PII span is masked, whatever its score
PII_MASK_FILTERS = [
    FilterExpr(PII_ATTRIBUTE_NAMES[kind], "span", ">", float("-inf"), "replace_span", token)
    for kind, token in REPLACEMENT_TOKENS.items()
]

MAX_SPANS_FOR_MASKING = 5

TOXICITY_HIGH_THRESHOLD = 0.4


@dataclass
class ContentTagConfig:
    toxicity_threshold: float = TOXICITY_HIGH_THRESHOLD
    hate_threshold: float | None = None  # per-model overrides of the shared tau
    nsfw_threshold: float | None = None
    reddit_mode: bool = False  # remove the document instead of masking

    def __post_init__(self) -> None:
        for tau in (self.toxicity_threshold, self.hate_threshold, self.nsfw_threshold):
            if tau is not None and not 0.0 <= tau <= 1.0:
                raise ValueError(f"toxicity threshold must be in [0, 1], got {tau}")


@dataclass(frozen=True)
class PiiSpan:
    kind: str  # email | phone | ip
    span: AttributeSpan


def _email_spans(text: str) -> list[tuple[int, int]]:
    """The (start(1), end(1)) spans ``finditer`` of the source email pattern
    gives on ``text + "\n"``, found in time linear in the text length.

    The local part of a match is a run of non-space, non-"@" characters that
    ends at an "@" whose right part matches, so the valid group starts are
    the union of ``[first, at)`` over those "@"s, where ``first`` follows
    the last whitespace or "@" before ``at``. A match ends in whitespace,
    and no "@" after its own has a right part that matches (the domain holds
    no "@", and an "@" in the trailer is followed by whitespace), so the
    search after it starts at or before the next ``first``. From there the
    regex's greedy prefix runs over punctuation and space, then backtracks
    to the largest valid group start no further right than the run's end.
    """
    padded = text + "\n"
    anchors: list[tuple[int, int, int]] = []  # first, at, group end
    prev = -1
    at = padded.find("@")
    while at != -1:
        right = _EMAIL_RIGHT.match(padded, at + 1)
        if right:
            space = _LAST_SPACE.match(padded, prev + 1, at)
            first = space.end() if space else prev + 1
            if first < at:
                anchors.append((first, at, right.end(1)))
        prev = at
        at = padded.find("@", at + 1)

    spans: list[tuple[int, int]] = []
    run_end = -1  # end of the prefix run holding the last first looked at
    k = 0
    while k < len(anchors):
        first = anchors[k][0]
        if first > run_end:
            run_end = _EMAIL_PREFIX_RUN.match(padded, first).end()
        k += 1
        while k < len(anchors) and anchors[k][0] <= run_end:
            k += 1
        _, at, group_end = anchors[k - 1]
        spans.append((min(run_end, at - 1), group_end))
    return spans


def _char_matches(text: str) -> list[tuple[int, int, str]]:
    found: list[tuple[int, int, str]] = []
    if "@" in text:
        found.extend((start, end, "email") for start, end in _email_spans(text))
    if _PHONE_SCREEN.search(text):
        found.extend((m.start(), m.end(), "phone") for m in PHONE_PATTERN.finditer(text))
    if _IP_SCREEN.search(text):
        found.extend((m.start(), m.end(), "ip") for m in IP_PATTERN.finditer(text))
    return found


def tag_pii(doc: Document) -> list[PiiSpan]:
    """Find PII spans, deterministic left-to-right, non-overlapping.

    Matches from different detectors that overlap are resolved by earliest
    start (longer match winning a tie), so a span never nests in another.
    """
    found = _char_matches(doc.text)
    if not found:
        return []
    candidates = sorted(found, key=lambda m: (m[0], -m[1]))
    kept: list[tuple[int, int, str]] = []
    last_end = 0
    for start, end, kind in candidates:
        if start < last_end:
            continue
        kept.append((start, end, kind))
        last_end = end
    byte_spans = char_spans_to_byte_spans(doc.text, ((s, e, 1.0) for s, e, _ in kept))
    return [PiiSpan(kind=kind, span=span) for (_, _, kind), span in zip(kept, byte_spans)]


def pii_attributes(doc: Document, spans: list[PiiSpan] | None = None) -> dict[str, list[AttributeSpan]]:
    if spans is None:
        spans = tag_pii(doc)
    attrs: dict[str, list[AttributeSpan]] = {}
    for pii in spans:
        attrs.setdefault(PII_ATTRIBUTE_NAMES[pii.kind], []).append(pii.span)
    return attrs


def apply_pii_policy(
    doc: Document, spans: list[PiiSpan], config: ContentTagConfig | None = None
) -> Decision:
    """Mask sparse PII, drop dense PII.

    Five or fewer spans: each is replaced with its kind's special token and
    every byte outside the spans is preserved exactly. Six or more spans:
    the document is dropped. In reddit mode any span drops the document.
    """
    config = config or ContentTagConfig()
    if not spans:
        return Keep(doc)
    if config.reddit_mode:
        return Drop("pii_present")
    if len(spans) > MAX_SPANS_FOR_MASKING:
        return Drop("pii_density")

    size = doc.text_size
    pos = 0
    for pii in sorted(spans, key=lambda p: p.span.start):
        if pii.span.start < pos or pii.span.end > size:
            raise ValueError(
                f"PII span [{pii.span.start}, {pii.span.end}) does not fit doc {doc.id!r}"
            )
        pos = pii.span.end
    attrs = DocumentAttributes(id=doc.id, attributes=pii_attributes(doc, spans))
    return apply_filters(doc, attrs, PII_MASK_FILTERS)
