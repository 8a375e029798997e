"""PII detection and masking policy: email addresses, phone numbers, IPv4.

Regex-only detection; model-based detectors are out of scope. Documents
with five or fewer PII spans (``MAX_SPANS_FOR_MASKING``, a constant of the
policy) get each span replaced by a special token; denser documents are
removed outright. Reddit-style short documents are removed on any PII hit
instead of masked (``ContentTagConfig.reddit_mode``).
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
# phone pattern accepts start-of-text as its boundary and email matching
# runs with a virtual trailing newline.
EMAIL_PATTERN = re.compile(r"[.\s@,?!;:)(]*([^\s@]+@[^\s@,?!;:)(]+?)[.\s@,?!;:)(]?[\s\n\r]")
PHONE_PATTERN = re.compile(r"(?:^|(?<=\s))\(?(\d{3})\)?[-\. ]*(\d{3})[-. ]?(\d{4})")
IP_PATTERN = re.compile(
    r"(?:(?:25[0-5]|2[0-4][0-9]|[01]?[0-9]{1,2})\.){3}(?:25[0-5]|2[0-4][0-9]|[01]?[0-9]{1,2})"
)

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


def _char_matches(text: str) -> list[tuple[int, int, str]]:
    found: list[tuple[int, int, str]] = []
    for match in EMAIL_PATTERN.finditer(text + "\n"):
        found.append((match.start(1), match.end(1), "email"))
    for match in PHONE_PATTERN.finditer(text):
        found.append((match.start(), match.end(), "phone"))
    for match in IP_PATTERN.finditer(text):
        found.append((match.start(), match.end(), "ip"))
    return found


def tag_pii(doc: Document) -> list[PiiSpan]:
    """Find PII spans, deterministic left-to-right, non-overlapping.

    Matches from different detectors that overlap are resolved by earliest
    start (longer match winning a tie), so a span never nests in another.
    """
    candidates = sorted(_char_matches(doc.text), key=lambda m: (m[0], -m[1]))
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

    size = len(doc.text_bytes)
    pos = 0
    for pii in sorted(spans, key=lambda p: p.span.start):
        if pii.span.start < pos or pii.span.end > size:
            raise ValueError(
                f"PII span [{pii.span.start}, {pii.span.end}) does not fit doc {doc.id!r}"
            )
        pos = pii.span.end
    attrs = DocumentAttributes(id=doc.id, attributes=pii_attributes(doc, spans))
    return apply_filters(doc, attrs, PII_MASK_FILTERS)
