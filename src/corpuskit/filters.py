"""Declarative filter expressions: drop, trim, or transform documents.

A :class:`FilterExpr` compares a named attribute against a threshold and
either drops the whole document or removes/replaces the matching spans.
Document-scope comparisons use the maximum span score for the attribute;
span-scope expressions act on each matching span. An attribute a record
does not carry matches nothing, because sparse taggers leave attributes
absent on clean documents.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Sequence, Union

from corpuskit.documents import AttributeSpan, Document, DocumentAttributes

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "=": operator.eq,
}

_ACTIONS = ("drop_doc", "remove_span", "replace_span")
_SCOPES = ("document", "span")


class FilterConfigError(ValueError):
    pass


class SpanBoundsError(ValueError):
    pass


@dataclass(frozen=True)
class FilterExpr:
    attribute: str
    scope: str
    op: str
    threshold: float
    action: str
    replacement: str | None = None

    def __post_init__(self) -> None:
        if self.scope not in _SCOPES:
            raise FilterConfigError(f"scope must be one of {_SCOPES}, got {self.scope!r}")
        if self.op not in _OPS:
            raise FilterConfigError(f"unknown comparator {self.op!r}")
        if math.isnan(self.threshold):  # it matches no score; -inf and inf are kept (PII_MASK_FILTERS uses -inf)
            raise FilterConfigError(f"filter threshold for {self.attribute!r} must not be NaN")
        if self.action not in _ACTIONS:
            raise FilterConfigError(f"unknown action {self.action!r}")
        if self.action == "drop_doc" and self.scope != "document":
            raise FilterConfigError("drop_doc requires document scope")
        if self.action in ("remove_span", "replace_span") and self.scope != "span":
            raise FilterConfigError(f"{self.action} requires span scope")
        if self.action == "replace_span" and self.replacement is None:
            raise FilterConfigError("replace_span requires a replacement string")

    def matches(self, score: float) -> bool:
        return _OPS[self.op](score, self.threshold)

    def drops(self, attrs: DocumentAttributes) -> bool:
        """Whether this is a document-scope expression that drops a document
        with ``attrs``: its attribute's maximum span score matches."""
        if self.scope != "document":
            return False
        spans = attrs.attributes.get(self.attribute)
        return bool(spans) and self.matches(max(sp.score for sp in spans))

    @classmethod
    def from_json(cls, obj: dict) -> "FilterExpr":
        return cls(
            attribute=obj["attribute"],
            scope=obj["scope"],
            op=obj["op"],
            threshold=float(obj["threshold"]),
            action=obj["action"],
            replacement=obj.get("replacement"),
        )


@dataclass(frozen=True)
class Keep:
    doc: Document


@dataclass(frozen=True)
class Drop:
    reason: str


Decision = Union[Keep, Drop]


def merge_spans(spans: Sequence[AttributeSpan]) -> list[AttributeSpan]:
    """Union of intervals; overlapping and adjacent spans merge.

    The merged span carries the maximum score of its members.
    """
    if not spans:
        return []
    ordered = sorted(spans, key=lambda sp: (sp.start, sp.end))
    merged = [ordered[0]]
    for span in ordered[1:]:
        last = merged[-1]
        if span.start <= last.end:
            merged[-1] = AttributeSpan(
                last.start, max(last.end, span.end), max(last.score, span.score)
            )
        else:
            merged.append(span)
    return merged


def _heal_separators(data: bytes, removals: list[AttributeSpan]) -> list[AttributeSpan]:
    # A removal that consumed a full line would leave two adjacent newlines
    # (or a dangling one at a text edge); swallow one separator with it.
    healed = []
    for span in removals:
        start, end = span.start, span.end
        left_edge = start == 0 or data[start - 1 : start] == b"\n"
        right_edge = end == len(data) or data[end : end + 1] == b"\n"
        if left_edge and right_edge and not (start == 0 and end == len(data)):
            if end < len(data):
                end += 1
            elif start > 0:
                start -= 1
        healed.append(AttributeSpan(start, end, span.score))
    return merge_spans(healed)


def _check_bounds(doc: Document, span: AttributeSpan, size: int) -> None:
    if span.end > size:
        raise SpanBoundsError(
            f"span [{span.start}, {span.end}) exceeds doc {doc.id!r} of {size} bytes"
        )


def apply_filters(
    doc: Document,
    attrs: DocumentAttributes,
    exprs: Sequence[FilterExpr],
) -> Decision:
    """Evaluate filter expressions against one document.

    Document-scope drops are checked first; span-scope matches are then
    spliced out of (or replaced in) the text. Removal intervals are merged;
    a replacement whose span falls inside a removed region is subsumed by
    the removal. A document whose text ends up empty is dropped with reason
    "emptied".
    """
    if attrs.id != doc.id:
        raise ValueError(f"attributes for {attrs.id!r} applied to doc {doc.id!r}")
    data = doc.text_bytes
    size = len(data)

    removals: list[AttributeSpan] = []
    replacements: list[tuple[AttributeSpan, bytes]] = []
    for expr in exprs:
        if expr.scope == "document":
            if expr.drops(attrs):
                return Drop(expr.attribute)
        else:
            for span in attrs.attributes.get(expr.attribute, ()):
                if not expr.matches(span.score):
                    continue
                _check_bounds(doc, span, size)
                if expr.action == "remove_span":
                    removals.append(span)
                else:
                    replacements.append((span, expr.replacement.encode("utf-8")))

    if not removals and not replacements:
        return Keep(doc)

    removals = _heal_separators(data, merge_spans(removals)) if removals else []
    edits: list[tuple[int, int, bytes]] = [(sp.start, sp.end, b"") for sp in removals]
    for span, token in sorted(replacements, key=lambda pair: (pair[0].start, pair[0].end)):
        if any(r.start <= span.start and span.end <= r.end for r in removals):
            continue  # subsumed by a removal
        if any(s < span.end and span.start < e for s, e, _ in edits):
            continue  # first edit wins on partial overlap
        edits.append((span.start, span.end, token))
    edits.sort()

    pieces = []
    pos = 0
    for start, end, payload in edits:
        pieces.append(data[pos:start])
        pieces.append(payload)
        pos = end
    pieces.append(data[pos:])
    new_text = b"".join(pieces).decode("utf-8")
    if not new_text:
        return Drop("emptied")
    if new_text == doc.text:
        return Keep(doc)
    return Keep(replace(doc, text=new_text, metadata=dict(doc.metadata), extra=dict(doc.extra)))
