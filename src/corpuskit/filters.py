"""Declarative filter expressions: drop, trim, or transform documents.

A :class:`FilterExpr` compares a named attribute against a threshold and
either drops the whole document or removes/replaces the matching spans.
Document-scope comparisons use the maximum span score for the attribute;
span-scope expressions act on each matching span. An attribute a record
does not carry matches nothing, because sparse taggers leave attributes
absent on clean documents.

Every JSON configuration object (a filter, a mix stream, the mix config, a
tagger spec and a tagger's params) is read through :class:`ConfigObject`,
which checks each value against ``JSON_KINDS`` and refuses a key that
nothing reads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the kinds of value a key of a JSON configuration may take, each with its
# test: a number is an int or a float and an integer an int, neither a boolean
JSON_KINDS: dict[str, Callable[[object], bool]] = {
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "a number": _is_number,
    "an integer": lambda v: type(v) is int,
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(item, str) for item in v),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(item, dict) for item in v),
    "an object": lambda v: isinstance(v, dict),
    "an object of numbers": lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
    "an object of integers": lambda v: isinstance(v, dict) and all(type(n) is int for n in v.values()),
}


class ConfigObject(dict):
    """A JSON object of configuration that notes each key read by :meth:`take`,
    ``[]`` or ``get``; ``name`` names its reader and ``noun`` its keys in the
    ``error`` it raises for anything but a JSON object or an unread key."""

    def __init__(self, obj, error: type[ValueError], name: str, noun: str = "keys") -> None:
        if not isinstance(obj, dict):
            raise error(f"{name} needs a JSON object, got {obj!r}")
        super().__init__(obj)
        self.error, self.name, self.noun, self.read = error, name, noun, set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def take(self, key: str, kind: str, default=...):
        """``self[key]``, or ``default``, if one is given, when it is absent
        or null; any other value not of ``kind``, a key of ``JSON_KINDS``,
        raises the object's error naming the key."""
        value = self.get(key)
        if value is None and default is not ...:
            return default
        if not JSON_KINDS[kind](value):
            raise self.error(f"{key!r} must be {kind}, got {value!r}")
        return value

    def refuse_unread(self) -> None:
        """Raise the object's error naming every key that was never read."""
        unread = sorted(self.keys() - self.read)
        if unread:
            raise self.error(f"{self.name} does not read {self.noun} {', '.join(map(repr, unread))}")


# each key of a filter's JSON object and the kind of its value
_FILTER_KEYS = {
    "attribute": "a string",
    "scope": "a string",
    "op": "a string",
    "threshold": "a number",
    "action": "a string",
    "replacement": "a string or null",
}


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
        """The filter a JSON object describes; a missing, mistyped or unread
        key raises :class:`FilterConfigError` naming the key."""
        obj = ConfigObject(obj, FilterConfigError, "a filter")
        values = {key: obj.take(key, kind) for key, kind in _FILTER_KEYS.items()}
        obj.refuse_unread()
        values["threshold"] = float(values["threshold"])
        return cls(**values)


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
