"""Rule-based sentence splitting.

A sentence boundary falls after a terminal character (``.``, ``!``, ``?``)
plus at least one space or tab when the next character is uppercase or an
opening quote/bracket, and after every newline. Segments that contain no
non-whitespace characters are not sentences and are dropped; trailing
whitespace stays attached to the preceding sentence.
"""

from __future__ import annotations

from typing import Iterable

from corpuskit.documents import AttributeSpan, char_spans_to_byte_spans

_TERMINALS = frozenset(".!?")
_OPENERS = frozenset("\"'([{“‘")


def _boundaries(text: str) -> Iterable[int]:
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch == "\n":
            yield i + 1
            i += 1
            continue
        if ch in _TERMINALS:
            j = i + 1
            while j < n and text[j] in (" ", "\t"):
                j += 1
            if j > i + 1 and j < n and (text[j].isupper() or text[j] in _OPENERS):
                yield j
                i = j
                continue
        i += 1


def split_sentences(text: str) -> list[AttributeSpan]:
    """Return byte-offset sentence spans partitioning the non-blank text."""
    if not text:
        return []
    char_spans = []
    start = 0
    for boundary in _boundaries(text):
        if text[start:boundary].strip():
            char_spans.append((start, boundary, 1.0))
        start = boundary
    if start < len(text) and text[start:].strip():
        char_spans.append((start, len(text), 1.0))
    return char_spans_to_byte_spans(text, char_spans)
