"""Rule-based sentence splitting.

A sentence boundary falls after a terminal character (``.``, ``!``, ``?``)
plus at least one space or tab when the next character is uppercase or an
opening quote/bracket, and after every newline. Segments that contain no
non-whitespace characters are not sentences and are dropped; trailing
whitespace stays attached to the preceding sentence.
"""

from __future__ import annotations

import re
from typing import Iterator

from corpuskit.documents import AttributeSpan, char_spans_to_byte_spans

_OPENERS = frozenset("\"'([{“‘")
# a boundary candidate: a newline, or a terminal and the spaces and tabs after it
_CANDIDATE = re.compile(r"\n|[.!?][ \t]+")


def _boundaries(text: str) -> Iterator[int]:
    """The end of every newline, and of every terminal-plus-blanks run that
    an uppercase character or an opener follows."""
    n = len(text)
    for match in _CANDIDATE.finditer(text):
        end = match.end()
        if text[end - 1] == "\n" or (end < n and (text[end].isupper() or text[end] in _OPENERS)):
            yield end


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
