"""Code-file quality rules: line shape, character mix, markup and comments.

Two rule families tagged separately so the mixer can combine them:
``rpj_code__*`` (line length, alphanumeric content) and ``starcoder__*``
(XML templates, HTML text ratio, comment density). Rules that need a file
extension read it from document metadata and stay silent when inapplicable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from corpuskit.documents import AttributeSpan, Document
from corpuskit.gopher import split_lines

MAX_LINE_LENGTH = 1000
MAX_AVG_LINE_LENGTH = 100
MIN_ALNUM_FRACTION = 0.25
MIN_ALPHA_TOKEN_RATIO = 1.5

MAX_HTML_TEXT_RATIO = 0.2
MIN_COMMENT_RATIO = 0.01
MAX_COMMENT_RATIO = 0.8

XML_TEMPLATE_MARKER = "<?xml version="
XML_SNIFF_CHARS = 100

HTML_EXTENSIONS = frozenset({"html", "htm"})
HASH_COMMENT_EXTENSIONS = frozenset({"py"})
SLASH_COMMENT_EXTENSIONS = frozenset({"java", "js"})

DEFAULT_BLOCKED_EXTENSIONS = frozenset(
    {"json", "json5", "jsonld", "jsoniq", "csv", "svg", "asm", "s"}
)

_TAG_RE = re.compile(r"<[^>]*>")

# the ASCII bytes that are not alphanumeric, and those that are not
# alphabetic: deleting them from ASCII text leaves the characters counted
_ASCII_NOT_ALNUM = bytes(b for b in range(128) if not chr(b).isalnum())
_ASCII_NOT_ALPHA = bytes(b for b in range(128) if not chr(b).isalpha())


@dataclass
class CodeQualityReport:
    max_line_len: int
    avg_line_len: float
    alnum_char_fraction: float
    alpha_to_token_ratio: float


def document_extension(doc: Document) -> str | None:
    """Lowercased final dot-suffix from metadata ('extension' or 'filename')."""
    ext = doc.metadata.get("extension")
    if ext is None:
        filename = doc.metadata.get("filename")
        if filename is None or "." not in str(filename):
            return None
        ext = str(filename).rsplit(".", 1)[1]
    return str(ext).lower().lstrip(".")


def rpj_report(text: str) -> CodeQualityReport:
    lines = split_lines(text)
    max_len = max((len(ln) for ln in lines), default=0)
    avg_len = sum(len(ln) for ln in lines) / len(lines) if lines else 0.0
    if text.isascii():
        data = text.encode("ascii")
        alnum = len(data.translate(None, _ASCII_NOT_ALNUM))
        alpha = len(data.translate(None, _ASCII_NOT_ALPHA))
    else:
        alnum = sum(1 for c in text if c.isalnum())
        alpha = sum(1 for c in text if c.isalpha())
    alnum_frac = alnum / len(text) if text else 0.0
    tokens = len(text.split())
    alpha_ratio = alpha / tokens if tokens else 0.0
    return CodeQualityReport(
        max_line_len=max_len,
        avg_line_len=avg_len,
        alnum_char_fraction=alnum_frac,
        alpha_to_token_ratio=alpha_ratio,
    )


def _whole_document(
    doc: Document, family: str, scores: dict[str, float], rules: dict[str, bool]
) -> dict[str, list[AttributeSpan]]:
    """Whole-document spans: one per score, one per tripped rule, and
    ``<family>__matches_any`` when any rule tripped."""
    end = doc.text_size
    attrs = {name: [AttributeSpan(0, end, float(score))] for name, score in scores.items()}
    tripped = [name for name, hit in rules.items() if hit]
    if tripped:
        tripped.append(f"{family}__matches_any")
    for name in tripped:
        attrs[name] = [AttributeSpan(0, end, 1.0)]
    return attrs


def tag_code_rpj(doc: Document) -> dict[str, list[AttributeSpan]]:
    """Line-length and character-mix statistics with rule flags.

    Trip conditions: max line length > 1000 characters, average line length
    > 100, alphanumeric character proportion < 0.25, alphabetical characters
    per whitespace token < 1.5.
    """
    report = rpj_report(doc.text)
    scores = {
        "rpj_code__max_line_length": report.max_line_len,
        "rpj_code__avg_line_length": report.avg_line_len,
        "rpj_code__alnum_fraction": report.alnum_char_fraction,
        "rpj_code__alpha_token_ratio": report.alpha_to_token_ratio,
    }
    rules = {
        "rpj_code__rule_max_line_length": report.max_line_len > MAX_LINE_LENGTH,
        "rpj_code__rule_avg_line_length": report.avg_line_len > MAX_AVG_LINE_LENGTH,
        "rpj_code__rule_alnum_fraction": report.alnum_char_fraction < MIN_ALNUM_FRACTION,
        "rpj_code__rule_alpha_token_ratio": report.alpha_to_token_ratio < MIN_ALPHA_TOKEN_RATIO,
    }
    return _whole_document(doc, "rpj_code", scores, rules)


def html_text_ratio(text: str) -> float:
    """Visible-text bytes over total bytes after stripping <...> tags."""
    total = len(text.encode("utf-8"))
    if total == 0:
        return 0.0
    visible = _TAG_RE.sub("", text)
    return len(visible.encode("utf-8")) / total


def comment_ratio(text: str, extension: str) -> float:
    """Comment lines over non-blank lines.

    Python: lines whose first non-space character is ``#``. Java/JS: ``//``
    lines plus ``/* ... */`` block lines; a trailing comment after code on
    the same line does not count.
    """
    comment = 0
    non_blank = 0
    in_block = False
    slash_style = extension in SLASH_COMMENT_EXTENSIONS
    for line in split_lines(text):
        stripped = line.strip()
        if not stripped:
            continue
        non_blank += 1
        if slash_style:
            if in_block:
                comment += 1
                if "*/" in stripped:
                    in_block = False
                continue
            if stripped.startswith("//") or stripped.startswith("/*"):
                comment += 1
            idx = stripped.find("/*")
            if idx != -1 and "*/" not in stripped[idx:]:
                in_block = True
        else:
            if stripped.startswith("#"):
                comment += 1
    return comment / non_blank if non_blank else 0.0


def tag_code_starcoder(doc: Document) -> dict[str, list[AttributeSpan]]:
    """XML template, HTML code-to-text, and comment-density rules.

    Trip conditions: document contains XML template code; HTML text ratio
    <= 0.2 (HTML files); comment ratio <= 0.01 or > 0.8 (Python, Java,
    Javascript), the extension read from metadata. Rules for other
    extensions are inapplicable and emit nothing.
    """
    extension = document_extension(doc)
    text = doc.text
    scores: dict[str, float] = {}
    rules = {"starcoder__has_xml_template": XML_TEMPLATE_MARKER in text[:XML_SNIFF_CHARS]}
    if extension in HTML_EXTENSIONS:
        ratio = scores["starcoder__html_text_ratio"] = html_text_ratio(text)
        rules["starcoder__rule_html_text_ratio"] = ratio <= MAX_HTML_TEXT_RATIO
    if extension in HASH_COMMENT_EXTENSIONS or extension in SLASH_COMMENT_EXTENSIONS:
        ratio = scores["starcoder__comment_ratio"] = comment_ratio(text, extension)
        rules["starcoder__rule_comment_ratio"] = ratio <= MIN_COMMENT_RATIO or ratio > MAX_COMMENT_RATIO
    return _whole_document(doc, "starcoder", scores, rules)


def tag_extension_filter(
    doc: Document, blocklist: frozenset[str] = DEFAULT_BLOCKED_EXTENSIONS
) -> dict[str, list[AttributeSpan]]:
    """Flag data-heavy file extensions (JSON/CSV-family, SVG, assembly).

    Matching is case-insensitive on the final dot-suffix.
    """
    ext = document_extension(doc)
    if ext is not None and ext in blocklist:
        return {"ext__blocked": [AttributeSpan(0, doc.text_size, 1.0)]}
    return {}
