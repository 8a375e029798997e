"""Shard-parallel tagging and the staged web curation pipeline.

Taggers are pure functions from a document to named span lists, looked up
by name in a registry; custom taggers (e.g. a code-secret scanner) can be
registered at runtime. A :class:`~corpuskit.shard_io.ChunkTagger` also
tags a chunk of documents in one call, which the classifier taggers use to
score the sentences or paragraphs of many documents in one batch; every
tagging run goes through :func:`corpuskit.shard_io.tagged`, which hands
out chunks of consecutive documents. Tagging parallelizes across shards
with one sidecar file per input shard; attribute bytes are independent of
worker count and chunking.
:func:`run_tag` returns a ``StageReport`` and :func:`tag_report_json` renders it.

The web pipeline runs the fixed stage order on each shard: URL dedup,
document dedup, quality/content filtering, and paragraph dedup last, with
one ``StageReport`` per stage; with a Bloom backend, each dedup stage's
report carries its filter's health. The stages overlap across shards: the
job's process dedups shard after shard while the workers filter the shards
already deduped, and it dedups each shard's paragraphs once that shard and
every shard before it are filtered, so each dedup filter sees its keys in
input order and the outputs do not depend on worker count. The quality stage tags as a cascade, through
the gate of ``tagged``: PII density, then the gopher, c4, repetition,
language and toxicity taggers, in the order of their filters, each seeing
only the documents no earlier filter drops, so a document's drop reason
is the first match of all its filters and the models score only the
documents they can still decide.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from corpuskit import code_rules, heuristics
from corpuskit.bloom import DEFAULT_N_TARGET, DEFAULT_P_TARGET, BloomFilter, check_target, make_backend
from corpuskit.dedupe import (
    DOC_DUPLICATE,
    PARAGRAPH_DUPLICATE,
    URL_DUPLICATE,
    dedupe_by_document,
    dedupe_by_paragraph,
    dedupe_by_url,
)
from corpuskit.documents import AttributeSpan, Document, DocumentAttributes
from corpuskit.filters import Decision, Drop, FilterExpr, apply_filters
from corpuskit.gopher import tag_gopher
from corpuskit.ngram_classifier import (
    ENGLISH_KEEP_THRESHOLD,
    load_model,
    score_english,
    score_language_paragraph_avg_many,
)
from corpuskit.pii import (
    MAX_SPANS_FOR_MASKING,
    PII_MASK_FILTERS,
    TOXICITY_HIGH_THRESHOLD,
    ContentTagConfig,
    apply_pii_policy,
    pii_attributes,
    tag_pii,
)
from corpuskit.shard_io import (
    ChunkTagger,
    ShardPool,
    StageReport,
    TaggerFn,
    output_paths,
    read_documents,
    tagged,
    write_attributes,
    write_documents,
)
from corpuskit.toxicity import tag_toxicity_many


class TaggerConfigError(ValueError):
    pass


class UnknownTaggerError(TaggerConfigError):
    pass


def _language_tagger(params: dict) -> TaggerFn:
    model = load_model(params["model"])

    def tag(doc: Document) -> dict[str, list[AttributeSpan]]:
        end = doc.text_size
        attrs = {"lang__en": [AttributeSpan(0, end, score_english(model, doc.text))]}
        return attrs

    return tag


def _language_paragraph_tagger(params: dict) -> TaggerFn:
    model = load_model(params["model"])

    def tag_many(docs: list[Document]) -> list[dict[str, list[AttributeSpan]]]:
        results = score_language_paragraph_avg_many(model, [doc.text for doc in docs])
        out = []
        for doc, result in zip(docs, results):
            end = doc.text_size
            attrs = {"lang__en_paragraph": [AttributeSpan(0, end, result.score)]}
            if result.degenerate:
                attrs["lang__degenerate"] = [AttributeSpan(0, end, 1.0)]
            out.append(attrs)
        return out

    return ChunkTagger(tag_many)


def _toxicity_tagger(params: dict) -> TaggerFn:
    hate = load_model(params["hate_model"]) if params.get("hate_model") else None
    nsfw = load_model(params["nsfw_model"]) if params.get("nsfw_model") else None
    config = ContentTagConfig(
        toxicity_threshold=params.get("threshold", ContentTagConfig().toxicity_threshold),
        hate_threshold=params.get("hate_threshold"),
        nsfw_threshold=params.get("nsfw_threshold"),
    )
    return ChunkTagger(lambda docs: tag_toxicity_many(docs, hate, nsfw, config))


def _reddit_quality_tagger(params: dict) -> TaggerFn:
    if "blocklist" in params:
        raise TaggerConfigError(
            "reddit_quality takes no blocklist; ban subreddits with the banned_subreddit tagger"
        )
    return heuristics.tag_reddit_quality


def _banned_subreddit_tagger(params: dict) -> TaggerFn:
    blocklist = heuristics.load_subreddit_blocklist(params["blocklist"])
    return lambda doc: heuristics.tag_banned_subreddit(doc, blocklist)


def _extension_tagger(params: dict) -> TaggerFn:
    blocklist = frozenset(
        e.lower() for e in params.get("blocklist", code_rules.DEFAULT_BLOCKED_EXTENSIONS)
    )
    return lambda doc: code_rules.tag_extension_filter(doc, blocklist)


_REGISTRY: dict[str, Callable[[dict], TaggerFn]] = {
    "gopher": lambda params: tag_gopher,
    "c4": lambda params: heuristics.tag_c4_nopunc,
    "repetition": lambda params: heuristics.tag_repetition,
    "wiki_short": lambda params: heuristics.tag_wiki_min_words,
    "reddit_quality": _reddit_quality_tagger,
    "banned_subreddit": _banned_subreddit_tagger,
    "code_rpj": lambda params: code_rules.tag_code_rpj,
    "code_starcoder": lambda params: code_rules.tag_code_starcoder,
    "extension": _extension_tagger,
    "pii": lambda params: pii_attributes,
    "language": _language_tagger,
    "language_paragraph": _language_paragraph_tagger,
    "toxicity": _toxicity_tagger,
}


def register_tagger(name: str, factory: Callable[[dict], TaggerFn]) -> None:
    """Plug in a custom tagger (e.g. a code-secret scanner)."""
    _REGISTRY[name] = factory


class _ReadParams(dict):
    """Tagger params that note each key a tagger factory reads."""

    def __init__(self, params: dict) -> None:
        super().__init__(params)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def build_tagger(name: str, params: dict | None = None) -> TaggerFn:
    """Build a registered tagger; a param its factory does not read is an error."""
    if name not in _REGISTRY:
        raise UnknownTaggerError(f"unknown tagger {name!r}; known: {sorted(_REGISTRY)}")
    params = _ReadParams(params or {})
    tagger = _REGISTRY[name](params)
    unread = sorted(params.keys() - params.read)
    if unread:
        raise TaggerConfigError(f"tagger {name!r} does not read params {', '.join(map(repr, unread))}")
    return tagger


def _tag_one_shard(doc_path: str, out_path: str, specs: list[tuple[str, dict]]) -> StageReport:
    taggers = [build_tagger(name, params) for name, params in specs]
    report = StageReport(stage="tag")

    def records():
        for doc, attrs in tagged(read_documents(doc_path), taggers):
            report.input_text_bytes += doc.text_size
            yield report.flag(attrs)

    write_attributes(records(), out_path)
    return report


def run_tag(
    doc_paths: list[str],
    tagger_specs: list[tuple[str, dict]],
    out_dir: str,
    workers: int = 1,
) -> StageReport:
    """Tag every shard, writing one sidecar per input shard (same name)."""
    outputs = output_paths(doc_paths, out_dir)
    started = time.monotonic()
    report = StageReport(stage="tag")
    with ShardPool(workers, out_dir=out_dir) as pool:
        tasks = [(str(p), str(o), tagger_specs) for p, o in zip(doc_paths, pool.staged(outputs))]
        for shard_report in pool.map(_tag_one_shard, tasks):
            report.merge(shard_report)
    report.wall_seconds = time.monotonic() - started
    return report


def tag_report_json(report: StageReport) -> dict:
    """The ``tag`` report: per attribute, the documents it flags and the
    bytes its merged spans cover, also as percentages of the documents and
    UTF-8 text bytes tagged (the units of the curation reports)."""
    docs, text_bytes, wall = report.input_docs, report.input_text_bytes, report.wall_seconds
    attrs = {}
    for name in sorted(report.flagged_docs):
        flagged, covered = report.flagged_docs[name], report.flagged_bytes[name]
        attrs[name] = {
            "documents": flagged,
            "documents_pct": 100.0 * flagged / docs if docs else 0.0,
            "characters": covered,
            "characters_pct": 100.0 * covered / text_bytes if text_bytes else 0.0,
        }
    return {
        "total_documents": docs,
        "total_text_bytes": text_bytes,
        "attributes": attrs,
        "wall_seconds": wall,
        "docs_per_second": docs / wall if wall else 0.0,
    }


@dataclass
class WebPipelineConfig:
    inputs: list[str]
    out_dir: str
    bloom_n: int = DEFAULT_N_TARGET
    bloom_p: float = DEFAULT_P_TARGET
    seed: int = 0
    exact_backend: bool = False
    language_model: str | None = None
    hate_model: str | None = None
    nsfw_model: str | None = None
    toxicity_threshold: float = TOXICITY_HIGH_THRESHOLD
    workers: int = 1

    def __post_init__(self) -> None:
        # a bad value fails here, before any stage has run
        ContentTagConfig(toxicity_threshold=self.toxicity_threshold)
        if not self.exact_backend:
            check_target(self.bloom_n, self.bloom_p)


QUALITY_DROP_FILTERS = [
    FilterExpr("gopher__matches_any", "document", ">=", 1.0, "drop_doc"),
    FilterExpr("c4__no_punc_fraction", "document", ">", 0.5, "drop_doc"),
    FilterExpr("repetition__run", "document", ">", float(heuristics.MAX_TOKEN_REPETITIONS), "drop_doc"),
]

URL_DROP_FILTER = FilterExpr(URL_DUPLICATE, "document", ">=", 1.0, "drop_doc")
DOC_DROP_FILTER = FilterExpr(DOC_DUPLICATE, "document", ">=", 1.0, "drop_doc")
PARAGRAPH_REMOVE_FILTER = FilterExpr(PARAGRAPH_DUPLICATE, "span", ">=", 1.0, "remove_span")
# the quality stage's first check: a document with more PII spans than it masks
PII_DENSITY_FILTER = FilterExpr("pii_density", "document", ">", float(MAX_SPANS_FOR_MASKING), "drop_doc")


@contextmanager
def _failing_in(stage: str, shard) -> Iterator[None]:
    """Re-raise a failure as one naming the stage and the input shard."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"stage {stage} failed on input shard {shard}: {exc}") from exc


def _pii_density_tagger(doc: Document) -> dict[str, list[AttributeSpan]]:
    """The document's PII spans and, as ``pii_density``, their count."""
    pii = tag_pii(doc)
    attrs = pii_attributes(doc, pii)
    attrs[PII_DENSITY_FILTER.attribute] = [AttributeSpan(0, doc.text_size, float(len(pii)))]
    return attrs


def _quality_content_shard(shard: str, doc_path: str, out_path: str, config: WebPipelineConfig) -> StageReport:
    report = StageReport(stage="quality_content")
    # each tagger's filters follow those of the taggers before it, so the
    # cascade's first drop is apply_filters' first match
    specs: list[tuple[str, dict]] = [("gopher", {}), ("c4", {}), ("repetition", {})]
    exprs = [PII_DENSITY_FILTER, *QUALITY_DROP_FILTERS]
    tau = config.toxicity_threshold
    if config.language_model:
        specs.append(("language", {"model": config.language_model}))
        exprs.append(FilterExpr("lang__en", "document", "<", ENGLISH_KEEP_THRESHOLD, "drop_doc"))
    if config.hate_model or config.nsfw_model:
        params = {"hate_model": config.hate_model, "nsfw_model": config.nsfw_model, "threshold": tau}
        specs.append(("toxicity", params))
        exprs.append(FilterExpr("toxicity__hate", "span", ">", tau, "remove_span"))
        exprs.append(FilterExpr("toxicity__nsfw", "span", ">", tau, "remove_span"))

    def dropped(doc: Document, attrs: DocumentAttributes) -> bool:
        return any(expr.drops(attrs) for expr in exprs)

    def decide(doc: Document, attrs: DocumentAttributes) -> Decision:
        # PII density is judged on the original text. Sparse spans are
        # masked after the toxic sentence splice, in a second
        # apply_filters pass: the record's own PII spans when the splice
        # left the text as it was, and otherwise those of the edited text,
        # tagged again so that their offsets match it
        decision = apply_filters(doc, attrs, exprs)
        if isinstance(decision, Drop):
            return decision
        edited = decision.doc
        if edited is doc:
            return apply_filters(doc, attrs, PII_MASK_FILTERS)
        return apply_pii_policy(edited, tag_pii(edited))

    with _failing_in("quality_content", shard):
        taggers = [_pii_density_tagger, *(build_tagger(name, params) for name, params in specs)]
        pairs = tagged(read_documents(doc_path), taggers, dropped)
        write_documents(report.kept(decide(doc, attrs) for doc, attrs in pairs), out_path)
    return report


def run_pipeline_web(config: WebPipelineConfig) -> list[StageReport]:
    """URL and document dedup, then quality/content filtering, and finally
    paragraph dedup. Every stage writes one shard per input shard. The
    final shards are named like their inputs, so inputs sharing a basename
    are rejected before any stage; the stage files in between are plain
    ``<index>.jsonl`` in the scope's staging directory, never compressed,
    since the run deletes them. A failure names its stage and input shard.

    The stages overlap: this process runs URL and document dedup shard by
    shard, submitting each shard's quality task as soon as its dedup file
    is written, and then runs each shard's paragraph dedup as soon as the
    quality tasks of that shard and every shard before it are done. Each
    dedup filter still sees its keys in input order."""
    final_paths = output_paths(config.inputs, config.out_dir)
    url_report = StageReport(stage="url_dedup")
    doc_report = StageReport(stage="doc_dedup")
    quality_report = StageReport(stage="quality_content")
    para_report = StageReport(stage="paragraph_dedup")

    new_backend = partial(
        make_backend, config.exact_backend, n_target=config.bloom_n, p_target=config.bloom_p, seed=config.seed
    )

    # the quality tasks come from a generator, whose length the pool cannot
    # see, so a single shard's task is kept in process here
    workers = min(config.workers, len(final_paths))
    with ShardPool(workers, ".stage-dedup", ".stage-quality", out_dir=config.out_dir) as pool:
        dedup_dir, quality_dir = pool.temp_dirs
        url_backend = new_backend()
        doc_backend = new_backend()
        quality_paths = [quality_dir / f"{i}.jsonl" for i in range(len(final_paths))]

        def quality_tasks() -> Iterator[tuple]:
            # Dedup inserts are order-sensitive, so stages 1-2 run here, shard by shard.
            for i, (shard, dst) in enumerate(zip(config.inputs, quality_paths)):
                src = dedup_dir / f"{i}.jsonl"
                with _failing_in("url_dedup/doc_dedup", shard):
                    by_url = dedupe_by_url(read_documents(shard), url_backend)
                    url_unique = url_report.kept(apply_filters(d, a, [URL_DROP_FILTER]) for d, a in by_url)
                    by_doc = dedupe_by_document(url_unique, doc_backend)
                    write_documents(doc_report.kept(apply_filters(d, a, [DOC_DROP_FILTER]) for d, a in by_doc), src)
                yield str(shard), str(src), str(dst), config

        quality_reports = pool.stream(_quality_content_shard, quality_tasks())
        para_backend = new_backend()
        # Paragraph dedup runs last; duplicate paragraphs are spliced out and
        # documents emptied by the splice are dropped.
        for shard, src, dst in zip(config.inputs, quality_paths, pool.staged(final_paths)):
            quality_report.merge(next(quality_reports))
            with _failing_in("paragraph_dedup", shard):
                flagged = dedupe_by_paragraph(read_documents(src), para_backend)
                survivors = (apply_filters(d, a, [PARAGRAPH_REMOVE_FILTER]) for d, a in flagged)
                write_documents(para_report.kept(survivors), dst)

    for report, backend in ((url_report, url_backend), (doc_report, doc_backend), (para_report, para_backend)):
        if isinstance(backend, BloomFilter):
            report.bloom = backend.health()
    return [url_report, doc_report, quality_report, para_report]
