"""Command-line surface: tag, dedupe, decontaminate, mix, reddit-build,
train-classifier, stats, correlate, pipeline-web.

Options come from flags, optionally layered over a JSON config file given
with --config (flags win). Reports are machine-readable JSON on stdout or
at --report. Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from corpuskit import reddit_threads
from corpuskit.bloom import BloomFilter, ExactSet, bloom_load, bloom_save
from corpuskit.correlate import filter_correlation, merge_attribute_shards
from corpuskit.dedupe import (
    PARAGRAPH_DUPLICATE,
    DedupeConfigError,
    DedupeStageConfig,
    ccnet_group_dedupe,
    decontaminate_seed,
    decontaminate_tag,
    dedupe_by_document,
    dedupe_by_paragraph,
    dedupe_by_url,
    gated_paragraphs,
)
from corpuskit.documents import count_stats
from corpuskit.filters import FilterConfigError
from corpuskit.mixer import MixConfig, MixConfigError, mix
from corpuskit.ngram_classifier import (
    NgramConfig,
    TrainConfig,
    predict,
    save_model,
    train,
)
from corpuskit.pipeline import (
    TaggerConfigError,
    WebPipelineConfig,
    run_pipeline_web,
    run_tag,
)
from corpuskit.shard_io import (
    ShardNameError,
    output_paths,
    read_documents,
    write_attributes,
    write_documents,
)

logger = logging.getLogger("corpuskit")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # validation failures exit 1, not 2
        raise ValidationError(message)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        obj = json.load(f)
    if not isinstance(obj, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return obj


def _setting(args, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _emit_report(report: dict, path: str | None) -> None:
    payload = json.dumps(report, indent=2, sort_keys=False)
    if path:
        Path(path).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)


def _require(value, flag: str):
    if value in (None, [], ""):
        raise ValidationError(f"missing required option {flag}")
    return value


def _make_backend(args, config) -> BloomFilter | ExactSet:
    if _setting(args, config, "exact", False):
        return ExactSet()
    n = int(_setting(args, config, "bloom_n", 1_000_000))
    p = float(_setting(args, config, "bloom_p", 1e-4))
    seed = int(_setting(args, config, "seed", 0))
    return BloomFilter.create(n, p, seed)


def _parse_tagger_specs(raw) -> list[tuple[str, dict]]:
    specs = []
    for entry in raw:
        if isinstance(entry, str):
            specs.append((entry, {}))
        elif isinstance(entry, dict):
            specs.append((entry["name"], entry.get("params", {})))
        else:
            raise ValidationError(f"bad tagger spec {entry!r}")
    return specs


def _cmd_tag(args, config) -> int:
    inputs = _require(_setting(args, config, "inputs", None), "--inputs")
    out_dir = _require(_setting(args, config, "out_dir", None), "--out-dir")
    taggers = _setting(args, config, "taggers", [])
    if isinstance(taggers, str):
        taggers = [t for t in taggers.split(",") if t]
    specs = _parse_tagger_specs(taggers)
    workers = int(_setting(args, config, "workers", 1))
    report = run_tag(list(inputs), specs, out_dir, workers=workers)
    _emit_report(report.to_json(), args.report)
    return EXIT_OK


def _write_counted(outputs, shards) -> dict:
    """Write each input shard's attribute records to its output path and
    count the records written and the documents and paragraphs they flag."""
    counts = {"documents": 0, "flagged_documents": 0, "flagged_paragraphs": 0}

    def counted(records):
        for rec in records:
            counts["documents"] += 1
            counts["flagged_documents"] += bool(rec.attributes)
            counts["flagged_paragraphs"] += len(rec.attributes.get(PARAGRAPH_DUPLICATE, []))
            yield rec

    for out_path, records in zip(outputs, shards):
        write_attributes(counted(records), out_path)
    return counts


def _cmd_dedupe(args, config) -> int:
    inputs = _require(_setting(args, config, "inputs", None), "--inputs")
    out_dir = Path(_require(_setting(args, config, "out_dir", None), "--out-dir"))
    outputs = output_paths(inputs, out_dir)
    stage_config = DedupeStageConfig(
        stage=_require(_setting(args, config, "stage", None), "--stage"),
        min_paragraph_tokens=int(_setting(args, config, "min_paragraph_tokens", 0)),
    )
    group_bytes = _setting(args, config, "ccnet_group_bytes", None)
    save_path = _setting(args, config, "save_filter", None)
    if group_bytes is not None:
        if stage_config.stage != "paragraph":
            raise ValidationError("--ccnet-group-bytes applies to the paragraph stage only")
        if save_path:
            raise ValidationError("--save-filter does not apply to --ccnet-group-bytes, which keeps no filter")
        # one (shard, records) pair per input, in input order
        shards = (records for _, records in ccnet_group_dedupe(list(inputs), int(group_bytes)))
        report = {"stage": "paragraph", "grouping": "ccnet", "max_group_bytes": int(group_bytes)}
    else:
        backend = _make_backend(args, config)
        if save_path and isinstance(backend, ExactSet):
            raise ValidationError("--save-filter requires the bloom backend")
        stage_fn = {
            "url": dedupe_by_url,
            "document": dedupe_by_document,
            "paragraph": dedupe_by_paragraph,
        }[stage_config.stage]
        gate = {}
        if stage_config.stage == "paragraph":
            gate = {"min_paragraph_tokens": stage_config.min_paragraph_tokens}
        missing_url = 0

        def records(path):
            nonlocal missing_url
            for doc, attrs in stage_fn(read_documents(path), backend, **gate):
                if stage_config.stage == "url" and doc.metadata.get("url") is None:
                    missing_url += 1
                yield attrs

        shards = (records(path) for path in inputs)
        report = {"stage": stage_config.stage}
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = _write_counted(outputs, shards)
    if group_bytes is not None:
        report.update(documents=counts["documents"], flagged_documents=counts["flagged_documents"])
    else:
        if save_path:
            bloom_save(backend, save_path)
        report.update(counts, missing_url=missing_url)
    _emit_report(report, args.report)
    return EXIT_OK


def _cmd_decontaminate(args, config) -> int:
    inputs = _require(_setting(args, config, "inputs", None), "--inputs")
    out_dir = Path(_require(_setting(args, config, "out_dir", None), "--out-dir"))
    outputs = output_paths(inputs, out_dir)
    min_tokens = int(_setting(args, config, "min_paragraph_tokens", 13))
    load_path = _setting(args, config, "load_filter", None)
    test_sets = _setting(args, config, "test_set", None)
    save_path = _setting(args, config, "save_filter", None)
    if load_path:
        if test_sets or save_path:
            raise ValidationError("--load-filter takes a seeded filter; it excludes --test-set and --save-filter")
        seeded = bloom_load(load_path)
        if not seeded.read_only:
            raise ValidationError(f"filter {load_path} is not a seeded read-only filter")
    else:
        _require(test_sets, "--test-set")

        def test_docs():
            for path in test_sets:
                yield from read_documents(path)

        if _setting(args, config, "exact", False):
            if save_path:
                raise ValidationError("--save-filter requires the bloom backend")
            filt = ExactSet()
        else:
            # size the filter to the paragraphs the seeding gate admits
            n_keys = sum(1 for doc in test_docs() for _ in gated_paragraphs(doc, min_tokens))
            p = float(_setting(args, config, "bloom_p", 1e-4))
            seed = int(_setting(args, config, "seed", 0))
            filt = BloomFilter.create(max(n_keys, 1), p, seed)
        seeded = decontaminate_seed(filt, test_docs(), min_paragraph_tokens=min_tokens)
        if save_path:
            bloom_save(seeded, save_path)

    out_dir.mkdir(parents=True, exist_ok=True)
    shards = (
        (attrs for _, attrs in decontaminate_tag(read_documents(path), seeded, min_paragraph_tokens=min_tokens))
        for path in inputs
    )
    counts = _write_counted(outputs, shards)
    _emit_report(
        {
            "documents": counts["documents"],
            "contaminated_documents": counts["flagged_documents"],
            "min_paragraph_tokens": min_tokens,
        },
        args.report,
    )
    return EXIT_OK


def _cmd_mix(args, config) -> int:
    if not config:
        raise ValidationError("mix requires --config with a mix configuration")
    out_dir = _require(_setting(args, config, "out_dir", None), "--out-dir")
    workers = int(_setting(args, config, "workers", 1))
    mix_config = MixConfig.from_json(config)
    if args.seed is not None:
        mix_config.seed = int(args.seed)
    report = mix(mix_config, out_dir, workers=workers)
    _emit_report(report.to_json(), args.report)
    return EXIT_OK


def _cmd_reddit_build(args, config) -> int:
    inputs = _require(_setting(args, config, "inputs", None), "--inputs")
    out = _require(_setting(args, config, "out", None), "--out")
    strategy = _setting(args, config, "strategy", "atomic")
    max_depth = int(_setting(args, config, "max_depth", reddit_threads.DEFAULT_MAX_PARENT_DEPTH))
    items = []
    for path in inputs:
        for doc in read_documents(path):
            items.append(reddit_threads.RedditItem.from_document(doc))
    if strategy == "atomic":
        docs = reddit_threads.build_atomic(items)
    elif strategy == "partial":
        docs = reddit_threads.build_partial_threads(items, max_depth=max_depth)
    elif strategy == "full":
        docs = reddit_threads.build_full_threads(items)
    else:
        raise ValidationError(f"unknown strategy {strategy!r} (atomic|partial|full)")
    count = write_documents(docs, out)
    _emit_report({"strategy": strategy, "items": len(items), "documents": count}, args.report)
    return EXIT_OK


def _cmd_train_classifier(args, config) -> int:
    inputs = _require(_setting(args, config, "inputs", None), "--inputs")
    model_out = _require(_setting(args, config, "model_out", None), "--model-out")
    examples = []
    for path in inputs:
        for doc in read_documents(path):
            label = doc.metadata.get("label")
            if label is None:
                raise ValidationError(f"document {doc.id!r} in {path} has no 'label' metadata")
            examples.append((doc.text, str(label)))
    orders = _setting(args, config, "orders", None)
    feature_kind = _setting(args, config, "feature_kind", "word")
    if orders is None:
        orders = (2, 3, 4, 5) if feature_kind == "char" else (1, 2)
    elif isinstance(orders, str):
        orders = tuple(int(x) for x in orders.split(","))
    features = NgramConfig(
        hash_buckets=int(_setting(args, config, "buckets", 1 << 18)),
        hash_seed=int(_setting(args, config, "seed", 0)),
        ngram_orders=tuple(orders),
        feature_kind=feature_kind,
    )
    train_config = TrainConfig(
        epochs=int(_setting(args, config, "epochs", 10)),
        learning_rate=float(_setting(args, config, "learning_rate", 0.5)),
        l2=float(_setting(args, config, "l2", 0.0)),
        seed=int(_setting(args, config, "seed", 0)),
        batch_size=int(_setting(args, config, "batch_size", 1)),
    )
    eval_split = float(_setting(args, config, "eval_split", 0.0))
    held_out: list[tuple[str, str]] = []
    if eval_split > 0:
        import random

        rng = random.Random(train_config.seed)
        shuffled = examples[:]
        rng.shuffle(shuffled)
        cut = max(1, int(len(shuffled) * eval_split))
        held_out, examples = shuffled[:cut], shuffled[cut:]
    model = train(examples, train_config, features)
    save_model(model, model_out)
    report = {
        "examples": len(examples),
        "labels": model.labels,
        "final_loss": model.loss_history[-1] if model.loss_history else None,
        "model": str(model_out),
    }
    if held_out:
        correct = sum(
            1
            for text, label in held_out
            if max(predict(model, text).items(), key=lambda kv: kv[1])[0] == label
        )
        report["held_out_examples"] = len(held_out)
        report["held_out_accuracy"] = correct / len(held_out)
    _emit_report(report, args.report)
    return EXIT_OK


def _cmd_stats(args, config) -> int:
    inputs = _require(_setting(args, config, "inputs", None), "--inputs")

    def docs():
        for path in inputs:
            yield from read_documents(path)

    stats = count_stats(docs())
    _emit_report(
        {
            "utf8_bytes": stats.utf8_bytes,
            "documents": stats.documents,
            "unicode_words": stats.unicode_words,
        },
        args.report,
    )
    return EXIT_OK


def _cmd_correlate(args, config) -> int:
    attr_dirs = _require(_setting(args, config, "attributes", None), "--attributes")
    names = _setting(args, config, "filters", None)
    if isinstance(names, str):
        names = [n for n in names.split(",") if n]
    _require(names, "--filters")
    dirs = [Path(d) for d in attr_dirs]
    if all(d.is_dir() for d in dirs):
        shard_names = sorted(p.name for p in dirs[0].iterdir() if p.is_file())
        groups = [[str(d / name) for d in dirs] for name in shard_names]
    else:
        groups = [[str(d) for d in dirs]]
    matrix = filter_correlation(merge_attribute_shards(groups), names)
    _emit_report(matrix.to_json(), args.report)
    return EXIT_OK


def _cmd_pipeline_web(args, config) -> int:
    inputs = _require(_setting(args, config, "inputs", None), "--inputs")
    out_dir = _require(_setting(args, config, "out_dir", None), "--out-dir")
    pipeline_config = WebPipelineConfig(
        inputs=list(inputs),
        out_dir=out_dir,
        bloom_n=int(_setting(args, config, "bloom_n", 1_000_000)),
        bloom_p=float(_setting(args, config, "bloom_p", 1e-4)),
        seed=int(_setting(args, config, "seed", 0)),
        exact_backend=bool(_setting(args, config, "exact", False)),
        language_model=_setting(args, config, "language_model", None),
        hate_model=_setting(args, config, "hate_model", None),
        nsfw_model=_setting(args, config, "nsfw_model", None),
        toxicity_threshold=float(_setting(args, config, "toxicity_threshold", 0.4)),
        workers=int(_setting(args, config, "workers", 1)),
    )
    reports = run_pipeline_web(pipeline_config)
    _emit_report({"stages": [r.to_json() for r in reports]}, args.report)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="corpuskit", description=__doc__)
    parser.add_argument("--log-level", default="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, inputs: bool = True) -> None:
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--report", help="write the JSON report here instead of stdout")
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)
        if inputs:
            p.add_argument("--inputs", nargs="+", help="document shard files")

    p = sub.add_parser("tag", help="run taggers over shards, writing attribute sidecars")
    common(p)
    p.add_argument("--taggers", help="comma-separated tagger names")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(fn=_cmd_tag)

    p = sub.add_parser("dedupe", help="flag URL/document/paragraph duplicates")
    common(p)
    p.add_argument("--stage", choices=["url", "document", "paragraph"])
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--exact", action="store_const", const=True, default=None)
    p.add_argument("--bloom-n", dest="bloom_n", type=int)
    p.add_argument("--bloom-p", dest="bloom_p", type=float)
    p.add_argument("--min-paragraph-tokens", dest="min_paragraph_tokens", type=int)
    p.add_argument("--save-filter", dest="save_filter")
    p.add_argument(
        "--ccnet-group-bytes",
        dest="ccnet_group_bytes",
        type=int,
        help="grouped paragraph dedup: dedupe within consecutive shard groups of at most this many bytes",
    )
    p.set_defaults(fn=_cmd_dedupe)

    p = sub.add_parser("decontaminate", help="seed a filter with test paragraphs and flag hits")
    common(p)
    p.add_argument("--test-set", dest="test_set", nargs="+")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--exact", action="store_const", const=True, default=None)
    p.add_argument("--bloom-p", dest="bloom_p", type=float)
    p.add_argument("--min-paragraph-tokens", dest="min_paragraph_tokens", type=int)
    p.add_argument("--save-filter", dest="save_filter")
    p.add_argument("--load-filter", dest="load_filter")
    p.set_defaults(fn=_cmd_decontaminate)

    p = sub.add_parser("mix", help="filter, sample, and reshard per the mix config")
    common(p, inputs=False)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(fn=_cmd_mix)

    p = sub.add_parser("reddit-build", help="linearize submission/comment trees")
    common(p)
    p.add_argument("--strategy", choices=["atomic", "partial", "full"])
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_reddit_build)

    p = sub.add_parser("train-classifier", help="train the n-gram classifier on labeled shards")
    common(p)
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--feature-kind", dest="feature_kind", choices=["word", "char"])
    p.add_argument("--orders")
    p.add_argument("--buckets", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--eval-split", dest="eval_split", type=float)
    p.set_defaults(fn=_cmd_train_classifier)

    p = sub.add_parser("stats", help="corpus size statistics")
    common(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("correlate", help="document-level filter correlation matrix")
    common(p, inputs=False)
    p.add_argument("--attributes", nargs="+", help="attribute sidecar dirs (or files)")
    p.add_argument("--filters", help="comma-separated attribute names")
    p.set_defaults(fn=_cmd_correlate)

    p = sub.add_parser("pipeline-web", help="full web pipeline in the fixed stage order")
    common(p)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--exact", action="store_const", const=True, default=None)
    p.add_argument("--bloom-n", dest="bloom_n", type=int)
    p.add_argument("--bloom-p", dest="bloom_p", type=float)
    p.add_argument("--language-model", dest="language_model")
    p.add_argument("--hate-model", dest="hate_model")
    p.add_argument("--nsfw-model", dest="nsfw_model")
    p.add_argument("--toxicity-threshold", dest="toxicity_threshold", type=float)
    p.set_defaults(fn=_cmd_pipeline_web)

    return parser


_VALIDATION_ERRORS = (
    ValidationError,
    MixConfigError,
    FilterConfigError,
    TaggerConfigError,
    DedupeConfigError,
    ShardNameError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
        config = _load_config(getattr(args, "config", None))
        return args.fn(args, config)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure
        logger.exception("command failed")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
