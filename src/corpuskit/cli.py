"""Command-line surface: tag, dedupe, decontaminate, mix, reddit-build,
train-classifier, stats, correlate, pipeline-web.

Options come from flags over a JSON --config file whose keys are option
names with underscores, --config and --report aside (for mix, also the mix
configuration's keys); flags win, any other key exits 1, and an unset option
keeps the library's default. --seed is taken by dedupe, decontaminate, mix,
train-classifier and pipeline-web; --workers by tag, mix and pipeline-web.
A bad option value, or an option the chosen mode does not read (--bloom-p
with --exact, --max-depth without --strategy partial, ...), exits 1 before
any shard is read. So do a --log-level other than DEBUG, INFO, WARNING,
ERROR or CRITICAL (in any case), a NaN or infinite number where a finite one
is needed (--l2, --learning-rate, a mix weight; a NaN filter threshold), a
tagger param its tagger does not read, and a --save-filter, --report, --out
or --model-out file in a directory that neither exists nor is the command's
--out-dir or above it. Reports are JSON on stdout or at --report; with a
Bloom filter, dedupe and decontaminate reports and each dedup stage of a
pipeline-web report end in its health: size, fill, estimated false-positive
rate, new keys and the key count it was sized for. A failed job moves no
output into --out-dir: its outputs are moved in only once all are written,
and --save-filter and --report are written after them. Exit codes: 0
success, 1 validation error, 2 runtime failure, 143 ended by SIGTERM after
cleaning up as a failure does.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import fields
from functools import cache, partial
from itertools import chain
from pathlib import Path
from typing import Iterator

from corpuskit import reddit_threads
from corpuskit.bloom import BloomFilter, bloom_load, bloom_save, make_backend
from corpuskit.correlate import filter_correlation, merge_attribute_shards
from corpuskit.dedupe import (
    CONTAMINATED,
    DECONTAMINATION_MIN_TOKENS,
    DOC_DUPLICATE,
    PARAGRAPH_DUPLICATE,
    URL_DUPLICATE,
    ccnet_group_dedupe,
    decontaminate_tag,
    dedupe_by_document,
    dedupe_by_paragraph,
    dedupe_by_url,
    gated_keys,
    seed_filter,
)
from corpuskit.documents import count_stats
from corpuskit.filters import FilterConfigError
from corpuskit.mixer import MixConfig, MixConfigError, mix
from corpuskit.ngram_classifier import (
    NgramConfig,
    TrainConfig,
    featurize_rows,
    save_model,
    train,
)
from corpuskit.pipeline import (
    TaggerConfigError,
    WebPipelineConfig,
    run_pipeline_web,
    run_tag,
    tag_report_json,
)
from corpuskit.shard_io import (
    ShardNameError,
    ShardPool,
    StageReport,
    atomic_output,
    output_paths,
    read_documents,
    sidecar_paths,
    write_attributes,
    write_documents,
)

logger = logging.getLogger("corpuskit")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_TERMINATED = 128 + signal.SIGTERM

_MIX_KEYS = tuple(f.name for f in fields(MixConfig))
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # subcommand name -> its parser

    def error(self, message: str):  # validation failures exit 1, not 2
        raise ValidationError(message)


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _orders(value) -> tuple[int, ...]:
    """Comma-separated n-gram orders, or (from a config) a list of integers."""
    orders = [int(order) for order in value.split(",")] if isinstance(value, str) else value
    if not isinstance(orders, list) or not all(type(order) is int for order in orders):
        raise TypeError(f"must be a list of integers or a comma-separated string, got {value!r}")
    return tuple(orders)


def _as_list(value) -> list[str]:
    """A list option's config value: a list of strings, or a string as its one element."""
    if isinstance(value, str):
        return [value]
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"must be a list of strings or a string, got {value!r}")
    return value


def _names(value) -> list[str]:
    """Comma-separated names, or (from a config) a list of names."""
    return [name for name in value.split(",") if name] if isinstance(value, str) else _as_list(value)


def _tagger_specs(value) -> list[tuple[str, dict]]:
    """Comma-separated tagger names, or (from a config) a list whose entries
    are names or ``{"name": ..., "params": {...}}`` objects."""
    if isinstance(value, str):
        return [(name, {}) for name in _names(value)]
    if not isinstance(value, list):
        raise TypeError(f"must be a list of tagger specs or a string, got {value!r}")
    specs = []
    for entry in value:
        if isinstance(entry, str):
            specs.append((entry, {}))
        elif (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("params", {}), dict)
        ):
            specs.append((entry["name"], entry.get("params", {})))
        else:
            raise TypeError(f"bad tagger spec {entry!r}")
    return specs


def _from_config(action: argparse.Action, value):
    """A config value checked and converted like the argument of its flag; a
    flag that takes no value (``--exact``) takes a JSON boolean, and one
    without a type (a path, a name) a string."""
    if action.nargs == "+":
        return _as_list(value)
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise TypeError(f"must be true or false, got {value!r}")
        return value
    if action.type:
        value = action.type(value)
    elif not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"must be one of {', '.join(map(repr, action.choices))}, got {value!r}")
    return value


def _merge_config(args, command: argparse.ArgumentParser) -> None:
    """Fill each option that no flag set from the --config key of its name,
    converted like the flag; a key that names no option is an error."""
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise ValidationError(f"config file {args.config} must hold a JSON object")
    options = vars(args)
    actions = {action.dest: action for action in command._actions}
    for key, value in config.items():
        if key not in options or key in ("command", "config", "report", "log_level"):
            raise ValidationError(f"{key!r} is not a config key of {args.command}")
        if options[key] is None:
            try:
                options[key] = _from_config(actions[key], value) if key in actions else value
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise ValidationError(f"config key {key!r}: {exc}") from exc


_BLOOM = ("bloom_n", "bloom_p", "seed")  # the options that size and seed a Bloom filter
# (mode option, whether its value selects the mode, the options that mode does not read)
_UNREAD = (
    ("stage", lambda v: v in ("url", "document"), ("ccnet_group_bytes", "min_paragraph_tokens")),
    ("ccnet_group_bytes", bool, ("exact", *_BLOOM, "min_paragraph_tokens", "save_filter")),
    ("load_filter", bool, ("test_set", "save_filter", "exact", *_BLOOM)),
    ("exact", bool, (*_BLOOM, "save_filter")),
    ("strategy", lambda v: v != "partial", ("max_depth",)),
)


def _refuse_unread(args) -> None:
    """Reject any option given that the chosen mode of the command does not read."""
    options = vars(args)
    for mode, selects, unread in _UNREAD:
        given = [name for name in unread if options.get(name) is not None]
        if mode in options and selects(options[mode]) and given:
            value = "not given" if options[mode] is None else repr(options[mode])
            raise ValidationError(f"{', '.join(map(_flag, given))} not read when {_flag(mode)} is {value}")


# the options a command cannot run without, checked in this order
_REQUIRED = ("inputs", "streams", "attributes", "filters", "out_dir", "out", "model_out", "stage")


def _refuse_missing(args) -> None:
    """Reject a command run without an option it cannot run without."""
    options = vars(args)
    for name in _REQUIRED:
        if name in options and options[name] in (None, [], ""):
            flag = "streams (mix needs --config with a mix configuration)" if name == "streams" else _flag(name)
            raise ValidationError(f"missing required option {flag}")


_OUTPUT_FILES = ("save_filter", "report", "out", "model_out")  # options naming a file to write


def _refuse_missing_parent(args) -> None:
    """Reject an output file whose directory neither exists nor is made by
    the command, which makes its --out-dir and the directories above it."""
    options = vars(args)
    made = Path(options["out_dir"]).resolve() if options.get("out_dir") else None
    for name in _OUTPUT_FILES:
        if not options.get(name):
            continue
        parent = Path(options[name]).resolve().parent
        if not (parent.is_dir() or made is not None and (parent == made or parent in made.parents)):
            raise ValidationError(f"{_flag(name)} {options[name]}: no directory {Path(options[name]).parent}")


def _given(args, *names: str, **renamed: str) -> dict:
    """Keyword arguments for a library call from the options that were set, the
    library's defaults covering the rest; ``renamed`` maps parameter to option."""
    options = {**dict(zip(names, names)), **renamed}
    return {param: getattr(args, name) for param, name in options.items() if getattr(args, name) is not None}


@contextmanager
def _option_values() -> Iterator[None]:
    """Report a ValueError from building config objects as a validation error."""
    try:
        yield
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _cmd_tag(args) -> dict:
    return tag_report_json(run_tag(list(args.inputs), args.taggers or [], args.out_dir, **_given(args, "workers")))


def _write_counted(stage: str, outputs, shards) -> StageReport:
    """Write each input shard's attribute records to its output path,
    counting the records written and what they flag."""
    report = StageReport(stage)
    for out_path, records in zip(outputs, shards):
        write_attributes(map(report.flag, records), out_path)
    return report


# each --stage of dedupe: its flagging function and the attribute it flags
_DEDUPE_STAGES = {
    "url": (dedupe_by_url, URL_DUPLICATE),
    "document": (dedupe_by_document, DOC_DUPLICATE),
    "paragraph": (dedupe_by_paragraph, PARAGRAPH_DUPLICATE),
}


def _cmd_dedupe(args) -> dict:
    inputs, stage = args.inputs, args.stage
    stage_fn, attribute = _DEDUPE_STAGES[stage]
    outputs = output_paths(inputs, args.out_dir)
    group_bytes = args.ccnet_group_bytes
    if group_bytes is not None:
        # one (shard, records) pair per input, in input order
        shards = (records for _, records in ccnet_group_dedupe(list(inputs), group_bytes))
        report = {"stage": "paragraph", "grouping": "ccnet", "max_group_bytes": group_bytes}
    else:
        with _option_values():
            backend = make_backend(**_given(args, "exact", n_target="bloom_n", p_target="bloom_p", seed="seed"))
        gate = _given(args, "min_paragraph_tokens")  # refused unless the stage is paragraph
        missing_url = 0

        def records(path):
            nonlocal missing_url
            for doc, attrs in stage_fn(read_documents(path), backend, **gate):
                if stage == "url" and doc.metadata.get("url") is None:
                    missing_url += 1
                yield attrs

        shards = (records(path) for path in inputs)
        report = {"stage": stage}
    with ShardPool(1, out_dir=args.out_dir) as pool:
        counts = _write_counted(stage, pool.staged(outputs), shards)
    report.update(documents=counts.input_docs, flagged_documents=counts.flagged_docs.get(attribute, 0))
    if group_bytes is None:
        if args.save_filter:
            bloom_save(backend, args.save_filter)
        report.update(flagged_paragraphs=counts.flagged_spans.get(PARAGRAPH_DUPLICATE, 0), missing_url=missing_url)
        if isinstance(backend, BloomFilter):
            report["bloom"] = backend.health()
    return report


def _cmd_decontaminate(args) -> dict:
    outputs = output_paths(args.inputs, args.out_dir)
    min_tokens = DECONTAMINATION_MIN_TOKENS if args.min_paragraph_tokens is None else args.min_paragraph_tokens
    if args.load_filter:
        seeded = bloom_load(args.load_filter)
        if not seeded.read_only:
            raise ValidationError(f"filter {args.load_filter} is not a seeded read-only filter")
    elif not args.test_set:
        raise ValidationError("missing required option --test-set")
    else:
        # the test set is gated once; a Bloom filter is sized to the keys it admits
        keys = gated_keys(chain.from_iterable(map(read_documents, args.test_set)), min_tokens)
        with _option_values():
            filt = make_backend(n_target=max(len(keys), 1), **_given(args, "exact", p_target="bloom_p", seed="seed"))
        seeded = seed_filter(filt, keys)

    shards = (
        (attrs for _, attrs in decontaminate_tag(read_documents(path), seeded, min_paragraph_tokens=min_tokens))
        for path in args.inputs
    )
    with ShardPool(1, out_dir=args.out_dir) as pool:
        counts = _write_counted("decontaminate", pool.staged(outputs), shards)
    if args.save_filter:
        bloom_save(seeded, args.save_filter)
    report = {
        "documents": counts.input_docs,
        "contaminated_documents": counts.flagged_docs.get(CONTAMINATED, 0),
        "min_paragraph_tokens": min_tokens,
    }
    if isinstance(seeded, BloomFilter):
        report["bloom"] = seeded.health()
    return report


def _cmd_mix(args) -> dict:
    with _option_values():
        mix_config = MixConfig.from_json(_given(args, *_MIX_KEYS))
    return mix(mix_config, args.out_dir, **_given(args, "workers")).to_json()


def _cmd_reddit_build(args) -> dict:
    strategy = args.strategy or "atomic"
    builders = {
        "atomic": reddit_threads.build_atomic,
        "partial": partial(reddit_threads.build_partial_threads, **_given(args, "max_depth")),
        "full": reddit_threads.build_full_threads,
    }
    docs = chain.from_iterable(map(read_documents, args.inputs))
    items = [reddit_threads.RedditItem.from_document(doc) for doc in docs]
    count = write_documents(builders[strategy](items), args.out)
    return {"strategy": strategy, "items": len(items), "documents": count}


def _cmd_train_classifier(args) -> dict:
    with _option_values():
        features = NgramConfig(
            **_given(args, "feature_kind", hash_buckets="buckets", hash_seed="seed", ngram_orders="orders")
        )
        train_config = TrainConfig(**_given(args, "epochs", "learning_rate", "l2", "seed", "batch_size"))
        if args.eval_split is not None and not 0 <= args.eval_split < 1:
            raise ValueError(f"--eval-split must be in [0, 1), got {args.eval_split}")
    examples = []
    for path in args.inputs:
        for doc in read_documents(path):
            label = doc.metadata.get("label")
            if label is None:
                raise ValidationError(f"document {doc.id!r} in {path} has no 'label' metadata")
            examples.append((doc.text, str(label)))
    held_out: list[tuple[str, str]] = []
    if args.eval_split:
        rng = random.Random(train_config.seed)
        shuffled = examples[:]
        rng.shuffle(shuffled)
        cut = max(1, int(len(shuffled) * args.eval_split))
        held_out, examples = shuffled[:cut], shuffled[cut:]
    model = train(examples, train_config, features)
    save_model(model, args.model_out)
    report = {
        "examples": len(examples),
        "labels": model.labels,
        "final_loss": model.loss_history[-1] if model.loss_history else None,
        "model": str(args.model_out),
    }
    if held_out:
        # argmax takes the first of tied labels, in the model's label order
        predicted = model.predict_rows(featurize_rows(model.config, [text for text, _ in held_out])).argmax(axis=0)
        correct = sum(1 for p, (_, label) in zip(predicted.tolist(), held_out) if model.labels[p] == label)
        report["held_out_examples"] = len(held_out)
        report["held_out_accuracy"] = correct / len(held_out)
    return report


def _cmd_stats(args) -> dict:
    stats = count_stats(chain.from_iterable(map(read_documents, args.inputs)))
    return {"utf8_bytes": stats.utf8_bytes, "documents": stats.documents, "unicode_words": stats.unicode_words}


def _cmd_correlate(args) -> dict:
    first = Path(args.attributes[0])  # a directory: one group per file in it
    shard_names = sorted(p.name for p in first.iterdir() if p.is_file()) if first.is_dir() else [first.name]
    groups = [sidecar_paths(name, args.attributes) for name in shard_names]
    return filter_correlation(merge_attribute_shards(groups), args.filters).to_json()


def _cmd_pipeline_web(args) -> dict:
    options = _given(args, "bloom_n", "bloom_p", "seed", "toxicity_threshold", "workers", exact_backend="exact")
    models = _given(args, "language_model", "hate_model", "nsfw_model")
    with _option_values():
        pipeline_config = WebPipelineConfig(inputs=list(args.inputs), out_dir=args.out_dir, **options, **models)
    return {"stages": [r.to_json() for r in run_pipeline_web(pipeline_config)]}


# each option's argparse keywords; its flag is --<name with dashes> and its dest <name>
_OPTIONS: dict[str, dict] = {
    "config": dict(help="JSON config file; flags override its keys"),
    "report": dict(help="write the JSON report here instead of stdout"),
    "inputs": dict(nargs="+", help="document shard files"),
    "seed": dict(type=int),
    "workers": dict(type=_positive_int),
    "taggers": dict(type=_tagger_specs, help="comma-separated tagger names"),
    "out_dir": {},
    "stage": dict(choices=list(_DEDUPE_STAGES)),
    "exact": dict(action="store_const", const=True),
    "bloom_n": dict(type=int),
    "bloom_p": dict(type=float),
    "min_paragraph_tokens": dict(type=_non_negative_int),
    "save_filter": {},
    "ccnet_group_bytes": dict(
        type=_positive_int,
        help="grouped paragraph dedup: dedupe within consecutive shard groups of at most this many bytes",
    ),
    "test_set": dict(nargs="+"),
    "load_filter": {},
    "strategy": dict(choices=["atomic", "partial", "full"]),
    "max_depth": dict(type=_positive_int),
    "out": {},
    "model_out": {},
    "feature_kind": dict(choices=["word", "char"]),
    "orders": dict(type=_orders),
    "buckets": dict(type=int),
    "epochs": dict(type=int),
    "learning_rate": dict(type=float),
    "l2": dict(type=float),
    "batch_size": dict(type=int),
    "eval_split": dict(type=float),
    "attributes": dict(nargs="+", help="attribute sidecar dirs (or files)"),
    "filters": dict(type=_names, help="comma-separated attribute names"),
    "language_model": {},
    "hate_model": {},
    "nsfw_model": {},
    "toxicity_threshold": dict(type=float),
}

# command -> (function, help, its options after --config and --report, in flag order)
_COMMANDS = {
    "tag": (_cmd_tag, "run taggers over shards, writing attribute sidecars", "inputs workers taggers out_dir"),
    "dedupe": (
        _cmd_dedupe,
        "flag URL/document/paragraph duplicates",
        "inputs seed stage out_dir exact bloom_n bloom_p min_paragraph_tokens save_filter ccnet_group_bytes",
    ),
    "decontaminate": (
        _cmd_decontaminate,
        "seed a filter with test paragraphs and flag hits",
        "inputs seed test_set out_dir exact bloom_p min_paragraph_tokens save_filter load_filter",
    ),
    "mix": (_cmd_mix, "filter, sample, and reshard per the mix config", "seed workers out_dir"),
    "reddit-build": (_cmd_reddit_build, "linearize submission/comment trees", "inputs strategy max_depth out"),
    "train-classifier": (
        _cmd_train_classifier,
        "train the n-gram classifier on labeled shards",
        "inputs seed model_out feature_kind orders buckets epochs learning_rate l2 batch_size eval_split",
    ),
    "stats": (_cmd_stats, "corpus size statistics", "inputs"),
    "correlate": (_cmd_correlate, "document-level filter correlation matrix", "attributes filters"),
    "pipeline-web": (
        _cmd_pipeline_web,
        "full web pipeline in the fixed stage order",
        "inputs seed workers out_dir exact bloom_n bloom_p language_model hate_model nsfw_model toxicity_threshold",
    ),
}

def build_parser() -> _Parser:
    parser = _Parser(prog="corpuskit", description=__doc__)
    parser.add_argument("--log-level", default="WARNING", type=str.upper, choices=_LOG_LEVELS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help)
        for option in ("config", "report", *options.split()):
            command.add_argument(_flag(option), dest=option, **_OPTIONS[option])
    sub.choices["mix"].set_defaults(**dict.fromkeys(_MIX_KEYS))  # the mix configuration's keys, set by --config only
    parser.commands = sub.choices
    return parser


@cache
def _parser() -> _Parser:
    """The parser of every in-process ``main`` call; parsing leaves it as it was."""
    return build_parser()


_VALIDATION_ERRORS = (
    ValidationError,
    MixConfigError,
    FilterConfigError,
    TaggerConfigError,
    ShardNameError,
)


@contextmanager
def _sigterm_as_exit() -> Iterator[None]:
    """While the block runs, SIGTERM raises ``SystemExit(143)``, so the job's
    :class:`~corpuskit.shard_io.ShardPool` and its atomic outputs clean up
    as they do for an exception, publishing nothing. Only the main thread
    can set a handler; the previous one is restored when the block ends."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(EXIT_TERMINATED))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


def main(argv: list[str] | None = None) -> int:
    with _sigterm_as_exit():
        parser = _parser()
        try:
            args = parser.parse_args(argv)
            logging.basicConfig()  # a stderr handler, unless the host has one
            logger.setLevel(args.log_level)
            if args.config:
                _merge_config(args, parser.commands[args.command])
            _refuse_unread(args)
            _refuse_missing(args)
            _refuse_missing_parent(args)
            payload = json.dumps(_COMMANDS[args.command][0](args), indent=2)
            if args.report:
                with atomic_output(args.report) as tmp:
                    tmp.write_text(payload + "\n", encoding="utf-8")
            else:
                print(payload)
            return EXIT_OK
        except _VALIDATION_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except Exception as exc:  # runtime failure
            logger.exception("command failed")
            print(f"runtime failure: {exc}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
