"""Span tracing of corpuskit's public functions, installed from outside.

The traced run wraps the functions named in ``LAYERS`` so that every call
(and, for generators, every ``next()``) records a span: name, start, end,
parent and the UTF-8 text bytes it handled where that is defined. Wrappers
are bound wherever a module imported the original by name, and in default
arguments, so calls between modules are caught too. Worker processes are
forked from the traced process and inherit the wrappers; each worker keeps
its spans in memory and writes them to ``spans_dir`` when its task ends,
and ``Tracer.collect`` merges them after the job. Nothing here changes what
the program computes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# reported layer name -> (module, attribute path) of the wrapped callable
LAYERS = {
    "shard_io.read_documents": ("shard_io", "read_documents"),
    "shard_io.write_documents": ("shard_io", "write_documents"),
    "shard_io.read_attributes": ("shard_io", "read_attributes"),
    "shard_io.write_attributes": ("shard_io", "write_attributes"),
    "documents.segment_paragraphs": ("documents", "segment_paragraphs"),
    "documents.count_words": ("documents", "count_words"),
    "gopher.tag_gopher": ("gopher", "tag_gopher"),
    "heuristics.tag_c4_nopunc": ("heuristics", "tag_c4_nopunc"),
    "heuristics.tag_repetition": ("heuristics", "tag_repetition"),
    "heuristics.tag_wiki_min_words": ("heuristics", "tag_wiki_min_words"),
    "heuristics.tag_reddit_quality": ("heuristics", "tag_reddit_quality"),
    "heuristics.tag_banned_subreddit": ("heuristics", "tag_banned_subreddit"),
    "code_rules.tag_code_rpj": ("code_rules", "tag_code_rpj"),
    "code_rules.tag_code_starcoder": ("code_rules", "tag_code_starcoder"),
    "code_rules.tag_extension_filter": ("code_rules", "tag_extension_filter"),
    "reddit_threads.build_partial_threads": ("reddit_threads", "build_partial_threads"),
    "pii.tag_pii": ("pii", "tag_pii"),
    "pii.apply_pii_policy": ("pii", "apply_pii_policy"),
    "sentences.split_sentences": ("sentences", "split_sentences"),
    "toxicity.tag_toxicity": ("toxicity", "tag_toxicity"),
    "ngram_classifier.featurize": ("ngram_classifier", "featurize"),
    "ngram_classifier.predict_proba": ("ngram_classifier", "NgramModel.predict_proba"),
    "ngram_classifier.score_language_paragraph_avg": ("ngram_classifier", "score_language_paragraph_avg"),
    "ngram_classifier.train": ("ngram_classifier", "train"),
    "bloom.insert_check": ("bloom", "BloomFilter.insert_check"),
    "bloom.contains": ("bloom", "BloomFilter.contains"),
    "dedupe.dedupe_by_url": ("dedupe", "dedupe_by_url"),
    "dedupe.dedupe_by_document": ("dedupe", "dedupe_by_document"),
    "dedupe.dedupe_by_paragraph": ("dedupe", "dedupe_by_paragraph"),
    "dedupe.ccnet_group_dedupe": ("dedupe", "ccnet_group_dedupe"),
    "dedupe.decontaminate_seed": ("dedupe", "decontaminate_seed"),
    "dedupe.decontaminate_tag": ("dedupe", "decontaminate_tag"),
    "filters.apply_filters": ("filters", "apply_filters"),
    "mixer.measure_source_sizes": ("mixer", "measure_source_sizes"),
    "mixer.iter_doc_attrs": ("mixer", "iter_doc_attrs"),
    "mixer.mix": ("mixer", "mix"),
    "pipeline.run_pipeline_web": ("pipeline", "run_pipeline_web"),
    "pipeline.run_tag": ("pipeline", "run_tag"),
    "cli.main": ("cli", "main"),
    # worker task entry points: their spans parent the worker's spans and
    # mark where a worker writes its spans out; they are not reported
    "pipeline._tag_one_shard": ("pipeline", "_tag_one_shard"),
    "pipeline._quality_content_shard": ("pipeline", "_quality_content_shard"),
    "mixer._filter_one_file": ("mixer", "_filter_one_file"),
}
WORKER_TASKS = {"pipeline._tag_one_shard", "pipeline._quality_content_shard", "mixer._filter_one_file"}
# layers whose spans record text bytes, and how to find the text
_TEXT_ARG = {"gopher.tag_gopher": 0, "ngram_classifier.featurize": 1}
_TEXT_YIELD = {"shard_io.read_documents"}

_FORK_PARENT = -2  # parent marker of a worker's root span


def _utf8_len(value) -> int:
    text = getattr(value, "text", value)
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


class Tracer:
    """Records spans in flat arrays; one tracer per traced process."""

    def __init__(self, spans_dir) -> None:
        self.names = list(LAYERS)
        self.spans_dir = Path(spans_dir)
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.fork_parent = -1
        self._flushes = 0
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def _reset(self) -> None:
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.nbytes = array("q")
        self.stack: list[int] = []

    def _after_fork_in_child(self) -> None:
        self.fork_parent = self.stack[-1] if self.stack else -1
        self._flushes = 0
        self._reset()

    def enter(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else _FORK_PARENT)
        self.nbytes.append(0)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def _arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64).copy(),
        }

    def flush_worker(self) -> None:
        """Write this worker's spans (its task has ended) and forget them."""
        self._flushes += 1
        path = self.spans_dir / f"worker-{os.getpid()}-{self._flushes}.npz"
        np.savez(path, fork_parent=np.int64(self.fork_parent), **self._arrays())
        self._reset()

    def collect(self) -> dict:
        """Merge the main process's spans with the workers' files into one
        table (worker roots re-parented to the span that forked them)."""
        parts = [self._arrays() | {"pid": np.zeros(len(self.starts), dtype=np.int64)}]
        parts[0]["parent"][parts[0]["parent"] == _FORK_PARENT] = -1
        offset = len(self.starts)
        for k, path in enumerate(sorted(self.spans_dir.glob("worker-*.npz")), start=1):
            with np.load(path) as data:
                part = {key: data[key] for key in ("name_id", "parent", "start", "end", "nbytes")}
                fork_parent = int(data["fork_parent"])
            roots = part["parent"] == _FORK_PARENT
            part["parent"] = np.where(roots, fork_parent, part["parent"] + offset)
            part["pid"] = np.full(len(part["start"]), k, dtype=np.int64)
            parts.append(part)
            offset += len(part["start"])
            path.unlink()
        self._reset()
        return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def self_seconds(table: dict) -> np.ndarray:
    """Per span: duration minus the part of it covered by child spans.

    Children in the same process nest and never overlap, so their durations
    add up; spans from worker processes run side by side, so for a parent
    with such children the union of the children's intervals is taken.
    """
    start, end, parent, pid = table["start"], table["end"], table["parent"], table["pid"]
    dur = end - start
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    same = has_parent & (pid == np.where(has_parent, pid[np.maximum(parent, 0)], -1))
    np.add.at(covered, parent[same], dur[same])
    cross = has_parent & ~same
    for p in np.unique(parent[cross]):
        kids = np.flatnonzero(parent == p)
        intervals = sorted(zip(np.maximum(start[kids], start[p]), np.minimum(end[kids], end[p])))
        total, cur_s, cur_e = 0.0, None, None
        for s, e in intervals:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        covered[p] = total
    return dur - covered


def _wrap(tracer: Tracer, layer: str, orig):
    name_id = tracer.names.index(layer)
    text_arg = _TEXT_ARG.get(layer)
    is_task = layer in WORKER_TASKS

    if inspect.isgeneratorfunction(orig):
        count_yield = layer in _TEXT_YIELD

        @functools.wraps(orig)
        def gen_wrapper(*args, **kwargs):
            inner = orig(*args, **kwargs)
            try:
                while True:
                    index = tracer.enter(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(index)
                    if count_yield:
                        tracer.nbytes[index] = _utf8_len(item)
                    yield item
            finally:
                inner.close()

        return gen_wrapper

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        index = tracer.enter(name_id)
        try:
            return orig(*args, **kwargs)
        finally:
            tracer.exit(index)
            if text_arg is not None and len(args) > text_arg:
                tracer.nbytes[index] = _utf8_len(args[text_arg])
            if is_task and not tracer.stack and os.getpid() != tracer.main_pid:
                tracer.flush_worker()

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every binding of each layer's function with a span wrapper."""
    replaced = {}
    for layer, (module_name, attr_path) in LAYERS.items():
        owner = importlib.import_module(f"corpuskit.{module_name}")
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        orig = getattr(owner, attr)
        wrapped = _wrap(tracer, layer, orig)
        setattr(owner, attr, wrapped)
        replaced[id(orig)] = wrapped

    def rebind_defaults(fn) -> None:
        fn = inspect.unwrap(fn)
        if fn.__defaults__:
            fn.__defaults__ = tuple(replaced.get(id(d), d) for d in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: replaced.get(id(d), d) for k, d in fn.__kwdefaults__.items()}

    for name, module in list(sys.modules.items()):
        if name != "corpuskit" and not name.startswith("corpuskit."):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if id(value) in replaced:
                namespace[key] = replaced[id(value)]
            elif inspect.isfunction(value):
                rebind_defaults(value)
            elif inspect.isclass(value) and value.__module__.startswith("corpuskit"):
                for member in vars(value).values():
                    if inspect.isfunction(member):
                        rebind_defaults(member)
