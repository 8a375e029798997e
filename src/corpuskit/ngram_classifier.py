"""Trainable hashed bag-of-n-grams linear classifier.

Stands in for external language-ID and toxicity models: a multinomial
logistic regression over n-gram counts hashed into a fixed bucket space
(the fastText hashing trick). Deterministic given a seed, trainable at desk
scale, no binary model dependencies. Featurization is one numpy kernel,
:func:`featurize_rows`, which hashes the n-grams of many texts at once into
sparse rows of bucket indices and counts; callers holding several texts (a
document's paragraphs or sentences, a training set) pass them together.
Scoring, the loss and its gradient, and SGD training share one
logits-and-softmax routine over a batch of sparse rows, :func:`_probs`.
"""

from __future__ import annotations

import math
import mmap
import random
import struct
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import NamedTuple, Sequence

import numpy as np

from corpuskit.shard_io import atomic_output

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = np.uint64(0x100000001B3)
_MIX = 0x9E3779B97F4A7C15
_MIX64 = np.uint64(_MIX)

MODEL_MAGIC = b"CKNGRAM1"
MODEL_VERSION = 1


class TrainingError(RuntimeError):
    pass


# Default shapes mirror the replaced tools: char 2..5-grams for language ID,
# word unigrams+bigrams for toxicity.
DEFAULT_NGRAM_ORDERS = {"word": (1, 2), "char": (2, 3, 4, 5)}


@dataclass(frozen=True)
class NgramConfig:
    """Feature extraction parameters; hashed n-gram counts over buckets."""

    hash_buckets: int = 1 << 18
    hash_seed: int = 0
    ngram_orders: tuple[int, ...] | None = None  # None: the default orders of the feature kind
    feature_kind: str = "word"  # "word" or "char"

    def __post_init__(self) -> None:
        if self.hash_buckets <= 0 or self.hash_buckets & (self.hash_buckets - 1):
            raise ValueError("hash_buckets must be a positive power of two")
        if self.feature_kind not in DEFAULT_NGRAM_ORDERS:
            raise ValueError(f"feature_kind must be 'word' or 'char', got {self.feature_kind!r}")
        if self.ngram_orders is None:
            object.__setattr__(self, "ngram_orders", DEFAULT_NGRAM_ORDERS[self.feature_kind])
        if not self.ngram_orders or any(not 1 <= n <= 255 for n in self.ngram_orders):
            raise ValueError(f"ngram_orders must be non-empty and fit a byte, in [1, 255]; got {self.ngram_orders}")
        object.__setattr__(self, "ngram_orders", tuple(sorted(set(self.ngram_orders))))
        object.__setattr__(self, "hash_seed", self.hash_seed & _MASK64)


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.5
    l2: float = 0.0
    seed: int = 0
    batch_size: int = 1  # 0 = full batch (line-searched gradient descent)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = full batch)")


def _segments(config: NgramConfig, texts: Sequence[str]):
    """The UTF-8 bytes of the texts that hold an n-gram, the byte range of
    each of their units (code points or tokens), and their unit counts.

    Tokens are joined by ``0x1f``: ``str.split`` never leaves it in a token
    and UTF-8 never uses it inside another character, so it marks token
    boundaries and is the byte before every token but a text's first. A text
    with fewer units than the smallest order is left out; it has no n-gram,
    so none of its bytes is ever encoded.
    """
    shortest = config.ngram_orders[0]
    if config.feature_kind == "word":
        units = [text.split() for text in texts]
        kept = [i for i, tokens in enumerate(units) if len(tokens) >= shortest]
        sizes = [len(units[i]) for i in kept]
        data = "\x1f".join(token for i in kept for token in units[i]).encode("utf-8")
        buf = np.frombuffer(data, dtype=np.uint8)
        seps = np.flatnonzero(buf == 0x1F)
        starts = np.concatenate(([0], seps + 1))
        ends = np.append(seps, len(buf))
    else:
        kept = [i for i, text in enumerate(texts) if len(text) >= shortest]
        sizes = [len(texts[i]) for i in kept]
        buf = np.frombuffer("".join(texts[i] for i in kept).encode("utf-8"), dtype=np.uint8)
        # a code point starts at every byte that is not a continuation byte
        starts = np.flatnonzero((buf & 0xC0) != 0x80)
        ends = np.append(starts[1:], len(buf))
    return kept, buf, starts, ends, np.array(sizes, dtype=np.int64)


def _fnv_continue(h: np.ndarray, buf: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Continue each FNV-1a state ``h[i]`` through ``buf[lo[i] : lo[i] + length[i]]``
    (every length at least 1), one byte position at a time over the states
    that still have bytes left."""
    h = (h ^ buf[lo]) * _FNV_PRIME
    rest = np.flatnonzero(length > 1)
    k = 1
    while rest.size:
        h[rest] = (h[rest] ^ buf[lo[rest] + k]) * _FNV_PRIME
        k += 1
        rest = rest[length[rest] > k]
    return h


def _hash_ngrams(config: NgramConfig, texts: Sequence[str]):
    """The texts that hold an n-gram, their n-gram counts, and the bucket of
    every n-gram, ranked text by text, then order by order, then by position.

    All texts are hashed at once over every n-gram start. FNV-1a is a
    streaming hash, so the state of an n-gram continues into the (n+1)-gram
    through the next unit's bytes (for words, ``0x1f`` and the next token).
    """
    kept, buf, starts, ends, sizes = _segments(config, texts)
    if not kept:
        return kept, sizes, np.empty(0, dtype=np.uint64)
    first_unit = np.cumsum(sizes) - sizes
    text_of_unit = np.repeat(np.arange(len(kept)), sizes)
    units_left = (first_unit + sizes)[text_of_unit] - np.arange(len(starts))
    # the n-gram of the k-th order starting at unit i of text t has rank offset[t] + i
    per_order = [np.maximum(sizes - n + 1, 0) for n in config.ngram_orders]
    per_text = sum(per_order)
    offset = np.cumsum(per_text) - per_text - first_unit
    bucket_of_rank = np.empty(int(per_text.sum()), dtype=np.uint64)

    shift = np.uint64(64 - (config.hash_buckets.bit_length() - 1))
    seeded = (_FNV_OFFSET ^ (config.hash_seed * _MIX)) & _MASK64
    h = np.full(len(starts), seeded, dtype=np.uint64)
    pos = np.arange(len(starts))  # the start unit of each n-gram still growing
    lead = 1 if config.feature_kind == "word" else 0
    emitted = 0
    for n in range(1, config.ngram_orders[-1] + 1):
        growing = units_left[pos] >= n
        pos, h = pos[growing], h[growing]
        unit = pos + (n - 1)
        lo = starts[unit] - (lead if n > 1 else 0)
        h = _fnv_continue(h, buf, lo, ends[unit] - lo)
        if n in config.ngram_orders:
            bucket_of_rank[offset[text_of_unit[pos]] + pos] = (h * _MIX64) >> shift
            offset = offset + per_order[emitted]
            emitted += 1
    return kept, per_text, bucket_of_rank


Rows = tuple[np.ndarray, np.ndarray, np.ndarray]  # (indices, counts, offsets); see featurize_rows


def featurize_rows(config: NgramConfig, texts: Sequence[str]) -> Rows:
    """Hash the configured n-grams of each text into sparse bucket counts,
    as rows ``(indices, counts, offsets)``: the buckets of text ``i`` are
    ``indices[offsets[i] : offsets[i + 1]]`` (int64) and their counts the
    same slice of ``counts`` (float64). A text without an n-gram has an
    empty row.

    An n-gram's key is its UTF-8 bytes (a word n-gram's tokens joined by
    ``0x1f``), hashed with FNV-1a from a seeded offset and mapped to a bucket
    by a multiply-shift; the mapping is pinned so model files are portable.
    Each row lists its buckets in the order they first occur, orders
    ascending and positions ascending within an order: model scores add the
    terms in that order. No n-gram crosses from one text into the next.
    """
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    kept, per_text, bucket_of_rank = _hash_ngrams(config, texts)
    if not kept:
        return np.empty(0, dtype=np.int64), np.empty(0), offsets
    # group equal (text, bucket) pairs; a group is counted at its first rank
    total = len(bucket_of_rank)
    if config.hash_buckets <= 1 << 32 and total <= 1 << 32:  # sort (bucket, rank) packed in one word
        packed = bucket_of_rank << np.uint64(32)
        packed |= np.arange(total, dtype=np.uint64)
        packed.sort()
        buckets = packed >> np.uint64(32)
        packed &= np.uint64(0xFFFFFFFF)
        ranks = packed.view(np.int64)
    else:
        ranks = np.argsort(bucket_of_rank, kind="stable")
        buckets = bucket_of_rank[ranks]
    text_of_rank = np.repeat(np.arange(len(kept), dtype=np.int32), per_text)
    text_of = text_of_rank[ranks]
    first = np.ones(total, dtype=bool)
    first[1:] = (buckets[1:] != buckets[:-1]) | (text_of[1:] != text_of[:-1])
    first = np.flatnonzero(first)
    count_at = np.zeros(total)
    count_at[ranks[first]] = np.diff(np.append(first, total))
    is_first = count_at > 0
    offsets[np.array(kept) + 1] = np.bincount(text_of_rank[is_first], minlength=len(kept))
    np.cumsum(offsets, out=offsets)
    return bucket_of_rank[is_first].astype(np.int64), count_at[is_first], offsets


def featurize_many(config: NgramConfig, texts: Sequence[str]) -> list[dict[int, float]]:
    """The rows of :func:`featurize_rows` as one ordered dict per text."""
    indices, counts, offsets = featurize_rows(config, texts)
    keys, values, bounds = indices.tolist(), counts.tolist(), offsets.tolist()
    return [dict(zip(keys[lo:hi], values[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def featurize(config: NgramConfig, text: str) -> dict[int, float]:
    """Hash the configured n-grams of one text into sparse bucket counts."""
    return featurize_many(config, [text])[0]


@dataclass
class NgramModel:
    """Softmax linear model over hashed n-gram counts."""

    config: NgramConfig
    labels: list[str]
    weights: np.ndarray  # [labels, buckets] float64
    bias: np.ndarray  # [labels] float64
    loss_history: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.labels or len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be non-empty and unique")
        if self.weights.shape != (len(self.labels), self.config.hash_buckets):
            raise ValueError("weights shape does not match labels x buckets")
        if not np.all(np.isfinite(self.weights)) or not np.all(np.isfinite(self.bias)):
            raise ValueError("weights and bias must be finite")

    def predict_proba(self, text: str) -> dict[str, float]:
        return dict(zip(self.labels, self.predict_rows(featurize_rows(self.config, [text]))[:, 0].tolist()))

    def predict_rows(self, rows: Rows) -> np.ndarray:
        """Label probabilities of rows featurized with this model's config
        (:func:`featurize_rows`), as a (labels x rows) matrix."""
        return _probs(self.weights, self.bias, rows, 1.0)


def _rows(features: Sequence[dict[int, float]]) -> Rows:
    """Featurized dicts as the rows of :func:`featurize_rows`, each in its dict's order."""
    offsets = np.fromiter(accumulate(map(len, features), initial=0), dtype=np.int64, count=len(features) + 1)
    total = int(offsets[-1])
    indices = np.fromiter(chain.from_iterable(features), dtype=np.int64, count=total)
    counts = np.fromiter(chain.from_iterable(f.values() for f in features), dtype=np.float64, count=total)
    return indices, counts, offsets


def _probs(weights: np.ndarray, bias: np.ndarray, rows: Rows, scale: float) -> np.ndarray:
    """Softmax of the logits of sparse rows under the weights ``scale * weights``,
    as a (labels x rows) matrix.

    Row ``j`` is ``indices[offsets[j] : offsets[j + 1]]`` with its counts;
    ``offsets`` may start past 0. A row's logits are one dot product, adding
    its terms in the row's order, times ``scale``, plus the bias; one exp and
    one division then cover every row. The logits are laid out one row of
    memory per text so that each softmax reduces over contiguous values, as
    it would over one text's vector: numpy adds a contiguous run of nine or
    more values pairwise, but down a column one after another. One row, as
    an SGD step of one example scores, takes the same steps on vectors,
    without the loop and the logits matrix.
    """
    indices, counts, offsets = rows
    if len(offsets) == 2:
        lo, hi = offsets.tolist()
        z = bias + scale * (weights[:, indices[lo:hi]] @ counts[lo:hi])
        e = np.exp(z - z.max())
        return (e / e.sum())[:, None]
    bounds = offsets.tolist()
    first = bounds[0]
    columns = weights[:, indices[first : bounds[-1]]]  # one gather: a gather per row costs more than its dot
    dots = np.zeros((len(bounds) - 1, len(bias)))
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo < hi:
            dots[j] = columns[:, lo - first : hi - first] @ counts[lo:hi]
    z = bias + scale * dots
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).T


def predict(model: NgramModel, text: str) -> dict[str, float]:
    return model.predict_proba(text)


def batch_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    features: Sequence[dict[int, float]],
    label_indices: Sequence[int],
    l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy plus (l2/2)*||W||^2, with its exact gradient."""
    return _loss_and_grad(weights, bias, _rows(features), label_indices, l2)


def _loss_and_grad(weights, bias, rows: Rows, ys: Sequence[int], l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`batch_loss_and_grad` over rows; the examples are added in order."""
    probs = _probs(weights, bias, rows, 1.0)
    indices, counts, offsets = rows
    bounds = offsets.tolist()
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros_like(bias)
    loss = 0.0
    for j, y in enumerate(ys):
        g = probs[:, j]
        loss -= float(np.log(max(g[y], 1e-300)))
        g[y] -= 1.0
        lo, hi = bounds[j], bounds[j + 1]
        if lo < hi:
            grad_w[:, indices[lo:hi]] += np.outer(g, counts[lo:hi])
        grad_b += g
    n = len(ys)
    loss /= n
    grad_w /= n
    grad_b /= n
    if l2 > 0:
        loss += 0.5 * l2 * float((weights * weights).sum())
        grad_w += l2 * weights
    return loss, grad_w, grad_b


def batch_loss(
    weights: np.ndarray,
    bias: np.ndarray,
    features: Sequence[dict[int, float]],
    label_indices: Sequence[int],
    l2: float,
) -> float:
    """The loss of :func:`batch_loss_and_grad`, without the gradient."""
    return _loss(weights, bias, _rows(features), label_indices, l2)


def _loss(weights, bias, rows: Rows, ys: Sequence[int], l2: float) -> float:
    """:func:`batch_loss` over rows; the examples are added in order."""
    loss = 0.0
    for p in _probs(weights, bias, rows, 1.0)[ys, np.arange(len(ys))].tolist():
        loss -= float(np.log(max(p, 1e-300)))
    loss /= len(ys)
    if l2 > 0:
        loss += 0.5 * l2 * float((weights * weights).sum())
    return loss


def train(
    examples: Sequence[tuple[str, str]],
    config: TrainConfig | None = None,
    features: NgramConfig | None = None,
) -> NgramModel:
    """Fit a softmax regression on (text, label) pairs.

    Per-example SGD by default; ``batch_size=0`` switches to full-batch
    gradient descent with step halving, which keeps the epoch loss
    non-increasing. Deterministic given the seed.
    """
    config = config or TrainConfig()
    features = features or NgramConfig()
    labels = sorted({label for _, label in examples})
    if len(labels) < 2:
        raise ValueError(f"need at least 2 distinct labels, got {labels}")
    label_index = {label: i for i, label in enumerate(labels)}
    rows = featurize_rows(features, [text for text, _ in examples])
    ys = [label_index[label] for _, label in examples]

    n_labels = len(labels)
    weights = np.zeros((n_labels, features.hash_buckets))
    bias = np.zeros(n_labels)
    history: list[float] = []

    if config.batch_size == 0:
        _train_full_batch(weights, bias, rows, ys, config, history)
    else:
        _train_sgd(weights, bias, rows, ys, config, history)

    for epoch, loss in enumerate(history):
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss {loss} at epoch {epoch}")
    return NgramModel(config=features, labels=labels, weights=weights, bias=bias, loss_history=history)


def _train_full_batch(weights, bias, rows: Rows, ys, config: TrainConfig, history: list[float]) -> None:
    loss, grad_w, grad_b = _loss_and_grad(weights, bias, rows, ys, config.l2)
    for _ in range(config.epochs):
        lr = config.learning_rate
        for _ in range(60):  # halve until the step does not increase the loss
            new_w = weights - lr * grad_w
            new_b = bias - lr * grad_b
            new_loss, new_gw, new_gb = _loss_and_grad(new_w, new_b, rows, ys, config.l2)
            if new_loss <= loss:
                break
            lr *= 0.5
        else:
            history.append(loss)
            continue
        weights[:], bias[:] = new_w, new_b
        loss, grad_w, grad_b = new_loss, new_gw, new_gb
        history.append(loss)


def _take(rows: Rows, order: Sequence[int]) -> Rows:
    """The rows at ``order``, in that order."""
    indices, counts, offsets = rows
    order = np.asarray(order, dtype=np.int64)
    sizes = np.diff(offsets)[order]
    taken = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(sizes, out=taken[1:])
    at = np.repeat(offsets[order] - taken[:-1], sizes) + np.arange(taken[-1])
    return indices[at], counts[at], taken


def _train_sgd(weights, bias, rows: Rows, ys, config: TrainConfig, history: list[float]) -> None:
    """Minibatch SGD with lazy L2 decay. Each batch is scored in one call.
    A one-example step updates its row's buckets directly: they are
    distinct, so each gets its one term. A larger batch's gradient is one
    scatter over the columns its examples touch; a column shared by several
    examples adds their terms in batch order."""
    rng = random.Random(config.seed)
    order = list(range(len(ys)))
    scale = 1.0  # lazy L2: true weights = scale * stored weights
    for _ in range(config.epochs):
        rng.shuffle(order)
        indices, counts, offsets = _take(rows, order)
        bounds = offsets.tolist()
        for start in range(0, len(order), config.batch_size):
            stop = min(start + config.batch_size, len(order))
            probs = _probs(weights, bias, (indices, counts, offsets[start : stop + 1]), scale)
            terms = []
            for k in range(start, stop):
                g = probs[:, k - start]
                g[ys[order[k]]] -= 1.0
                terms.append(np.outer(counts[bounds[k] : bounds[k + 1]], g))
                # the first term is the sum so far as it is: 0.0 + g is g, bit for bit
                grad_b = g if k == start else grad_b + g
            if stop - start == 1:
                cols, grad_w = indices[bounds[start] : bounds[stop]], terms[0]
            else:
                cols, inverse = np.unique(indices[bounds[start] : bounds[stop]], return_inverse=True)
                grad_w = np.zeros((len(cols), len(bias)))
                np.add.at(grad_w, inverse, np.concatenate(terms))
            lr = config.learning_rate / (stop - start)
            if config.l2 > 0:
                scale *= 1.0 - config.learning_rate * config.l2
                if scale < 1e-100:
                    weights *= scale
                    scale = 1.0
            weights[:, cols] -= (lr / scale) * grad_w.T
            bias -= lr * grad_b
        true_w = weights if scale == 1.0 else scale * weights
        history.append(_loss(true_w, bias, rows, ys, config.l2))
    if scale != 1.0:
        weights *= scale


def _check_english(model: NgramModel) -> None:
    if "en" not in model.labels:
        raise ValueError(f"model labels {model.labels} do not include 'en'")


def score_english(model: NgramModel, text: str) -> float:
    """P(english); the pipeline keeps documents scoring >= 0.5."""
    _check_english(model)
    return model.predict_proba(text)["en"]


ENGLISH_KEEP_THRESHOLD = 0.5


def keeps_english(model: NgramModel, text: str) -> bool:
    return score_english(model, text) >= ENGLISH_KEEP_THRESHOLD


class ParagraphScore(NamedTuple):
    score: float
    degenerate: bool  # no non-empty paragraphs to score


def score_language_paragraph_avg(model: NgramModel, text: str) -> ParagraphScore:
    """Mean per-paragraph English score over non-empty paragraphs.

    Documents averaging below 0.5 are droppable; texts with no non-empty
    paragraphs score 0 with the degenerate flag set. This is
    :func:`score_language_paragraph_avg_many` on one text.
    """
    return score_language_paragraph_avg_many(model, [text])[0]


def score_language_paragraph_avg_many(model: NgramModel, texts: Sequence[str]) -> list[ParagraphScore]:
    """:func:`score_language_paragraph_avg` of each text, in order; the
    paragraphs of all the texts are featurized and scored in one call."""
    paragraphs = [[para for para in text.split("\n") if para.strip()] for text in texts]
    flat = [para for paras in paragraphs for para in paras]
    scores = []
    if flat:
        _check_english(model)
        scores = model.predict_rows(featurize_rows(model.config, flat))[model.labels.index("en")].tolist()
    results, start = [], 0
    for paras in paragraphs:
        if not paras:
            results.append(ParagraphScore(0.0, True))
            continue
        mine = scores[start : start + len(paras)]
        start += len(paras)
        results.append(ParagraphScore(sum(mine) / len(mine), False))
    return results


def save_model(model: NgramModel, path) -> None:
    """Binary layout: magic, version, feature config, labels, weights, bias.

    All integers little-endian; weights row-major float64. Round-trips are
    bit-exact.
    """
    with atomic_output(path) as tmp, open(tmp, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<I", MODEL_VERSION))
        kind = 0 if model.config.feature_kind == "word" else 1
        f.write(struct.pack("<BQQ", kind, model.config.hash_seed & _MASK64, model.config.hash_buckets))
        f.write(struct.pack("<B", len(model.config.ngram_orders)))
        f.write(struct.pack(f"<{len(model.config.ngram_orders)}B", *model.config.ngram_orders))
        f.write(struct.pack("<I", len(model.labels)))
        for label in model.labels:
            raw = label.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
        f.write(memoryview(np.ascontiguousarray(model.weights, dtype="<f8")))
        f.write(memoryview(np.ascontiguousarray(model.bias, dtype="<f8")))


class ModelFormatError(ValueError):
    pass


def load_model(path) -> NgramModel:
    """Read a model written by :func:`save_model`. Its weights and bias are
    read-only views over the file mapped read-only (``mmap``), not copies
    of it, so the processes loading one model share its pages in the page
    cache. The mapping holds a file descriptor for as long as the model
    lives. A model file replaced while it is mapped (as :func:`save_model`
    replaces it, through ``atomic_output``) leaves the loaded model as it
    was; a file truncated in place would raise SIGBUS when the model reads
    past its new end, so corpuskit writes model files only through
    ``atomic_output``."""
    with open(path, "rb") as f:
        try:
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # an empty file cannot be mapped; it is a truncated model file
            data = b""
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ModelFormatError(f"truncated model file (need {n} bytes at offset {pos})")
        out = view[pos : pos + n]
        pos += n
        return out

    if bytes(take(8)) != MODEL_MAGIC:
        raise ModelFormatError("bad magic; not a model file")
    (version,) = struct.unpack("<I", take(4))
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    kind, seed, buckets = struct.unpack("<BQQ", take(17))
    if kind not in (0, 1):
        raise ModelFormatError(f"unknown feature kind byte {kind} (0 is word, 1 is char)")
    (n_orders,) = struct.unpack("<B", take(1))
    orders = struct.unpack(f"<{n_orders}B", take(n_orders))
    (n_labels,) = struct.unpack("<I", take(4))
    labels = []
    for _ in range(n_labels):
        (ln,) = struct.unpack("<I", take(4))
        labels.append(bytes(take(ln)).decode("utf-8"))
    config = NgramConfig(
        hash_buckets=buckets,
        hash_seed=seed,
        ngram_orders=orders,
        feature_kind="word" if kind == 0 else "char",
    )
    weights = np.frombuffer(take(8 * n_labels * buckets), dtype="<f8").reshape(n_labels, buckets)
    bias = np.frombuffer(take(8 * n_labels), dtype="<f8")
    if pos != len(view):
        raise ModelFormatError(f"{len(view) - pos} trailing bytes after model payload")
    return NgramModel(config=config, labels=labels, weights=weights, bias=bias)
