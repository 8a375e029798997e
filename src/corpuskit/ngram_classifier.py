"""Trainable hashed bag-of-n-grams linear classifier.

Stands in for external language-ID and toxicity models: a multinomial
logistic regression over n-gram counts hashed into a fixed bucket space
(the fastText hashing trick). Deterministic given a seed, trainable at desk
scale, no binary model dependencies. Featurization is one numpy kernel,
:func:`featurize_many`, which hashes the n-grams of many texts at once;
callers holding several texts (a document's paragraphs or sentences, a
training set) pass them together. Scoring, the loss and its gradient, and
SGD training share one logits-and-softmax routine, :func:`_probs`, over a
sparse row of bucket indices and counts.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass, field
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


def featurize_many(config: NgramConfig, texts: Sequence[str]) -> list[dict[int, float]]:
    """Hash the configured n-grams of each text into sparse bucket counts.

    An n-gram's key is its UTF-8 bytes (a word n-gram's tokens joined by
    ``0x1f``), hashed with FNV-1a from a seeded offset and mapped to a bucket
    by a multiply-shift; the mapping is pinned so model files are portable.
    Each dict lists its buckets in the order they first occur, orders
    ascending and positions ascending within an order: model scores add the
    terms in that order. No n-gram crosses from one text into the next.
    """
    out: list[dict[int, float]] = [{} for _ in texts]
    kept, per_text, bucket_of_rank = _hash_ngrams(config, texts)
    if not kept:
        return out
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
    keys = bucket_of_rank[is_first].tolist()
    values = count_at[is_first].tolist()
    end = 0
    for i, n_keys in zip(kept, np.bincount(text_of_rank[is_first], minlength=len(kept)).tolist()):
        out[i] = dict(zip(keys[end : end + n_keys], values[end : end + n_keys]))
        end += n_keys
    return out


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
        return self.predict_features(featurize(self.config, text))

    def predict_features(self, feats: dict[int, float]) -> dict[str, float]:
        """Label probabilities of a text featurized with this model's config."""
        return dict(zip(self.labels, _probs(self.weights, self.bias, _sparse(feats), 1.0)))


def _sparse(feats: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """The bucket indices and counts of ``feats``, in its order."""
    idx = np.fromiter(feats.keys(), dtype=np.int64, count=len(feats))
    vals = np.fromiter(feats.values(), dtype=np.float64, count=len(feats))
    return idx, vals


def _probs(weights: np.ndarray, bias: np.ndarray, row: tuple[np.ndarray, np.ndarray], scale: float) -> np.ndarray:
    """Softmax of the logits of one sparse row under the weights
    ``scale * weights``; the terms are added in the order of the row."""
    z = bias.copy()
    idx, vals = row
    if idx.size:
        z += scale * (weights[:, idx] @ vals)
    e = np.exp(z - z.max())
    return e / e.sum()


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
    n = len(features)
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros_like(bias)
    loss = 0.0
    for feats, y in zip(features, label_indices):
        idx, vals = row = _sparse(feats)
        g = _probs(weights, bias, row, 1.0)
        loss -= float(np.log(max(g[y], 1e-300)))
        g[y] -= 1.0
        if idx.size:
            grad_w[:, idx] += np.outer(g, vals)
        grad_b += g
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
    loss = 0.0
    for feats, y in zip(features, label_indices):
        loss -= float(np.log(max(_probs(weights, bias, _sparse(feats), 1.0)[y], 1e-300)))
    loss /= len(features)
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
    feats = featurize_many(features, [text for text, _ in examples])
    ys = [label_index[label] for _, label in examples]

    n_labels = len(labels)
    weights = np.zeros((n_labels, features.hash_buckets))
    bias = np.zeros(n_labels)
    history: list[float] = []

    if config.batch_size == 0:
        _train_full_batch(weights, bias, feats, ys, config, history)
    else:
        _train_sgd(weights, bias, feats, ys, config, history)

    for epoch, loss in enumerate(history):
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss {loss} at epoch {epoch}")
    return NgramModel(config=features, labels=labels, weights=weights, bias=bias, loss_history=history)


def _train_full_batch(weights, bias, feats, ys, config: TrainConfig, history: list[float]) -> None:
    loss, grad_w, grad_b = batch_loss_and_grad(weights, bias, feats, ys, config.l2)
    for _ in range(config.epochs):
        lr = config.learning_rate
        for _ in range(60):  # halve until the step does not increase the loss
            new_w = weights - lr * grad_w
            new_b = bias - lr * grad_b
            new_loss, new_gw, new_gb = batch_loss_and_grad(new_w, new_b, feats, ys, config.l2)
            if new_loss <= loss:
                break
            lr *= 0.5
        else:
            history.append(loss)
            continue
        weights[:], bias[:] = new_w, new_b
        loss, grad_w, grad_b = new_loss, new_gw, new_gb
        history.append(loss)


def _train_sgd(weights, bias, feats, ys, config: TrainConfig, history: list[float]) -> None:
    """Minibatch SGD with lazy L2 decay. Each batch's gradient is one
    scatter over the columns its examples touch; a column shared by several
    examples adds their terms in batch order."""
    rows = [_sparse(f) for f in feats]
    rng = random.Random(config.seed)
    order = list(range(len(rows)))
    scale = 1.0  # lazy L2: true weights = scale * stored weights
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            terms = []
            grad_b = np.zeros_like(bias)
            for j in batch:
                g = _probs(weights, bias, rows[j], scale)
                g[ys[j]] -= 1.0
                terms.append(np.outer(rows[j][1], g))
                grad_b += g
            cols, inverse = np.unique(np.concatenate([rows[j][0] for j in batch]), return_inverse=True)
            grad_w = np.zeros((len(cols), len(bias)))
            np.add.at(grad_w, inverse, np.concatenate(terms))
            lr = config.learning_rate / len(batch)
            if config.l2 > 0:
                scale *= 1.0 - config.learning_rate * config.l2
                if scale < 1e-100:
                    weights *= scale
                    scale = 1.0
            weights[:, cols] -= (lr / scale) * grad_w.T
            bias -= lr * grad_b
        true_w = weights if scale == 1.0 else scale * weights
        history.append(batch_loss(true_w, bias, feats, ys, config.l2))
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
    paragraphs score 0 with the degenerate flag set.
    """
    paragraphs = [para for para in text.split("\n") if para.strip()]
    if not paragraphs:
        return ParagraphScore(0.0, True)
    _check_english(model)
    scores = [model.predict_features(feats)["en"] for feats in featurize_many(model.config, paragraphs)]
    return ParagraphScore(sum(scores) / len(scores), False)


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
        f.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(model.bias, dtype="<f8").tobytes())


class ModelFormatError(ValueError):
    pass


def load_model(path) -> NgramModel:
    with open(path, "rb") as f:
        data = f.read()
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
    weights = np.frombuffer(take(8 * n_labels * buckets), dtype="<f8").reshape(n_labels, buckets).copy()
    bias = np.frombuffer(take(8 * n_labels), dtype="<f8").copy()
    if pos != len(view):
        raise ModelFormatError(f"{len(view) - pos} trailing bytes after model payload")
    return NgramModel(config=config, labels=labels, weights=weights, bias=bias)
