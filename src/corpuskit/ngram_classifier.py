"""Trainable hashed bag-of-n-grams linear classifier.

Stands in for external language-ID and toxicity models: a multinomial
logistic regression over n-gram counts hashed into a fixed bucket space.
Deterministic given a seed, trainable at desk scale, no binary model
dependencies. Any object implementing :class:`Scorer` can be plugged into
the taggers instead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MIX = 0x9E3779B97F4A7C15

MODEL_MAGIC = b"CKNGRAM1"
MODEL_VERSION = 1


class Scorer(Protocol):
    """Anything that maps text to per-label probabilities."""

    labels: list[str]

    def predict_proba(self, text: str) -> dict[str, float]: ...


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
        if not self.ngram_orders or any(n < 1 for n in self.ngram_orders):
            raise ValueError("ngram_orders must be non-empty positive integers")
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = full batch)")


def bucket_hash(data: bytes, seed: int, buckets: int) -> int:
    """Seeded FNV-1a accumulation followed by a multiply-shift to a bucket.

    ``buckets`` must be a power of two; the mapping is pinned here so model
    files are portable across platforms.
    """
    h = (_FNV_OFFSET ^ (seed * _MIX)) & _MASK64
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    shift = 64 - (buckets.bit_length() - 1)
    return ((h * _MIX) & _MASK64) >> shift


def _ngram_keys(config: NgramConfig, text: str):
    if config.feature_kind == "word":
        tokens = text.split()
        for n in config.ngram_orders:
            for i in range(len(tokens) - n + 1):
                yield "\x1f".join(tokens[i : i + n]).encode("utf-8")
    else:
        for n in config.ngram_orders:
            for i in range(len(text) - n + 1):
                yield text[i : i + n].encode("utf-8")


def featurize(config: NgramConfig, text: str) -> dict[int, float]:
    """Hash the configured n-grams into sparse bucket counts."""
    counts: dict[int, float] = {}
    for key in _ngram_keys(config, text):
        bucket = bucket_hash(key, config.hash_seed, config.hash_buckets)
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    return counts


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
        feats = featurize(self.config, text)
        return {label: p for label, p in zip(self.labels, self._probs(feats))}

    def _probs(self, feats: dict[int, float]) -> np.ndarray:
        z = self.bias.copy()
        if feats:
            idx = np.fromiter(feats.keys(), dtype=np.int64, count=len(feats))
            vals = np.fromiter(feats.values(), dtype=np.float64, count=len(feats))
            z += self.weights[:, idx] @ vals
        return _softmax(z)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
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
        z = bias.copy()
        if feats:
            idx = np.fromiter(feats.keys(), dtype=np.int64, count=len(feats))
            vals = np.fromiter(feats.values(), dtype=np.float64, count=len(feats))
            z += weights[:, idx] @ vals
        p = _softmax(z)
        loss -= float(np.log(max(p[y], 1e-300)))
        g = p.copy()
        g[y] -= 1.0
        if feats:
            grad_w[:, idx] += np.outer(g, vals)
        grad_b += g
    loss /= n
    grad_w /= n
    grad_b /= n
    if l2 > 0:
        loss += 0.5 * l2 * float((weights * weights).sum())
        grad_w += l2 * weights
    return loss, grad_w, grad_b


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
    feats = [featurize(features, text) for text, _ in examples]
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
    import random

    rng = random.Random(config.seed)
    order = list(range(len(feats)))
    scale = 1.0  # lazy L2: true weights = scale * stored weights
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_w_cols: dict[int, np.ndarray] = {}
            grad_b = np.zeros_like(bias)
            for j in batch:
                f = feats[j]
                z = bias.copy()
                if f:
                    idx = np.fromiter(f.keys(), dtype=np.int64, count=len(f))
                    vals = np.fromiter(f.values(), dtype=np.float64, count=len(f))
                    z += scale * (weights[:, idx] @ vals)
                p = _softmax(z)
                g = p
                g[ys[j]] -= 1.0
                if f:
                    for col, v in f.items():
                        acc = grad_w_cols.get(col)
                        if acc is None:
                            acc = np.zeros_like(bias)
                            grad_w_cols[col] = acc
                        acc += g * v
                grad_b += g
            lr = config.learning_rate / len(batch)
            if config.l2 > 0:
                scale *= 1.0 - config.learning_rate * config.l2
                if scale < 1e-100:
                    weights *= scale
                    scale = 1.0
            for col, g_col in grad_w_cols.items():
                weights[:, col] -= (lr / scale) * g_col
            bias -= lr * grad_b
        true_w = weights if scale == 1.0 else scale * weights
        loss, _, _ = batch_loss_and_grad(true_w, bias, feats, ys, config.l2)
        history.append(loss)
    if scale != 1.0:
        weights *= scale


def score_english(model: NgramModel, text: str) -> float:
    """P(english); the pipeline keeps documents scoring >= 0.5."""
    if "en" not in model.labels:
        raise ValueError(f"model labels {model.labels} do not include 'en'")
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
    scores = [score_english(model, para) for para in text.split("\n") if para.strip()]
    if not scores:
        return ParagraphScore(0.0, True)
    return ParagraphScore(sum(scores) / len(scores), False)


def save_model(model: NgramModel, path) -> None:
    """Binary layout: magic, version, feature config, labels, weights, bias.

    All integers little-endian; weights row-major float64. Round-trips are
    bit-exact.
    """
    with open(path, "wb") as f:
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
