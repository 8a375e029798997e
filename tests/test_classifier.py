import copy
import dataclasses
import hashlib
import mmap
import random
import re
import string
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpuskit.documents import AttributeSpan, Document
from corpuskit.ngram_classifier import (
    ENGLISH_KEEP_THRESHOLD,
    ModelFormatError,
    NgramConfig,
    NgramModel,
    TrainConfig,
    _probs,
    batch_loss,
    batch_loss_and_grad,
    featurize,
    featurize_many,
    featurize_rows,
    keeps_english,
    load_model,
    predict,
    save_model,
    score_english,
    score_language_paragraph_avg,
    score_language_paragraph_avg_many,
    train,
)
from corpuskit.pii import ContentTagConfig
from corpuskit.sentences import _boundaries, split_sentences
from corpuskit.toxicity import TOXIC_LABEL, tag_toxicity, tag_toxicity_many

WORD_CFG = NgramConfig(hash_buckets=1 << 10, ngram_orders=(1,), feature_kind="word")

_MASK64 = (1 << 64) - 1


def bucket_hash(data: bytes, seed: int, buckets: int) -> int:
    """Reference hash, one byte at a time: seeded FNV-1a, then a multiply-shift."""
    h = (0xCBF29CE484222325 ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    shift = 64 - (buckets.bit_length() - 1)
    return ((h * 0x9E3779B97F4A7C15) & _MASK64) >> shift


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


def reference_featurize(config: NgramConfig, text: str) -> dict[int, float]:
    """The scalar oracle: every n-gram hashed on its own, counted in order."""
    counts: dict[int, float] = {}
    for key in _ngram_keys(config, text):
        bucket = bucket_hash(key, config.hash_seed, config.hash_buckets)
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    return counts


def reference_probs(weights, bias, row, scale) -> np.ndarray:
    """The one-row softmax every caller used before rows were scored in
    batches: the logits of one sparse row, then exp and one division over
    its vector."""
    z = bias.copy()
    idx, vals = row
    if idx.size:
        z += scale * (weights[:, idx] @ vals)
    e = np.exp(z - z.max())
    return e / e.sum()


def reference_predict(model: NgramModel, text: str) -> dict[str, float]:
    """Label probabilities of one text by the scalar featurization and the one-row softmax."""
    feats = reference_featurize(model.config, text)
    row = (np.array(list(feats), dtype=np.int64), np.array(list(feats.values()), dtype=np.float64))
    return dict(zip(model.labels, reference_probs(model.weights, model.bias, row, 1.0)))


def zero_model(labels=("en", "xx"), config=WORD_CFG) -> NgramModel:
    return NgramModel(
        config=config,
        labels=list(labels),
        weights=np.zeros((len(labels), config.hash_buckets)),
        bias=np.zeros(len(labels)),
    )


def separable_examples(n_per_class=100, seed=0):
    rng = random.Random(seed)
    a_words = ["alpha", "apple", "anchor", "amber"]
    b_words = ["zulu", "zebra", "zephyr", "zinc"]
    out = []
    for _ in range(n_per_class):
        out.append((" ".join(rng.choice(a_words) for _ in range(8)), "en"))
        out.append((" ".join(rng.choice(b_words) for _ in range(8)), "xx"))
    return out


class TestFeaturize:
    def test_empty_text(self):
        assert featurize(WORD_CFG, "") == {}

    def test_repeated_unigram_counts(self):
        vec = featurize(WORD_CFG, "a a")
        assert list(vec.values()) == [2.0]

    def test_char_bigrams_match_reference_hash(self):
        cfg = NgramConfig(hash_buckets=1 << 10, ngram_orders=(2,), feature_kind="char")
        vec = featurize(cfg, "abc")
        expected = {}
        for gram in (b"ab", b"bc"):
            b = bucket_hash(gram, cfg.hash_seed, cfg.hash_buckets)
            expected[b] = expected.get(b, 0.0) + 1.0
        assert vec == expected

    def test_word_ngram_keys_distinguish_token_boundaries(self):
        cfg = NgramConfig(hash_buckets=1 << 16, ngram_orders=(2,), feature_kind="word")
        assert featurize(cfg, "ab c") != featurize(cfg, "a bc")

    def test_deterministic_for_fixed_seed(self):
        assert featurize(WORD_CFG, "x y z") == featurize(WORD_CFG, "x y z")

    @given(st.lists(st.sampled_from(["red", "green", "blue", "cyan"]), max_size=12))
    def test_unigram_vector_is_permutation_covariant(self, tokens):
        rng = random.Random(42)
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        assert featurize(WORD_CFG, " ".join(tokens)) == featurize(WORD_CFG, " ".join(shuffled))


# any code point but a lone surrogate (astral ones included), with the
# separators the two feature kinds split or join on drawn often
_TEXTS = st.text(
    alphabet=st.one_of(
        st.sampled_from(" \t\n\x1f\x0b\u3000ab"), st.characters(exclude_categories=("Cs",))
    ),
    max_size=40,
)
_CONFIGS = st.builds(
    NgramConfig,
    hash_buckets=st.sampled_from([1, 1 << 10, 1 << 18, 1 << 40]),
    hash_seed=st.sampled_from([0, 12345, (1 << 64) - 1]),
    ngram_orders=st.sampled_from([(1,), (1, 2), (2, 3, 4, 5), (1, 3, 7)]),
    feature_kind=st.sampled_from(["word", "char"]),
)


class TestKernelMatchesScalarOracle:
    """The vectorized kernel against the per-n-gram reference, key order
    included: model scores add their terms in dict order."""

    @settings(max_examples=400)
    @given(_CONFIGS, _TEXTS)
    def test_featurize_equals_oracle_in_order(self, config, text):
        assert list(featurize(config, text).items()) == list(reference_featurize(config, text).items())

    @settings(max_examples=200)
    @given(_CONFIGS, st.lists(_TEXTS, max_size=8))
    def test_featurize_many_equals_per_text_oracle(self, config, texts):
        got = [list(feats.items()) for feats in featurize_many(config, texts)]
        assert got == [list(reference_featurize(config, text).items()) for text in texts]

    @settings(max_examples=200)
    @given(_CONFIGS, st.lists(_TEXTS, max_size=8))
    def test_featurize_rows_equal_featurize_many_row_by_row(self, config, texts):
        indices, counts, offsets = featurize_rows(config, texts)
        assert (indices.dtype, counts.dtype, offsets.dtype) == (np.int64, np.float64, np.int64)
        assert len(offsets) == len(texts) + 1 and offsets[0] == 0 and offsets[-1] == len(indices) == len(counts)
        bounds = offsets.tolist()
        rows = [list(zip(indices[lo:hi].tolist(), counts[lo:hi].tolist())) for lo, hi in zip(bounds, bounds[1:])]
        assert rows == [list(feats.items()) for feats in featurize_many(config, texts)]
        assert rows == [list(reference_featurize(config, text).items()) for text in texts]

    @pytest.mark.parametrize("kind, texts", [("char", ["a", "b"]), ("word", ["a", "b"])])
    def test_no_ngram_crosses_texts(self, kind, texts):
        config = NgramConfig(hash_buckets=1 << 10, ngram_orders=(2,), feature_kind=kind)
        assert featurize_many(config, texts) == [{}, {}]

    @pytest.mark.parametrize(
        "kind, orders, text",
        [
            ("char", (2,), "\ud800"),  # shorter than the smallest order
            ("char", (2,), "a\ud800"),
            ("char", (1, 3), "ab\udfff"),
            ("word", (2,), "x\ud800"),  # one token
            ("word", (1,), "x \ud800y"),
            ("word", (2, 3), "a b \ud800"),
        ],
    )
    def test_lone_surrogates_fail_where_the_oracle_does(self, kind, orders, text):
        config = NgramConfig(hash_buckets=1 << 10, ngram_orders=orders, feature_kind=kind)
        try:
            expected = reference_featurize(config, text)
        except UnicodeEncodeError:
            with pytest.raises(UnicodeEncodeError):
                featurize(config, text)
        else:
            assert expected == {}
            assert featurize(config, text) == {}
            assert featurize_many(config, [text, "a b c"])[0] == {}


def reference_train_sgd(weights, bias, feats, ys, config: TrainConfig, history: list[float]) -> None:
    """The SGD loop before ``_probs`` served training: logits and softmax
    inline, and the gradient added up one column at a time in a dict."""
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
                e = np.exp(z - z.max())
                g = e / e.sum()
                g[ys[j]] -= 1.0
                for col, v in f.items():
                    acc = grad_w_cols.get(col)
                    if acc is None:
                        grad_w_cols[col] = g * v
                    else:
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
        history.append(batch_loss(true_w, bias, feats, ys, config.l2))
    if scale != 1.0:
        weights *= scale


@st.composite
def scoring_batches(draw):
    """Weights, bias, scale and sparse rows over 64 buckets, so rows share
    buckets; a row may be empty, or long enough for several blocks of the
    BLAS dot kernel. Nine labels or more make numpy sum each softmax pairwise."""
    n_labels = draw(st.sampled_from([2, 3, 4, 5, 9, 12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = draw(st.sampled_from([1.0, 40.0]))
    weights = rng.normal(size=(n_labels, 64)) * magnitude
    bias = draw(st.sampled_from([rng.normal(size=n_labels) * magnitude, np.zeros(n_labels), np.full(n_labels, -0.0)]))
    scale = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3, 1e-120]))
    n_rows = draw(st.sampled_from([0, 1, 2, 5, 40]))
    rows = [
        (
            np.array(buckets, dtype=np.int64),
            np.array(draw(st.lists(st.integers(1, 4), min_size=len(buckets), max_size=len(buckets))), dtype=np.float64),
        )
        for buckets in (draw(st.lists(st.integers(0, 63), unique=True, max_size=40)) for _ in range(n_rows))
    ]
    return weights, bias, scale, rows


class TestBatchedScorer:
    """``_probs`` over a batch against the one-row softmax it replaced, as
    bytes: numpy's SIMD exp runs over a matrix in the batch and over a
    vector in the oracle."""

    @settings(max_examples=300)
    @given(scoring_batches(), st.integers(0, 3))
    def test_every_column_equals_one_row_oracle_as_bytes(self, batch, skip):
        weights, bias, scale, rows = batch
        offsets = np.cumsum([0] + [len(idx) for idx, _ in rows])
        indices = np.concatenate([np.empty(0, dtype=np.int64)] + [idx for idx, _ in rows])
        counts = np.concatenate([np.empty(0)] + [vals for _, vals in rows])
        expected = [reference_probs(weights, bias, row, scale).tobytes() for row in rows]
        probs = _probs(weights, bias, (indices, counts, offsets), scale)
        assert probs.shape == (len(bias), len(rows))
        assert [probs[:, j].tobytes() for j in range(len(rows))] == expected
        # offsets past 0 select the later rows, as each SGD minibatch does
        skip = min(skip, len(rows))
        later = _probs(weights, bias, (indices, counts, offsets[skip:]), scale)
        assert [later[:, j].tobytes() for j in range(later.shape[1])] == expected[skip:]


@st.composite
def sgd_runs(draw):
    """A small labelled corpus whose texts repeat (so batches share columns)
    and may be empty, with a feature kind and an SGD config."""
    vocab = ["the", "river", "zxqv", "смех", "日本語", "a"]
    pool = draw(st.lists(st.lists(st.sampled_from(vocab), max_size=6).map(" ".join), min_size=1, max_size=6))
    examples = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(["en", "xx"])), max_size=14))
    examples += [(draw(st.sampled_from(pool)), "en"), (draw(st.sampled_from(pool)), "xx")]
    features = NgramConfig(hash_buckets=1 << 6, feature_kind=draw(st.sampled_from(["word", "char"])))
    config = TrainConfig(
        epochs=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([0.5, 1.0])),
        l2=draw(st.sampled_from([0.0, 1e-3, 0.5])),
        seed=draw(st.integers(0, 2**16)),
        batch_size=draw(st.sampled_from([1, 2, 3, 100])),  # 100: one batch holds the whole corpus
    )
    return examples, config, features


def pinned_corpus():
    rng = random.Random(2024)
    vocab = {
        "en": ["the", "river", "light", "garden", "quiet", "morning", "over", "stone"],
        "xx": ["zxqv", "qqzt", "vxkw", "смех", "日本語", "naïve", "😀", "straße"],
    }
    return [
        (" ".join(rng.choice(vocab[label]) for _ in range(rng.randint(1, 12))), label)
        for _ in range(40)
        for label in ("en", "xx")
    ]


class TestPinnedModels:
    """Model files and losses trained on a fixed corpus, pinned bit for bit
    (digests and losses computed with the scalar per-n-gram featurization,
    and for the last two cases with :func:`reference_train_sgd`; the last
    reaches the ``scale < 1e-100`` renormalisation of lazy L2)."""

    CASES = {
        "char": (
            NgramConfig(hash_buckets=1 << 12, feature_kind="char", hash_seed=7),
            TrainConfig(epochs=3, seed=1, l2=1e-3),
            "0e48799459abd6f7849a90fbb0b26d479fba546d5e89414d3ae1477ece3d4492",
            ["0x1.daaa0ab310e05p-4", "0x1.b36399b0a1e75p-4", "0x1.90e0de9db588ap-4"],
        ),
        "word": (
            NgramConfig(hash_buckets=1 << 12, feature_kind="word", ngram_orders=(1, 2, 3)),
            TrainConfig(epochs=3, seed=2, batch_size=3),
            "089753c65e66a61cb9c08a518bd42285b18dd0a19a2b52645b41560ed40bebd1",
            ["0x1.90d6902664faep-5", "0x1.0522a0c95fcbcp-5", "0x1.890f8af8911f5p-6"],
        ),
        "word-batch4-l2": (
            NgramConfig(hash_buckets=1 << 12, feature_kind="word"),
            TrainConfig(epochs=3, seed=3, batch_size=4, l2=1e-2),
            "cc5ad1b27fc8b6aa22fbe95b5e8a0c753484079981be8e2a26a8426a8df3df70",
            ["0x1.56f8542b545cdp-4", "0x1.1e44495809839p-4", "0x1.0cc67eba475fbp-4"],
        ),
        "word-renormalised": (
            NgramConfig(hash_buckets=1 << 12, feature_kind="word"),
            TrainConfig(epochs=5, seed=4, batch_size=1, learning_rate=1.0, l2=0.5),
            "e4cde5a8e3f83c01c96254418202fcd048d9d724a980d8623522a36a69ec997f",
            [
                "0x1.084f2c60f0db2p-1",
                "0x1.841035312467dp-1",
                "0x1.2d7bad407f0f8p-1",
                "0x1.a6075c397f8e2p-1",
                "0x1.1ccabb91f0d7bp-1",
            ],
        ),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_model_file_and_losses_pinned(self, tmp_path, kind):
        features, config, digest, losses = self.CASES[kind]
        model = train(pinned_corpus(), config, features)
        save_model(model, tmp_path / "model.bin")
        assert hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest() == digest
        assert [loss.hex() for loss in model.loss_history] == losses


class TestTraining:
    def test_separable_classes_reach_high_accuracy(self):
        examples = separable_examples()
        model = train(examples, TrainConfig(epochs=5, learning_rate=0.5, seed=1), WORD_CFG)
        hits = sum(
            1
            for text, label in examples
            if max(predict(model, text).items(), key=lambda kv: kv[1])[0] == label
        )
        assert hits / len(examples) >= 0.99

    def test_single_label_rejected(self):
        with pytest.raises(ValueError):
            train([("a", "only"), ("b", "only")], TrainConfig(epochs=1))

    def test_contradictory_duplicates_score_half_accuracy(self):
        # same text under both labels: whatever the argmax, half those
        # points are right, and the symmetric optimum is 0.5/0.5
        examples = separable_examples(50)
        dups = [("dup dup dup", "en"), ("dup dup dup", "xx")] * 25
        examples += dups
        model = train(examples, TrainConfig(epochs=5, learning_rate=0.5, seed=2), WORD_CFG)
        hits = sum(
            1
            for text, label in dups
            if max(predict(model, text).items(), key=lambda kv: kv[1])[0] == label
        )
        assert hits / len(dups) == 0.5
        balanced = train(
            examples, TrainConfig(epochs=50, learning_rate=1.0, batch_size=0, seed=2), WORD_CFG
        )
        assert predict(balanced, "dup dup dup")["en"] == pytest.approx(0.5, abs=1e-3)

    def test_gradient_matches_central_finite_differences(self):
        cfg = NgramConfig(hash_buckets=64, ngram_orders=(1,), feature_kind="word")
        examples = separable_examples(5)[:10]
        feats = [featurize(cfg, text) for text, _ in examples]
        ys = [0, 1] * 5
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(2, 64)) * 0.1
        bias = rng.normal(size=2) * 0.1
        l2 = 0.01
        _, grad_w, grad_b = batch_loss_and_grad(weights, bias, feats, ys, l2)
        eps = 1e-6

        def loss_at(w, b):
            return batch_loss_and_grad(w, b, feats, ys, l2)[0]

        fd_w = np.zeros_like(grad_w)
        for i in range(2):
            for j in range(64):
                wp, wm = weights.copy(), weights.copy()
                wp[i, j] += eps
                wm[i, j] -= eps
                fd_w[i, j] = (loss_at(wp, bias) - loss_at(wm, bias)) / (2 * eps)
        fd_b = np.zeros_like(grad_b)
        for i in range(2):
            bp, bm = bias.copy(), bias.copy()
            bp[i] += eps
            bm[i] -= eps
            fd_b[i] = (loss_at(weights, bp) - loss_at(weights, bm)) / (2 * eps)
        # vector-norm relative error; per-coordinate ratios drown in FD
        # roundoff where the true gradient is ~1e-6
        rel_w = np.linalg.norm(fd_w - grad_w) / np.linalg.norm(fd_w + grad_w)
        rel_b = np.linalg.norm(fd_b - grad_b) / np.linalg.norm(fd_b + grad_b)
        assert rel_w < 1e-5 and rel_b < 1e-5

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_batch_loss_equals_loss_of_batch_loss_and_grad(self, l2):
        cfg = NgramConfig(hash_buckets=64, ngram_orders=(1, 2), feature_kind="word")
        examples = separable_examples(5)
        feats = featurize_many(cfg, [text for text, _ in examples] + [""])
        ys = [0, 1] * 5 + [1]
        rng = np.random.default_rng(3)
        weights, bias = rng.normal(size=(2, 64)), rng.normal(size=2)
        assert batch_loss(weights, bias, feats, ys, l2) == batch_loss_and_grad(weights, bias, feats, ys, l2)[0]

    def test_full_batch_loss_non_increasing(self):
        examples = separable_examples(30)
        model = train(
            examples, TrainConfig(epochs=15, learning_rate=2.0, batch_size=0, seed=0), WORD_CFG
        )
        hist = model.loss_history
        assert len(hist) == 15
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    def test_deterministic_given_seed(self):
        examples = separable_examples(20)
        m1 = train(examples, TrainConfig(epochs=3, seed=9), WORD_CFG)
        m2 = train(examples, TrainConfig(epochs=3, seed=9), WORD_CFG)
        assert np.array_equal(m1.weights, m2.weights) and np.array_equal(m1.bias, m2.bias)

    def test_l2_shrinks_weights(self):
        examples = separable_examples(20)
        plain = train(examples, TrainConfig(epochs=3, seed=0, l2=0.0), WORD_CFG)
        decayed = train(examples, TrainConfig(epochs=3, seed=0, l2=0.01), WORD_CFG)
        assert np.abs(decayed.weights).sum() < np.abs(plain.weights).sum()

    def test_non_finite_loss_reported_with_epoch(self):
        from corpuskit.ngram_classifier import TrainingError

        examples = separable_examples(10)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch 0"):
            train(examples, TrainConfig(epochs=2, learning_rate=1e308, seed=0), WORD_CFG)

    @given(sgd_runs())
    @settings(max_examples=80, deadline=None)
    def test_sgd_matches_reference_bit_for_bit(self, run):
        examples, config, features = run
        model = train(examples, config, features)
        labels = sorted({label for _, label in examples})
        feats = featurize_many(features, [text for text, _ in examples])
        weights, bias, history = np.zeros((len(labels), features.hash_buckets)), np.zeros(len(labels)), []
        reference_train_sgd(weights, bias, feats, [labels.index(label) for _, label in examples], config, history)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()
        assert [loss.hex() for loss in model.loss_history] == [loss.hex() for loss in history]

    @pytest.mark.parametrize("batch_size, scatters", [(1, False), (3, True)])
    def test_only_batches_of_several_examples_scatter(self, monkeypatch, batch_size, scatters):
        unique, calls = np.unique, []

        def counting_unique(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        train(separable_examples(10), TrainConfig(epochs=2, seed=0, batch_size=batch_size), WORD_CFG)
        assert bool(calls) == scatters

    def test_sgd_records_per_epoch_loss(self):
        examples = separable_examples(20)
        model = train(examples, TrainConfig(epochs=4, seed=0), WORD_CFG)
        assert len(model.loss_history) == 4
        assert model.loss_history[-1] <= model.loss_history[0]


class TestPredict:
    def test_empty_text_gives_bias_prior(self):
        model = zero_model()
        assert predict(model, "") == {"en": 0.5, "xx": 0.5}

    def test_training_example_confident(self):
        examples = separable_examples()
        model = train(examples, TrainConfig(epochs=5, learning_rate=0.5, seed=1), WORD_CFG)
        text, label = examples[0]
        assert predict(model, text)[label] >= 0.9

    @settings(max_examples=300)
    @given(st.text(alphabet=string.printable, max_size=80))
    def test_probabilities_sum_to_one(self, text):
        model = zero_model(("a", "b", "c"))
        probs = predict(model, text)
        assert abs(sum(probs.values()) - 1.0) <= 1e-9
        assert all(0.0 < p < 1.0 for p in probs.values())


class TestEnglishScore:
    def test_missing_en_label_rejected(self):
        with pytest.raises(ValueError):
            score_english(zero_model(("fr", "de")), "text")

    def test_separable_model_keeps_english(self, lang_model):
        assert score_english(lang_model, "the quick brown fox jumps over the river") >= 0.5
        assert score_english(lang_model, "zxqv wqrtz kjxy qqzt vxkw") < 0.5

    def test_score_exactly_half_is_kept(self):
        # zero-weight two-label model scores exactly 0.5
        model = zero_model()
        assert score_english(model, "whatever") == 0.5
        assert keeps_english(model, "whatever")
        assert ENGLISH_KEEP_THRESHOLD == 0.5


class TestParagraphAverage:
    def test_single_paragraph_equals_doc_score(self, lang_model):
        text = "the quick brown fox"
        result = score_language_paragraph_avg(lang_model, text)
        assert not result.degenerate
        assert result.score == pytest.approx(score_english(lang_model, text))

    def test_two_paragraphs_average(self, lang_model):
        p1, p2 = "the quick brown fox jumps", "zxqv wqrtz kjxy"
        s1, s2 = score_english(lang_model, p1), score_english(lang_model, p2)
        result = score_language_paragraph_avg(lang_model, p1 + "\n" + p2)
        assert result.score == pytest.approx((s1 + s2) / 2)

    def test_no_paragraphs_is_degenerate_zero(self, lang_model):
        assert score_language_paragraph_avg(lang_model, "\n\n") == (0.0, True)
        assert score_language_paragraph_avg(lang_model, "") == (0.0, True)

    def test_ten_paragraph_book_fixture(self, lang_model):
        rng = random.Random(3)
        paragraphs = []
        for i in range(10):
            words = ["the", "river", "light", "garden"] if i % 2 == 0 else ["zxqv", "qqzt", "vxkw"]
            paragraphs.append(" ".join(rng.choice(words) for _ in range(12)))
        text = "\n".join(paragraphs)
        expected = sum(score_english(lang_model, p) for p in paragraphs) / 10
        assert score_language_paragraph_avg(lang_model, text).score == pytest.approx(expected)


def random_model(config: NgramConfig, labels, seed: int) -> NgramModel:
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(len(labels), config.hash_buckets))
    return NgramModel(config=config, labels=list(labels), weights=weights, bias=rng.normal(size=len(labels)))


def reference_tag_toxicity(doc: Document, hate, nsfw, config: ContentTagConfig):
    """``tag_toxicity`` before batching: each sentence featurized and scored
    on its own by each model in turn."""
    models = []
    for name, model, tau in (("toxicity__hate", hate, config.hate_threshold), ("toxicity__nsfw", nsfw, config.nsfw_threshold)):
        if model is not None:
            models.append((name, model, config.toxicity_threshold if tau is None else tau))
    data = doc.text_bytes
    attrs = {}
    for span in split_sentences(doc.text):
        sentence = data[span.start : span.end].decode("utf-8").strip()
        if sentence:
            for name, model, tau in models:
                score = reference_predict(model, sentence)[TOXIC_LABEL]
                if score > tau:
                    attrs.setdefault(name, []).append(AttributeSpan(span.start, span.end, score))
    return attrs


def spans_as_bits(attrs):
    return [(name, [(sp.start, sp.end, float(sp.score).hex()) for sp in spans]) for name, spans in attrs.items()]


TAGGER_TEXT = (
    "Lovely weather garden. Hi. Utterly grawlix sklonk morning.\n\n"
    "Thanks lovely coffee! A. Lovely grawlix.\n"
    "zxqv wqrtz kjxy qqzt. The quick brown fox jumps over the lazy dog."
)


class TestTaggersMatchPerRowPath:
    """``tag_toxicity`` and ``score_language_paragraph_avg`` score all of a
    document's sentences or paragraphs in one batch; their spans and score
    floats equal those of the per-row path."""

    def test_tag_toxicity_equals_per_sentence_path(self, hate_model, nsfw_model):
        bigram = random_model(NgramConfig(hash_buckets=1 << 8, ngram_orders=(2,)), ("ok", "toxic"), seed=1)
        shared = random_model(bigram.config, ("toxic", "ok", "other"), seed=2)  # the same featurization
        doc = Document(id="d", text=TAGGER_TEXT)
        sentences = [
            doc.text_bytes[span.start : span.end].decode("utf-8").strip() for span in split_sentences(doc.text)
        ]
        hate_scores = sorted(reference_predict(hate_model, s)[TOXIC_LABEL] for s in sentences if s)
        at_hate = hate_scores[len(hate_scores) // 2]  # a sentence scores exactly at the threshold
        prior = reference_predict(bigram, "")[TOXIC_LABEL]
        assert reference_predict(bigram, "Hi.")[TOXIC_LABEL] == prior  # one token, no bigram: the bias prior
        cases = [
            (hate_model, bigram, ContentTagConfig(hate_threshold=at_hate, nsfw_threshold=prior)),
            (bigram, shared, ContentTagConfig(toxicity_threshold=0.3)),
            (hate_model, nsfw_model, ContentTagConfig(toxicity_threshold=0.4)),
            (None, bigram, ContentTagConfig(toxicity_threshold=0.0)),
        ]
        for hate, nsfw, config in cases:
            expected = reference_tag_toxicity(doc, hate, nsfw, config)
            assert expected, "every case tags some sentence"
            assert spans_as_bits(tag_toxicity(doc, hate, nsfw, config)) == spans_as_bits(expected)
        tagged = [sp.score for sp in reference_tag_toxicity(doc, hate_model, None, cases[0][2])["toxicity__hate"]]
        assert tagged and at_hate not in tagged

    def test_paragraph_average_equals_per_paragraph_path(self, lang_model):
        bigrams = random_model(NgramConfig(hash_buckets=1 << 8, ngram_orders=(2, 3), feature_kind="char"), ("xx", "en"), 3)
        for model in (lang_model, bigrams, zero_model(config=lang_model.config)):
            long_text = "\n".join([TAGGER_TEXT] * 5)  # more paragraphs than numpy sums one by one
            for text in (TAGGER_TEXT, TAGGER_TEXT + "\na\n\n  \n", long_text, "a", "a\nb"):  # "a" holds no n-gram
                paragraphs = [para for para in text.split("\n") if para.strip()]
                scores = [reference_predict(model, para)["en"] for para in paragraphs]
                got = score_language_paragraph_avg(model, text)
                assert not got.degenerate
                assert float(got.score).hex() == float(sum(scores) / len(scores)).hex()
        assert score_language_paragraph_avg(zero_model(config=lang_model.config), "a\n\nb").score == ENGLISH_KEEP_THRESHOLD


def reference_paragraph_avg(model: NgramModel, text: str):
    """``score_language_paragraph_avg`` before batching: each paragraph scored on its own."""
    scores = [reference_predict(model, para)["en"] for para in text.split("\n") if para.strip()]
    return (float(sum(scores) / len(scores)).hex(), False) if scores else (float(0.0).hex(), True)


def chunk_docs():
    """Documents of every shape a chunk may hold, in a fixed order: none,
    one or many sentences and paragraphs, text too short for an n-gram,
    non-ASCII text and a long document."""
    rng = random.Random(21)
    sentences = TAGGER_TEXT.replace("\n", " ").split(". ")
    texts = ["", " \n\t\n ", "a", "\n\nA.\n", "Grawlix café sklonk. Ça va? Lovely.", "\n".join([TAGGER_TEXT] * 8)]
    for _ in range(34):
        picked = rng.sample(sentences, rng.randrange(1, len(sentences)))
        texts.append(rng.choice([". ", ".\n", ".\n\n", "! "]).join(picked))
    return [Document(id=f"d{i}", text=text) for i, text in enumerate(texts)]


def in_chunks(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


class TestChunksMatchOneDocument:
    """The chunk functions give every document of a chunk the spans and the
    score floats the per-row path gives it alone, whatever else the chunk holds."""

    @pytest.mark.parametrize("size", [1, 2, 32])
    def test_tag_toxicity_many_equals_per_sentence_path(self, size, hate_model, nsfw_model):
        docs = chunk_docs()
        shared = random_model(hate_model.config, ("toxic", "ok"), seed=4)  # shares hate_model's featurization
        cases = [
            (hate_model, nsfw_model, ContentTagConfig(toxicity_threshold=0.4)),
            (hate_model, shared, ContentTagConfig(hate_threshold=0.3, nsfw_threshold=0.5)),
            (None, shared, ContentTagConfig(toxicity_threshold=0.0)),
        ]
        for hate, nsfw, config in cases:
            expected = [spans_as_bits(reference_tag_toxicity(doc, hate, nsfw, config)) for doc in docs]
            assert any(expected) and not all(expected)
            got = [attrs for chunk in in_chunks(docs, size) for attrs in tag_toxicity_many(chunk, hate, nsfw, config)]
            assert [spans_as_bits(attrs) for attrs in got] == expected
        assert tag_toxicity_many(docs[:3], None, None) == [{}, {}, {}]
        assert tag_toxicity_many([], hate_model, nsfw_model) == []

    @pytest.mark.parametrize("size", [1, 2, 32])
    def test_paragraph_avg_many_equals_per_paragraph_path(self, size, lang_model):
        texts = [doc.text for doc in chunk_docs()]
        bigrams = random_model(NgramConfig(hash_buckets=1 << 8, ngram_orders=(2, 3), feature_kind="char"), ("xx", "en"), 3)
        for model in (lang_model, bigrams):
            expected = [reference_paragraph_avg(model, text) for text in texts]
            assert (float(0.0).hex(), True) in expected
            got = [r for chunk in in_chunks(texts, size) for r in score_language_paragraph_avg_many(model, chunk)]
            assert [(float(r.score).hex(), r.degenerate) for r in got] == expected

    def test_chunk_without_any_paragraph_needs_no_english_label(self, hate_model):
        assert score_language_paragraph_avg_many(hate_model, ["", " \n "]) == [(0.0, True), (0.0, True)]
        with pytest.raises(ValueError, match="'en'"):
            score_language_paragraph_avg_many(hate_model, ["", "text"])


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path, lang_model):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        got = load_model(path)
        assert got.labels == lang_model.labels
        assert got.config == lang_model.config
        assert np.array_equal(got.weights, lang_model.weights)
        assert np.array_equal(got.bias, lang_model.bias)

    def test_loaded_arrays_are_read_only_views_of_the_saved_bytes(self, tmp_path, lang_model):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        data = path.read_bytes()
        got = load_model(path)
        payload = got.weights.tobytes() + got.bias.tobytes()
        assert data.endswith(payload) and len(payload) == 8 * (lang_model.weights.size + lang_model.bias.size)
        assert not got.weights.flags.writeable and not got.bias.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.weights[0, 0] = 1.0
        again = tmp_path / "again.bin"
        save_model(got, again)
        assert again.read_bytes() == data

    def test_corrupted_magic_rejected(self, tmp_path, lang_model):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("kind", [2, 7, 255])
    def test_unknown_feature_kind_byte_rejected(self, tmp_path, lang_model, kind):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        data = bytearray(path.read_bytes())
        assert data[12] == 1  # after the magic and the version: 0 word, 1 char
        data[12] = kind
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match=f"feature kind byte {kind}"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path, lang_model):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        bias_at = len(data) - 8 * len(lang_model.labels)
        with pytest.raises(ModelFormatError, match=re.escape(f"truncated model file (need 16 bytes at offset {bias_at})")):
            load_model(path)

    def test_empty_file_rejected_as_truncated(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"")
        with pytest.raises(ModelFormatError, match=re.escape("truncated model file (need 8 bytes at offset 0)")):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path, lang_model):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        with open(path, "ab") as f:
            f.write(b"\0" * 5)
        with pytest.raises(ModelFormatError, match="5 trailing bytes after model payload"):
            load_model(path)

    def test_loaded_arrays_are_views_of_the_mapped_file(self, tmp_path, lang_model):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        got = load_model(path)
        for array in (got.weights, got.bias):
            base = array
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)
            assert not array.flags.writeable

    def test_replacing_the_file_leaves_a_loaded_model_as_it_was(self, tmp_path, lang_model):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        got = load_model(path)
        other = dataclasses.replace(lang_model, weights=-lang_model.weights, bias=lang_model.bias + 1.0)
        save_model(other, path)
        assert np.array_equal(got.weights, lang_model.weights)
        assert np.array_equal(got.bias, lang_model.bias)
        assert np.array_equal(load_model(path).weights, other.weights)

    def test_orders_must_fit_one_byte(self):
        assert NgramConfig(ngram_orders=(1, 255)).ngram_orders == (1, 255)
        with pytest.raises(ValueError, match="ngram_orders"):
            NgramConfig(ngram_orders=(2, 256))

    def test_failed_save_leaves_previous_file(self, tmp_path, lang_model):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        before = path.read_bytes()
        config = copy.copy(lang_model.config)
        object.__setattr__(config, "ngram_orders", (1, 256))  # past the check, as a corrupt model would be
        with pytest.raises(struct.error):
            save_model(dataclasses.replace(lang_model, config=config), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_predictions_identical_after_roundtrip(self, tmp_path, lang_model):
        path = tmp_path / "model.bin"
        save_model(lang_model, path)
        got = load_model(path)
        rng = random.Random(0)
        for _ in range(100):
            text = " ".join(rng.choice(["the", "zxqv", "fox", "qqzt"]) for _ in range(6))
            assert predict(got, text) == predict(lang_model, text)


_TERMINALS = frozenset(".!?")
_OPENERS = frozenset("\"'([{“‘")


def reference_boundaries(text: str):
    """The sentence boundaries by a walk over every character."""
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


# terminals, blanks, newlines, ASCII and accented letters of both cases, every
# opener, a titlecase letter (not uppercase) and a circled capital (uppercase)
BOUNDARY_ALPHABET = ".!? \t\naZzéÉßÇ" + "".join(sorted(_OPENERS)) + "ǅⒶ"


class TestBoundaryScan:
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=BOUNDARY_ALPHABET, max_size=60))
    def test_scan_equals_character_walk(self, text):
        assert list(_boundaries(text)) == list(reference_boundaries(text))

    def test_each_rule_at_its_edge(self):
        cases = {
            "A. B": [3],
            "A.B": [],
            "A. b": [],
            "A.  \t Ⓐ": [6],
            "A. ǅ": [],
            "A. ": [],
            "A.\t(x)": [3],
            "a?! “b": [4],
            "x.. \nY": [5],
            "\n\n": [1, 2],
        }
        for text, expected in cases.items():
            assert list(_boundaries(text)) == list(reference_boundaries(text)) == expected, text


class TestSentences:
    def test_two_sentences(self):
        spans = split_sentences("A. B.")
        assert len(spans) == 2
        assert [(s.start, s.end) for s in spans] == [(0, 3), (3, 5)]

    def test_empty_text(self):
        assert split_sentences("") == []

    def test_newline_is_boundary(self):
        assert len(split_sentences("first line\nsecond line")) == 2

    def test_lowercase_continuation_not_split(self):
        assert len(split_sentences("e.g. something")) == 1

    def test_opening_quote_after_terminal_splits(self):
        assert len(split_sentences('He left. "Why?" she asked.')) >= 2

    def test_whitespace_only_segments_dropped(self):
        spans = split_sentences("One.\n\n\nTwo.")
        data = "One.\n\n\nTwo.".encode()
        texts = [data[s.start : s.end].decode().strip() for s in spans]
        assert texts == ["One.", "Two."]

    def test_spans_cover_all_non_whitespace(self):
        text = "First one. Second two! Third? Yes.\nNew paragraph here."
        spans = split_sentences(text)
        data = text.encode("utf-8")
        covered = set()
        for sp in spans:
            assert 0 <= sp.start <= sp.end <= len(data)
            covered.update(range(sp.start, sp.end))
        for i, byte in enumerate(data):
            if not chr(byte).isspace():
                assert i in covered

    def test_hand_annotated_fixture(self):
        # 20 sentences under the documented rule set: terminal + space +
        # uppercase/opener splits, newlines always split
        parts = [f"Sentence number {i} ends here." for i in range(1, 19)]
        text = " ".join(parts) + "\nShort line\nFinal one."
        assert len(split_sentences(text)) == 20
