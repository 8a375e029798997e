"""Shared fixtures: toy corpora and small trained models."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from corpuskit.documents import Document
from corpuskit.ngram_classifier import NgramConfig, TrainConfig, train

ENGLISH_WORDS = [
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
    "house", "river", "light", "garden", "window", "story", "number",
]
OTHER_WORDS = [
    "zxqv", "wqrtz", "kjxy", "qqzt", "vxkw", "jzzq", "xwvk", "qkzv",
    "zzpt", "kvxq", "wzzj", "qqxv", "zkwq", "xjzz", "vqkx",
]

# every code point that ``str.isspace`` holds true for, which ``str.split``
# splits on
ALL_SPACES = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)

TOXIC_MARKERS = ["grawlix", "blorthug", "sklonk"]
BENIGN_WORDS = ["hello", "thanks", "weather", "lovely", "garden", "coffee", "morning"]


def sentence(rng: random.Random, words: list[str], n: int = 8) -> str:
    return " ".join(rng.choice(words) for _ in range(n))


def make_doc(doc_id: str, text: str, source: str = "test", **metadata) -> Document:
    return Document(id=doc_id, text=text, source=source, metadata=dict(metadata))


def running(pid: int) -> bool:
    """Whether process ``pid`` is still running; a zombie has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def child_pids(pid: int) -> set[int]:
    """The pids of the running children of process ``pid``, forked by any of its threads."""
    pids = set()
    for children in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            pids.update(map(int, children.read_text().split()))
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread or the process has ended
    return pids


@pytest.fixture(scope="session")
def lang_model():
    """Char n-gram en/xx model trained on a separable toy corpus."""
    rng = random.Random(11)
    examples = []
    for _ in range(150):
        examples.append((sentence(rng, ENGLISH_WORDS), "en"))
        examples.append((sentence(rng, OTHER_WORDS), "xx"))
    features = NgramConfig(hash_buckets=1 << 14, ngram_orders=(2, 3, 4, 5), feature_kind="char")
    return train(examples, TrainConfig(epochs=5, learning_rate=0.5, seed=3), features)


def _toxicity_model(seed: int):
    # train on sentence-shaped text (capitalized, terminal period, varied
    # length); the 2:1 benign imbalance and junk-word exposure keep the
    # out-of-vocabulary prior firmly on the benign side
    import string

    rng = random.Random(seed)

    def junk_word():
        return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randrange(3, 9)))

    examples = []
    for _ in range(200):
        n = rng.randrange(2, 8)
        ok = sentence(rng, BENIGN_WORDS, n).capitalize() + "."
        mixed = [junk_word() if rng.random() < 0.5 else rng.choice(BENIGN_WORDS) for _ in range(n)]
        ok_junk = " ".join(mixed).capitalize() + "."
        words = [rng.choice(BENIGN_WORDS) for _ in range(n)]
        words[rng.randrange(n)] = rng.choice(TOXIC_MARKERS)
        toxic = " ".join(words).capitalize() + "."
        examples += [(ok, "ok"), (ok_junk, "ok"), (toxic, "toxic")]
    features = NgramConfig(hash_buckets=1 << 14, ngram_orders=(1, 2), feature_kind="word")
    return train(examples, TrainConfig(epochs=25, learning_rate=0.3, seed=seed), features)


@pytest.fixture(scope="session")
def hate_model():
    return _toxicity_model(5)


@pytest.fixture(scope="session")
def nsfw_model():
    return _toxicity_model(6)
