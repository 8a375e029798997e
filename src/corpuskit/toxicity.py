"""Sentence-level toxicity tagging with trained hate/NSFW scorers."""

from __future__ import annotations

from typing import Sequence

from corpuskit.documents import AttributeSpan, Document
from corpuskit.ngram_classifier import NgramModel, featurize_rows
from corpuskit.pii import ContentTagConfig
from corpuskit.sentences import split_sentences

TOXIC_LABEL = "toxic"


def _check_model(model: NgramModel, name: str) -> None:
    if TOXIC_LABEL not in model.labels:
        raise ValueError(f"{name} model labels {model.labels} do not include {TOXIC_LABEL!r}")


def tag_toxicity(
    doc: Document,
    hate_model: NgramModel | None,
    nsfw_model: NgramModel | None,
    config: ContentTagConfig | None = None,
) -> dict[str, list[AttributeSpan]]:
    """Score every sentence with both models; tag sentences scoring strictly
    above the threshold. This is :func:`tag_toxicity_many` on one document."""
    return tag_toxicity_many([doc], hate_model, nsfw_model, config)[0]


def tag_toxicity_many(
    docs: Sequence[Document],
    hate_model: NgramModel | None,
    nsfw_model: NgramModel | None,
    config: ContentTagConfig | None = None,
) -> list[dict[str, list[AttributeSpan]]]:
    """The toxicity attributes of each document in ``docs``, in order.

    Each span carries the model's score and covers the sentence, so the
    mixer can delete it. Thresholds default to the shared tau with optional
    per-model overrides. The sentences of all the documents are featurized
    together, once per distinct feature config, so two models with equal
    configs share it, and each model scores all of them in one call; a
    sentence's score does not depend on the others in the batch.
    """
    config = config or ContentTagConfig()
    models = []
    if hate_model is not None:
        _check_model(hate_model, "hate")
        tau = config.hate_threshold if config.hate_threshold is not None else config.toxicity_threshold
        models.append(("toxicity__hate", hate_model, tau))
    if nsfw_model is not None:
        _check_model(nsfw_model, "nsfw")
        tau = config.nsfw_threshold if config.nsfw_threshold is not None else config.toxicity_threshold
        models.append(("toxicity__nsfw", nsfw_model, tau))
    attrs: list[dict[str, list[AttributeSpan]]] = [{} for _ in docs]
    if not models:
        return attrs

    spans, sentences = [], []  # spans[i] is (document index, sentence span)
    for i, doc in enumerate(docs):
        data = doc.text_bytes
        for span in split_sentences(doc.text):
            sentence = data[span.start : span.end].decode("utf-8").strip()
            if sentence:
                spans.append((i, span))
                sentences.append(sentence)
    rows = {}
    for _, model, _ in models:
        if model.config not in rows:
            rows[model.config] = featurize_rows(model.config, sentences)
    scores = [
        model.predict_rows(rows[model.config])[model.labels.index(TOXIC_LABEL)].tolist() for _, model, _ in models
    ]
    for j, (i, span) in enumerate(spans):
        for (name, _, tau), model_scores in zip(models, scores):
            if model_scores[j] > tau:
                attrs[i].setdefault(name, []).append(AttributeSpan(span.start, span.end, model_scores[j]))
    return attrs
