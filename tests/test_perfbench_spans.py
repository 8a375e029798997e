"""The benchmark's span tracer (perfbench/spans.py) wraps corpuskit
functions by name, so a rename or a generator turned into a list function
would silently drop or distort a per-layer metric, and a moved text
parameter would zero a per-layer ``mb_per_s``. These checks load the
tracer by path, as the benchmark does, without installing it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# layers whose spans time each next() of a generator
GENERATOR_LAYERS = [
    "shard_io.read_documents",
    "shard_io.read_attributes",
    "mixer.iter_doc_attrs",
    "dedupe.dedupe_by_url",
    "dedupe.dedupe_by_document",
    "dedupe.dedupe_by_paragraph",
    "dedupe.ccnet_group_dedupe",
    "dedupe.decontaminate_tag",
]
# the parameter at each of the tracer's text-argument positions
TEXT_PARAMS = {"gopher.tag_gopher": "doc", "ngram_classifier.featurize": "text"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
LAYERS = SPANS.LAYERS


def resolve(layer: str):
    module_name, attr_path = LAYERS[layer]
    owner = importlib.import_module(f"corpuskit.{module_name}")
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_resolves(layer):
    assert callable(resolve(layer))


@pytest.mark.parametrize("layer", GENERATOR_LAYERS)
def test_layer_is_generator_function(layer):
    assert inspect.isgeneratorfunction(resolve(layer))


@pytest.mark.parametrize("layer", sorted(SPANS._TEXT_ARG))
def test_text_arg_position_names_the_text(layer):
    params = list(inspect.signature(resolve(layer)).parameters)
    assert params[SPANS._TEXT_ARG[layer]] == TEXT_PARAMS[layer]
