"""A dead-code guard over the package, by ``ast`` alone: no module keeps an
import it never uses, and no private module-level name goes unreferenced
in its module. A one-job-scope guard beside it: only ``shard_io`` starts
worker pools or removes directory trees, through ``ShardPool``, and only
``shard_io`` moves files into place or makes directories. And one
copy of each Bloom filter computation: ``bloom`` hashes keys in one
function, sets bits without ``ufunc.at``, and only ``bloom`` touches a
filter's insert and sizing counters, so every report takes them from
``BloomFilter.health()``. And one paragraph splitter,
``documents.split_paragraphs``; one exact key set and one Bloom filter,
which no module subclasses; one counter of input text bytes,
``StageReport.flag``; and one reader of JSON configuration objects,
``filters.ConfigObject``, which every ``from_json`` and
``pipeline.build_tagger`` build and no other class resembles."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corpuskit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _loaded_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _loaded_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _loaded_names(tree)
    assert [name for name in _private_definitions(tree) if name not in used] == []


# what a worker pool or a temporary-directory helper is built from
SCOPE_MODULES = ("concurrent", "multiprocessing", "tempfile")


def _job_scope_uses(tree: ast.Module) -> list[str]:
    """The imports of ``concurrent.futures``, ``multiprocessing`` or
    ``tempfile`` in ``tree``, and its uses of ``shutil.rmtree``."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [alias.name for alias in node.names if alias.name.split(".")[0] in SCOPE_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in SCOPE_MODULES:
                uses.append(node.module)
            elif node.module == "shutil":
                uses += [f"shutil.{alias.name}" for alias in node.names if alias.name == "rmtree"]
        elif isinstance(node, ast.Attribute) and node.attr == "rmtree":
            uses.append("rmtree")
    return uses


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p.name != "shard_io.py"], ids=lambda p: p.name)
def test_only_shard_io_holds_a_job_scope(path):
    assert _job_scope_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_job_scope_guard_sees_shard_io():
    uses = _job_scope_uses(ast.parse((PACKAGE / "shard_io.py").read_text(encoding="utf-8")))
    assert "concurrent.futures" in uses and "rmtree" in uses


# what moves a file into place or makes a directory
PUBLISH_CALLS = {"os.replace", "os.rename", "os.mkdir", "os.makedirs"}


def _publish_uses(tree: ast.Module) -> list[str]:
    """The calls in ``tree`` of ``os.replace``, ``os.rename``, ``os.mkdir``,
    ``os.makedirs`` or any ``.mkdir`` method, and its imports of them."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            uses += [f"os.{alias.name}" for alias in node.names if f"os.{alias.name}" in PUBLISH_CALLS]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func)
            if node.func.attr == "mkdir" or name in PUBLISH_CALLS:
                uses.append(name)
    return uses


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p.name != "shard_io.py"], ids=lambda p: p.name)
def test_only_shard_io_publishes_or_makes_directories(path):
    assert _publish_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_publish_guard_sees_shard_io():
    uses = _publish_uses(ast.parse((PACKAGE / "shard_io.py").read_text(encoding="utf-8")))
    assert "os.replace" in uses and any(use.endswith(".mkdir") for use in uses)


def _functions_calling(tree: ast.Module, callee: str) -> list[str]:
    """The functions and methods in ``tree`` whose bodies call ``callee``,
    as a bare name or as an attribute."""
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call) and callee in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
            for call in ast.walk(fn)
        )
    ]


def test_bloom_hashes_keys_in_one_function():
    assert _functions_calling(ast.parse((PACKAGE / "bloom.py").read_text(encoding="utf-8")), "blake2b") == [
        "key_digests"
    ]


def test_bloom_probes_in_one_place():
    # the batch methods are the only ones that set or test bits; the
    # one-key methods are batches of one
    tree = ast.parse((PACKAGE / "bloom.py").read_text(encoding="utf-8"))
    assert sorted(_functions_calling(tree, "probe_positions")) == ["contains_many", "insert_check_many"]


def test_bloom_sets_bits_without_ufunc_at():
    # ``ufunc.at`` is unbuffered and slow; insert_check_many ORs each byte's
    # new bits together first, so one buffered store per byte sets them all
    tree = ast.parse((PACKAGE / "bloom.py").read_text(encoding="utf-8"))
    assert [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "at"] == []


def _newline_splits(path: Path) -> list[str]:
    """``<module>.<function>`` of each call in ``path`` that splits on b"\\n"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.stem}.{fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "split"
        and [ast.literal_eval(arg) for arg in call.args if isinstance(arg, ast.Constant)] == [b"\n"]
    ]


def test_one_paragraph_splitter():
    # documents.split_paragraphs is the only code that splits bytes into paragraphs
    assert [split for path in MODULES for split in _newline_splits(path)] == ["documents.split_paragraphs"]


# a filter's insert and sizing counters, which its health() reports
BLOOM_COUNTERS = {"added", "n_target", "p_target", "set_bits"}


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p.name != "bloom.py"], ids=lambda p: p.name)
def test_only_bloom_touches_filter_counters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    touched = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert [name for name in touched if name in BLOOM_COUNTERS] == []


def test_filter_counter_guard_sees_bloom():
    tree = ast.parse((PACKAGE / "bloom.py").read_text(encoding="utf-8"))
    assert {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} >= BLOOM_COUNTERS


# the chunk caps of shard_io.tagged, the one loop that tags a stream of documents
CHUNK_CAPS = {"TAG_CHUNK_DOCS", "TAG_CHUNK_BYTES"}


def _chunk_cap_names(tree: ast.Module) -> set[str]:
    """The chunk caps ``tree`` names: as a name, an attribute, an import or a string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names & CHUNK_CAPS


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p.name != "shard_io.py"], ids=lambda p: p.name)
def test_only_shard_io_sizes_tagging_chunks(path):
    assert _chunk_cap_names(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_chunk_cap_guard_sees_shard_io():
    assert _chunk_cap_names(ast.parse((PACKAGE / "shard_io.py").read_text(encoding="utf-8"))) == CHUNK_CAPS


def _subclassed(tree: ast.Module, bases: set[str]) -> list[str]:
    """The classes in ``tree`` that name one of ``bases`` as a base."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) in bases for base in node.bases)
    ]


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p.name != "bloom.py"], ids=lambda p: p.name)
def test_one_exact_key_set_and_one_bloom_filter(path):
    # ExactSet and BloomFilter are the only key sets: no module keeps a variant of either
    assert _subclassed(ast.parse(path.read_text(encoding="utf-8")), {"ExactSet", "BloomFilter"}) == []


def _stores(tree: ast.Module, attr: str) -> list[int]:
    """The lines of ``tree`` that assign to an attribute named ``attr``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Store)
    ]


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p.name != "shard_io.py"], ids=lambda p: p.name)
def test_only_stage_report_counts_input_text_bytes(path):
    # StageReport.flag counts each input document's text bytes; no job keeps a second counter
    assert _stores(ast.parse(path.read_text(encoding="utf-8")), "input_text_bytes") == []


def test_input_text_bytes_guard_sees_shard_io():
    assert _stores(ast.parse((PACKAGE / "shard_io.py").read_text(encoding="utf-8")), "input_text_bytes") != []


# the readers of JSON configuration objects that ConfigObject replaced
GONE_CONFIG_READERS = {"config_value", "_ReadParams", "_param"}
# the functions that read a JSON configuration object
CONFIG_READERS = {"from_json", "build_tagger"}


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name ``tree`` defines, loads, imports or takes as an attribute."""
    return {
        value
        for node in ast.walk(tree)
        for value in (getattr(node, key, None) for key in ("id", "attr", "name"))
        if isinstance(value, str)
    }


def _config_readers(tree: ast.Module) -> list[tuple[str, bool]]:
    """The name of each function of ``tree`` in ``CONFIG_READERS``, and
    whether it calls ``ConfigObject``."""
    return [
        (fn.name, any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ConfigObject" for call in ast.walk(fn)))
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in CONFIG_READERS
    ]


def _item_reads(tree: ast.Module) -> list[str]:
    """``<class>.<method>`` of each ``get`` or ``__getitem__`` a class of ``tree`` defines."""
    return [
        f"{cls.name}.{fn.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("get", "__getitem__")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_config_object_reader(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _identifiers(tree) & GONE_CONFIG_READERS == set()
    assert [name for name, builds in _config_readers(tree) if not builds] == []
    if path.name != "filters.py":
        # a dict that notes its reads is a second ConfigObject
        assert _item_reads(tree) == []


def test_config_reader_guard_sees_every_reader():
    readers = [
        f"{path.stem}.{name}" for path in MODULES for name, _ in _config_readers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(readers) == ["filters.from_json", "mixer.from_json", "mixer.from_json", "pipeline.build_tagger"]
    filters = ast.parse((PACKAGE / "filters.py").read_text(encoding="utf-8"))
    assert _item_reads(filters) == ["ConfigObject.__getitem__", "ConfigObject.get"]
