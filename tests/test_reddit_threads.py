import json

import pytest
from hypothesis import given, settings, strategies as st

from corpuskit.cli import main
from corpuskit.documents import Document, metadata_flag
from corpuskit.heuristics import tag_reddit_quality
from corpuskit.reddit_threads import (
    DEFAULT_MAX_PARENT_DEPTH,
    RedditItem,
    ThreadStructureError,
    _build_forest,
    build_atomic,
    build_full_threads,
    build_partial_threads,
)
from corpuskit.shard_io import read_documents, write_documents


def submission(item_id, body="post body", created="2020-01-01T00:00:00", **kw):
    return RedditItem(id=item_id, kind="submission", body=body, created=created, **kw)


def comment(item_id, parent_id, body=None, created="2020-01-01T01:00:00", **kw):
    return RedditItem(
        id=item_id,
        kind="comment",
        parent_id=parent_id,
        body=body if body is not None else f"comment {item_id}",
        created=created,
        **kw,
    )


class TestAtomic:
    def test_every_item_becomes_a_document(self):
        items = [submission("s1"), comment("c1", "s1"), comment("c2", "c1")]
        docs = build_atomic(items)
        assert len(docs) == 3
        assert [d.id for d in docs] == ["s1", "c1", "c2"]

    def test_empty_input(self):
        assert build_atomic([]) == []

    def test_ids_bijective_with_items(self):
        items = [submission(f"s{i}") for i in range(5)] + [
            comment(f"c{i}", f"s{i}") for i in range(5)
        ]
        docs = build_atomic(items)
        assert {d.id for d in docs} == {i.id for i in items}
        assert len(docs) == len(items)

    def test_metadata_carried(self):
        item = comment("c1", "s1", votes=7, subreddit="books", over_18=True)
        (doc,) = build_atomic([item])
        assert doc.metadata["kind"] == "comment"
        assert doc.metadata["votes"] == 7
        assert doc.metadata["subreddit"] == "books"
        assert doc.metadata["over_18"] is True
        assert doc.metadata["parent_id"] == "s1"


class TestPartialThreads:
    def test_linear_chain_chunks_to_max_depth(self):
        items = [
            submission("s1"),
            comment("c1", "s1", created="t1"),
            comment("c2", "c1", created="t2"),
            comment("c3", "c2", created="t3"),
        ]
        docs = build_partial_threads(items, max_depth=2)
        thread_docs = [d for d in docs if d.metadata.get("kind") == "partial_thread"]
        texts = {d.id: d.text for d in thread_docs}
        assert set(texts) == {"c1+c2", "c3"}
        assert texts["c1+c2"] == "comment c1\n\ncomment c2"
        assert texts["c3"] == "comment c3"

    def test_max_depth_one_equals_atomic_comments(self):
        items = [
            submission("s1"),
            comment("c1", "s1"),
            comment("c2", "c1"),
            comment("c3", "c2"),
        ]
        docs = build_partial_threads(items, max_depth=1)
        bodies = sorted(d.text for d in docs if d.metadata.get("kind") == "partial_thread")
        assert bodies == ["comment c1", "comment c2", "comment c3"]

    def test_branching_tree_shares_parent(self):
        items = [
            submission("s1"),
            comment("p", "s1", created="t1"),
            comment("a", "p", created="t2"),
            comment("b", "p", created="t3"),
        ]
        docs = build_partial_threads(items, max_depth=2)
        thread_docs = [d for d in docs if d.metadata.get("kind") == "partial_thread"]
        assert sorted(d.id for d in thread_docs) == ["p+a", "p+b"]
        for d in thread_docs:
            assert d.text.startswith("comment p\n\n")

    def test_submissions_stay_standalone(self):
        items = [submission("s1", body="the post"), comment("c1", "s1")]
        docs = build_partial_threads(items, max_depth=3)
        assert any(d.id == "s1" and d.text == "the post" for d in docs)

    def test_orphan_comment_roots_its_chain(self):
        items = [comment("c1", "missing"), comment("c2", "c1")]
        docs = build_partial_threads(items, max_depth=5)
        (thread,) = [d for d in docs if d.metadata.get("kind") == "partial_thread"]
        assert thread.text == "comment c1\n\ncomment c2"

    def test_every_comment_covered(self):
        items = [submission("s1")]
        for i in range(7):
            parent = "s1" if i == 0 else f"c{i - 1}"
            items.append(comment(f"c{i}", parent, created=f"t{i}"))
        for depth in (1, 2, 3, 5):
            docs = build_partial_threads(items, max_depth=depth)
            joined = "\n".join(d.text for d in docs)
            for i in range(7):
                assert f"comment c{i}" in joined

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            build_partial_threads([], max_depth=0)


class TestFullThreads:
    def test_indentation_by_depth(self):
        items = [
            submission("s1", body="root post"),
            comment("c1", "s1", body="first reply", created="t1"),
            comment("c2", "c1", body="nested reply", created="t2"),
        ]
        (doc,) = build_full_threads(items)
        assert doc.id == "s1"
        assert doc.text == "root post\n\n  first reply\n\n    nested reply"

    def test_submission_without_comments(self):
        (doc,) = build_full_threads([submission("s1", body="just the post")])
        assert doc.text == "just the post"

    def test_siblings_sorted_by_created(self):
        items = [
            submission("s1", body="post"),
            comment("late", "s1", body="second", created="2020-02-01"),
            comment("early", "s1", body="first", created="2020-01-15"),
        ]
        (doc,) = build_full_threads(items)
        assert doc.text == "post\n\n  first\n\n  second"

    def test_multiline_bodies_fully_indented(self):
        items = [
            submission("s1", body="post"),
            comment("c1", "s1", body="line one\nline two"),
        ]
        (doc,) = build_full_threads(items)
        assert doc.text == "post\n\n  line one\n  line two"

    def test_one_document_per_submission(self):
        items = [submission(f"s{i}") for i in range(4)]
        items += [comment(f"c{i}", f"s{i % 4}", created=f"t{i}") for i in range(10)]
        docs = build_full_threads(items)
        assert sorted(d.id for d in docs) == ["s0", "s1", "s2", "s3"]

    def test_orphans_grouped_under_synthetic_root(self):
        items = [
            comment("c1", "gone", body="orphan one", created="t1"),
            comment("c2", "gone", body="orphan two", created="t2"),
        ]
        (doc,) = build_full_threads(items)
        assert doc.id == "orphans-gone"
        assert doc.metadata["synthetic_root"] is True
        assert doc.text == "  orphan one\n\n  orphan two"

    def test_cycle_rejected(self):
        items = [comment("a", "b"), comment("b", "a")]
        with pytest.raises(ThreadStructureError):
            build_full_threads(items)

    @pytest.mark.parametrize("build", [build_partial_threads, build_full_threads])
    @pytest.mark.parametrize(
        "items",
        [
            [comment("a", "a")],  # its own parent
            # a two-comment cycle beside a valid thread
            [submission("s"), comment("c1", "s"), comment("c2", "c1"), comment("a", "b"), comment("b", "a")],
        ],
        ids=["self_parent", "beside_valid_thread"],
    )
    def test_cycle_named(self, build, items):
        with pytest.raises(ThreadStructureError, match="cycle through 'a'"):
            build(items)

    def test_duplicate_ids_rejected(self):
        items = [submission("x"), submission("x")]
        with pytest.raises(ThreadStructureError):
            build_full_threads(items)


class TestItemConversion:
    def test_document_roundtrip(self):
        item = comment("c9", "s1", body="text body", votes=4, subreddit="news")
        doc = item.to_document()
        back = RedditItem.from_document(doc)
        assert back == item

    def test_from_document_reads_metadata(self):
        doc = Document(
            id="c1",
            text="body",
            created="2021-05-05",
            metadata={"kind": "comment", "parent_id": "s1", "votes": "3", "subreddit": "x"},
        )
        item = RedditItem.from_document(doc)
        assert item.votes == 3 and item.parent_id == "s1" and item.created == "2021-05-05"

    def test_comment_without_parent_rejected(self):
        with pytest.raises(ThreadStructureError):
            RedditItem(id="c", kind="comment", body="x")

    def test_strategies_deterministic(self):
        items = [
            submission("s1"),
            comment("c1", "s1", created="t1"),
            comment("c2", "s1", created="t2"),
            comment("c3", "c1", created="t3"),
        ]
        for build in (build_atomic, build_partial_threads, build_full_threads):
            first = build(list(items))
            second = build(list(items))
            assert first == second


def oracle_partial_threads(items, max_depth=DEFAULT_MAX_PARENT_DEPTH):
    """The recursive partial-thread builder, kept as the reference."""
    forest = _build_forest(items)
    docs = [forest.items[sid].to_document() for sid in forest.submissions]
    emitted = set()

    def emit_path(path):
        for start in range(0, len(path), max_depth):
            window = tuple(path[start : start + max_depth])
            if window in emitted:
                continue
            emitted.add(window)
            members = [forest.items[i] for i in window]
            root = members[0]
            docs.append(
                Document(
                    id="+".join(window),
                    text="\n\n".join(m.body for m in members),
                    source=root.source,
                    created=root.created or None,
                    metadata={"kind": "partial_thread", "subreddit": root.subreddit, "items": len(members)},
                )
            )

    def walk(node, path):
        path.append(node)
        kids = forest.children.get(node, [])
        if not kids:
            emit_path(path)
        else:
            for kid in kids:
                walk(kid, path)
        path.pop()

    for root in forest.comment_roots:
        walk(root, [])
    return docs


def oracle_full_threads(items):
    """The recursive full-thread builder, kept as the reference."""
    forest = _build_forest(items)

    def blocks(node, depth, out):
        indent = "  " * depth
        out.append("\n".join(indent + line for line in forest.items[node].body.split("\n")))
        for kid in forest.children.get(node, []):
            blocks(kid, depth + 1, out)

    docs = []
    for sid in forest.submissions:
        submission = forest.items[sid]
        parts = []
        blocks(sid, 0, parts)
        docs.append(
            Document(
                id=sid,
                text="\n\n".join(parts),
                source=submission.source,
                created=submission.created or None,
                metadata={"kind": "full_thread", "subreddit": submission.subreddit},
            )
        )
    for missing_parent, roots in sorted(forest.orphan_groups.items()):
        first = forest.items[roots[0]]
        parts = []
        for root in roots:
            blocks(root, 1, parts)
        docs.append(
            Document(
                id=f"orphans-{missing_parent}",
                text="\n\n".join(parts),
                source=first.source,
                created=first.created or None,
                metadata={"kind": "full_thread", "subreddit": first.subreddit, "synthetic_root": True},
            )
        )
    return docs


@st.composite
def forests(draw):
    """Random items in a random order: submissions with and without
    comments, branching replies, orphans of missing parents, and tied
    ``created`` stamps. Parents are drawn from earlier items, so there is
    no cycle."""
    items = []
    for i in range(draw(st.integers(0, 16))):
        fields = {
            "body": draw(st.sampled_from(["", "a", "b c", "line one\nline two"])),
            "created": draw(st.sampled_from(["", "t1", "t2"])),
            "subreddit": draw(st.sampled_from(["x", "y"])),
            "source": draw(st.sampled_from(["s", "t"])),
        }
        if draw(st.integers(0, 3)) == 0:
            items.append(RedditItem(id=f"s{i}", kind="submission", **fields))
        else:
            parent = draw(st.sampled_from([item.id for item in items] + ["gone1", "gone2"]))
            items.append(RedditItem(id=f"c{i}", kind="comment", parent_id=parent, **fields))
    return draw(st.permutations(items))


def with_key_order(docs):
    # Document equality compares metadata as dicts; the written bytes also
    # depend on the order of its keys
    return [(doc, list(doc.metadata)) for doc in docs]


class TestAgainstRecursiveOracle:
    @settings(max_examples=300, deadline=None)
    @given(items=forests(), max_depth=st.integers(1, 5))
    def test_strategies_equal_oracle(self, items, max_depth):
        assert build_atomic(items) == [item.to_document() for item in items]
        got = build_partial_threads(items, max_depth)
        assert with_key_order(got) == with_key_order(oracle_partial_threads(items, max_depth))
        assert with_key_order(build_full_threads(items)) == with_key_order(oracle_full_threads(items))


DEEP = 1_500  # beyond CPython's default recursion limit; full-thread text grows quadratically with depth


def deep_chain(root_parent):
    """``root_parent`` (a submission, or an orphan parent if absent) and a
    chain of ``DEEP`` comments below it, each replying to the one before."""
    items = [submission("s")] if root_parent == "s" else []
    for i in range(DEEP):
        items.append(comment(f"c{i}", root_parent if i == 0 else f"c{i - 1}", created=f"t{i:04d}"))
    return items


class TestDeepChains:
    @pytest.mark.parametrize("root_parent", ["s", "gone"])
    def test_library_builds_every_strategy(self, root_parent):
        items = deep_chain(root_parent)
        assert len(build_atomic(items)) == len(items)

        windows = [d for d in build_partial_threads(items) if d.metadata["kind"] == "partial_thread"]
        assert len(windows) == DEEP // DEFAULT_MAX_PARENT_DEPTH
        assert windows[-1].id == "+".join(f"c{i}" for i in range(DEEP - DEFAULT_MAX_PARENT_DEPTH, DEEP))

        (doc,) = build_full_threads(items)
        blocks = doc.text.split("\n\n")
        assert len(blocks) == len(items)
        assert blocks[-1] == "  " * DEEP + f"comment c{DEEP - 1}"

    @pytest.mark.parametrize(
        "strategy, documents", [("atomic", DEEP + 1), ("partial", 1 + DEEP // DEFAULT_MAX_PARENT_DEPTH), ("full", 1)]
    )
    def test_cli_builds_every_strategy(self, tmp_path, capsys, strategy, documents):
        shard = tmp_path / "items.jsonl"
        write_documents((item.to_document() for item in deep_chain("s")), shard)
        out = tmp_path / "docs.jsonl"
        argv = ["reddit-build", "--inputs", str(shard), "--strategy", strategy, "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["documents"] == documents
        assert sum(1 for _ in read_documents(out)) == documents


class TestFlags:
    @pytest.mark.parametrize(
        "value, expected",
        [("false", False), ("0", False), ("no", False), ("", False), (None, False), (False, False), (0, False),
         ("true", True), ("TRUE", True), ("1", True), ("yes", True), (True, True), (1, True)],
    )
    def test_metadata_flag(self, value, expected):
        assert metadata_flag(value) is expected

    def test_string_false_flags_stay_false_through_reddit_build(self, tmp_path):
        raw = Document(
            id="s1",
            text="post " * 100,
            metadata={"kind": "submission", "author_deleted": "false", "moderator_removed": "no", "over_18": "0"},
        )
        shard = tmp_path / "items.jsonl"
        write_documents([raw], shard)
        out = tmp_path / "docs.jsonl"
        assert main(["reddit-build", "--inputs", str(shard), "--strategy", "atomic", "--out", str(out)]) == 0
        (built,) = read_documents(out)
        for key in ("author_deleted", "moderator_removed", "over_18"):
            assert built.metadata[key] is False
        assert tag_reddit_quality(built) == tag_reddit_quality(raw) == {}
