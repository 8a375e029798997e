"""Linearize submission/comment forests into training documents.

Three strategies: atomic (every item standalone), partial threads
(root-to-leaf comment chains chunked to a maximum depth), and full threads
(one document per submission with depth-indented comments). Comment bodies
are joined with a blank line; full threads indent two spaces per depth
level. Sibling order is ascending created timestamp, ties kept in input
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from corpuskit.documents import Document

DEFAULT_MAX_PARENT_DEPTH = 4
_BLOCK_SEPARATOR = "\n\n"
_INDENT = "  "


class ThreadStructureError(ValueError):
    pass


@dataclass
class RedditItem:
    id: str
    kind: str  # submission | comment
    body: str
    parent_id: str | None = None  # absent for submissions
    votes: int = 0
    subreddit: str = ""
    author_deleted: bool = False
    moderator_removed: bool = False
    over_18: bool = False
    created: str = ""
    source: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("submission", "comment"):
            raise ThreadStructureError(f"item {self.id!r} has invalid kind {self.kind!r}")
        if self.kind == "comment" and not self.parent_id:
            raise ThreadStructureError(f"comment {self.id!r} has no parent_id")

    @classmethod
    def from_document(cls, doc: Document) -> "RedditItem":
        md = doc.metadata
        return cls(
            id=doc.id,
            kind=md.get("kind", "comment"),
            body=doc.text,
            parent_id=md.get("parent_id"),
            votes=int(md.get("votes", 0)),
            subreddit=str(md.get("subreddit", "")),
            author_deleted=bool(md.get("author_deleted", False)),
            moderator_removed=bool(md.get("moderator_removed", False)),
            over_18=bool(md.get("over_18", False)),
            created=doc.created or "",
            source=doc.source,
        )

    def to_document(self) -> Document:
        metadata = {
            "kind": self.kind,
            "votes": self.votes,
            "subreddit": self.subreddit,
            "author_deleted": self.author_deleted,
            "moderator_removed": self.moderator_removed,
            "over_18": self.over_18,
        }
        if self.parent_id is not None:
            metadata["parent_id"] = self.parent_id
        return Document(
            id=self.id,
            text=self.body,
            source=self.source,
            created=self.created or None,
            metadata=metadata,
        )


def build_atomic(items: Iterable[RedditItem]) -> list[Document]:
    """Every comment and submission becomes an independent document."""
    return [item.to_document() for item in items]


@dataclass
class _Forest:
    items: dict[str, RedditItem]
    children: dict[str, list[str]]  # parent id -> sorted child comment ids
    comment_roots: list[str]  # top-level and orphan comments
    orphan_groups: dict[str, list[str]]  # missing parent id -> orphan ids
    submissions: list[str]


def _build_forest(items: Sequence[RedditItem]) -> _Forest:
    by_id: dict[str, RedditItem] = {}
    order: dict[str, int] = {}
    for idx, item in enumerate(items):
        if item.id in by_id:
            raise ThreadStructureError(f"duplicate item id {item.id!r}")
        by_id[item.id] = item
        order[item.id] = idx

    children: dict[str, list[str]] = {}
    comment_roots: list[str] = []
    orphan_groups: dict[str, list[str]] = {}
    submissions: list[str] = []
    for item in items:
        if item.kind == "submission":
            submissions.append(item.id)
            continue
        parent = by_id.get(item.parent_id)
        if parent is None:  # orphan comment: treated as a chain root
            comment_roots.append(item.id)
            orphan_groups.setdefault(item.parent_id, []).append(item.id)
        elif parent.kind == "submission":
            comment_roots.append(item.id)
            children.setdefault(parent.id, []).append(item.id)
        else:
            children.setdefault(parent.id, []).append(item.id)

    def sort_key(item_id: str) -> tuple:
        return (by_id[item_id].created, order[item_id])

    for ids in children.values():
        ids.sort(key=sort_key)
    comment_roots.sort(key=sort_key)
    for ids in orphan_groups.values():
        ids.sort(key=sort_key)

    # every comment must be reachable from a root; leftovers form cycles
    visited: set[str] = set()
    stack = list(comment_roots)
    while stack:
        node = stack.pop()
        visited.add(node)
        stack.extend(children.get(node, []))
    unreached = [i.id for i in items if i.kind == "comment" and i.id not in visited]
    if unreached:
        raise ThreadStructureError(f"parent links form a cycle through {unreached[0]!r}")

    return _Forest(
        items=by_id,
        children=children,
        comment_roots=comment_roots,
        orphan_groups=orphan_groups,
        submissions=submissions,
    )


def build_partial_threads(
    items: Sequence[RedditItem], max_depth: int = DEFAULT_MAX_PARENT_DEPTH
) -> list[Document]:
    """Chunk each root-to-leaf comment chain into dialogues of bounded depth.

    Submissions stay standalone documents. Every root-to-leaf path is split
    into consecutive windows of at most ``max_depth`` comments (so
    ``max_depth=1`` degenerates to atomic comments); identical windows
    shared by branching paths are emitted once. Orphan comments root their
    own chains.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    forest = _build_forest(items)
    docs = [forest.items[sid].to_document() for sid in forest.submissions]

    emitted: set[tuple[str, ...]] = set()

    def emit_path(path: list[str]) -> None:
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
                    text=_BLOCK_SEPARATOR.join(m.body for m in members),
                    source=root.source,
                    created=root.created or None,
                    metadata={
                        "kind": "partial_thread",
                        "subreddit": root.subreddit,
                        "items": len(members),
                    },
                )
            )

    def walk(node: str, path: list[str]) -> None:
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


def build_full_threads(items: Sequence[RedditItem]) -> list[Document]:
    """One document per submission: its body, then all descendant comments
    depth-first, each indented two spaces per depth level.

    Orphan comments are grouped under a synthetic empty root per missing
    parent id.
    """
    forest = _build_forest(items)

    def blocks(node: str, depth: int, out: list[str]) -> None:
        body = forest.items[node].body
        indent = _INDENT * depth
        out.append("\n".join(indent + line for line in body.split("\n")))
        for kid in forest.children.get(node, []):
            blocks(kid, depth + 1, out)

    docs = []
    for sid in forest.submissions:
        submission = forest.items[sid]
        parts: list[str] = []
        blocks(sid, 0, parts)  # the submission unindented, its comments below
        docs.append(
            Document(
                id=sid,
                text=_BLOCK_SEPARATOR.join(parts),
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
                text=_BLOCK_SEPARATOR.join(parts),
                source=first.source,
                created=first.created or None,
                metadata={"kind": "full_thread", "subreddit": first.subreddit, "synthetic_root": True},
            )
        )
    return docs
