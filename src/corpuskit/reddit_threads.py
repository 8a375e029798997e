"""Linearize submission/comment forests into training documents.

Three strategies: atomic (every item standalone), partial threads
(root-to-leaf comment chains chunked to a maximum depth), and full threads
(one document per submission with depth-indented comments). Comment bodies
are joined with a blank line; full threads indent two spaces per depth
level. Sibling order is ascending created timestamp, ties kept in input
order. The forest is walked with an explicit stack, so reply chains of any
depth work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from corpuskit.documents import Document, metadata_flag

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
            author_deleted=metadata_flag(md.get("author_deleted")),
            moderator_removed=metadata_flag(md.get("moderator_removed")),
            over_18=metadata_flag(md.get("over_18")),
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


def _preorder(children: dict[str, list[str]], roots: list[str]) -> Iterator[tuple[str, int]]:
    """Yield ``(node, depth)`` depth-first in pre-order, each root at depth 0
    and each node's children in their sorted order. The stack is explicit, so
    a chain of any depth stays within Python's recursion limit."""
    stack = [roots[::-1]]  # per depth, the siblings still to visit, last first
    while stack:
        if not stack[-1]:
            stack.pop()
            continue
        node = stack[-1].pop()
        yield node, len(stack) - 1
        kids = children.get(node)
        if kids:
            stack.append(kids[::-1])


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
    visited = {node for node, _ in _preorder(children, comment_roots)}
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


def _thread(doc_id: str, text: str, first_item: RedditItem, kind: str, **metadata) -> Document:
    """A thread document, dated and sourced by its first item."""
    return Document(
        id=doc_id,
        text=text,
        source=first_item.source,
        created=first_item.created or None,
        metadata={"kind": kind, "subreddit": first_item.subreddit, **metadata},
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
            text = _BLOCK_SEPARATOR.join(m.body for m in members)
            docs.append(_thread("+".join(window), text, members[0], "partial_thread", items=len(members)))

    path: list[str] = []  # the root-to-node chain of the walk's current node
    for node, depth in _preorder(forest.children, forest.comment_roots):
        del path[depth:]
        path.append(node)
        if not forest.children.get(node):
            emit_path(path)
    return docs


def build_full_threads(items: Sequence[RedditItem]) -> list[Document]:
    """One document per submission: its body, then all descendant comments
    depth-first, each indented two spaces per depth level.

    Orphan comments are grouped under a synthetic empty root per missing
    parent id.
    """
    forest = _build_forest(items)

    def text(roots: list[str], offset: int) -> str:
        """The walk below ``roots``, each body indented by its depth plus ``offset``."""
        return _BLOCK_SEPARATOR.join(
            "\n".join(_INDENT * (depth + offset) + line for line in forest.items[node].body.split("\n"))
            for node, depth in _preorder(forest.children, roots)
        )

    # a submission sits unindented with its comments below it
    docs = [_thread(sid, text([sid], 0), forest.items[sid], "full_thread") for sid in forest.submissions]
    for missing_parent, roots in sorted(forest.orphan_groups.items()):
        first = forest.items[roots[0]]
        docs.append(_thread(f"orphans-{missing_parent}", text(roots, 1), first, "full_thread", synthetic_root=True))
    return docs
