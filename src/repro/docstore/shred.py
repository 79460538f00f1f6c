"""Shred XML/JSON documents into relational node tables.

The encoding is the classic pre/post region scheme plus the interval form
of XPath Accelerator (Grust, van Keulen, Teubner, VLDB 2003): every
document node becomes one row carrying its preorder rank (``pre``),
postorder rank (``post``), the ``pre`` of its last descendant (``last``),
parent's preorder rank (``parent``, ``-1`` for roots), depth, node kind,
tag/key, and typed value columns.  A node's descendants are exactly the
rows after it up to its ``last``, so the containment test

    ``d.pre > a.pre AND d.pre <= a.last``  ⇔  *d* is a descendant of *a*

holds exactly — as does the older ``d.pre > a.pre AND d.post < a.post`` —
and because each document in a forest gets a disjoint ``[base, base +
size)`` range of both ranks, both stay exact across multi-document tables.
The interval form bounds one column, ``pre``, which ascends with the row
id, so the multi-way join turns it into a band of rows instead of a scan.
The axis compiler (:mod:`repro.docstore.axes`) relies on nothing but these
columns, so every axis step is expressible as repro join predicates — no
arithmetic, no window functions.

Columns of a shredded table:

======== ======= ====================================================
column   type    meaning
======== ======= ====================================================
pre      INT     preorder rank (document order; unique row id)
post     INT     postorder rank (same per-document offset as ``pre``)
parent   INT     ``pre`` of the parent node, ``-1`` for document roots
depth    INT     0 for roots
size     INT     number of descendants (subtree size minus one)
last     INT     ``pre + size``: ``pre`` of the last descendant (itself
                 for a leaf)
kind     STRING  ``elem``/``attr`` (XML), ``object``/``array``/
                 ``string``/``number``/``bool``/``null`` (JSON)
tag      STRING  element tag, attribute name, or object key;
                 ``#item`` for array members, ``#root`` for JSON roots
val_str  STRING  text value (``""`` when none)
val_num  FLOAT   numeric value (NaN when not numeric)
======== ======= ====================================================

XML simplifications (documented contract): an element's direct text is
stored on the element row itself (no separate text nodes, tails are
ignored) and attributes become child rows of kind ``attr`` preceding the
element children.  NaN ``val_num`` entries never match a join or survive a
comparison predicate, matching the engine-wide "NaN keys never match"
semantics.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.storage.column import Column, ColumnType

#: Synthetic tags for nodes that have no name of their own.
ITEM_TAG = "#item"
ROOT_TAG = "#root"


@dataclass
class DocNode:
    """One document node: a tag/kind plus typed value and children.

    The tree is the mutable source of truth for churn workloads — subtree
    inserts/updates/deletes edit :class:`DocNode` forests and re-encode
    them through :func:`shred_nodes`; the relational table itself stays
    immutable, as the storage layer requires.
    """

    tag: str
    kind: str = "elem"
    text: str = ""
    number: float = math.nan
    children: list[DocNode] = field(default_factory=list)

    def subtree_size(self) -> int:
        """Number of nodes in this subtree (including the node itself)."""
        return sum(1 for _ in self.walk())

    def walk(self):
        """Yield the subtree's nodes in document (preorder) order.

        An explicit stack, like :func:`shred_nodes`: a chain deeper than the
        interpreter's recursion limit walks like any other tree.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _numeric(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def parse_xml(text: str) -> DocNode:
    """Parse an XML document string into a :class:`DocNode` tree."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise ReproError(f"malformed XML document: {exc}") from exc
    return _from_element(root)


def _from_element(element: ElementTree.Element) -> DocNode:
    value = (element.text or "").strip()
    node = DocNode(
        tag=element.tag, kind="elem", text=value, number=_numeric(value)
    )
    for name, attr_value in element.attrib.items():
        node.children.append(
            DocNode(tag=name, kind="attr", text=attr_value,
                    number=_numeric(attr_value))
        )
    for child in element:
        if isinstance(child.tag, str):  # skip comments/processing instructions
            node.children.append(_from_element(child))
    return node


def parse_json(text: str) -> DocNode:
    """Parse a JSON document string into a :class:`DocNode` tree."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"malformed JSON document: {exc}") from exc
    return _from_json(ROOT_TAG, value)


def _from_json(tag: str, value) -> DocNode:
    if isinstance(value, dict):
        node = DocNode(tag=tag, kind="object")
        node.children = [_from_json(key, item) for key, item in value.items()]
        return node
    if isinstance(value, list):
        node = DocNode(tag=tag, kind="array")
        node.children = [_from_json(ITEM_TAG, item) for item in value]
        return node
    if isinstance(value, bool):
        return DocNode(tag=tag, kind="bool", text=str(value).lower(),
                       number=float(value))
    if isinstance(value, (int, float)):
        number = float(value)
        if not math.isfinite(number):
            number = math.nan
        return DocNode(tag=tag, kind="number", text=json.dumps(value),
                       number=number)
    if value is None:
        return DocNode(tag=tag, kind="null")
    return DocNode(tag=tag, kind="string", text=str(value),
                   number=_numeric(str(value)))


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def shred_nodes(roots: list[DocNode] | DocNode) -> dict[str, Column]:
    """Encode a document forest as node-table columns.

    Each document occupies one disjoint ``[base, base + size)`` range of
    both the ``pre`` and ``post`` rank spaces, keeping the containment
    tests exact across the whole forest.  Rows are emitted in
    ``pre`` order, so ``pre`` doubles as the row id (and lines up with the
    ``_repro_rid`` of external-DBMS mirrors).

    One traversal with an explicit stack — linear in the nodes, no
    recursion limit — that returns typed :class:`Column` objects (int64 /
    float64 arrays, first-seen dictionary codes), so ``Table(name,
    shred_nodes(forest))`` adopts them as they are.
    """
    if isinstance(roots, DocNode):
        roots = [roots]
    nodes: list[DocNode] = []  # in document order: row i is nodes[i]
    parent, depth, post = [], [], []  # one int per row
    open_rows: list[int] = []  # the visited node's ancestors, root first
    closed = 0  # nodes whose subtree is complete: the next postorder rank
    stack: list[DocNode | None] = roots[::-1]
    while stack:
        node = stack.pop()
        if node is None:  # every child of the innermost open node is done
            post[open_rows.pop()] = closed
            closed += 1
            continue
        parent.append(open_rows[-1] if open_rows else -1)
        depth.append(len(open_rows))
        nodes.append(node)
        if node.children:
            open_rows.append(len(post))
            post.append(0)  # patched when the ``None`` below comes off the stack
            stack.append(None)
            stack.extend(node.children[::-1])
        else:
            post.append(closed)
            closed += 1
    ranks = {"pre": np.arange(len(nodes)), "post": post, "parent": parent, "depth": depth}
    ints = {name: np.array(values, dtype=np.int64) for name, values in ranks.items()}
    # Before a node closes, every earlier node that is not one of its
    # ancestors has closed, and so has each of its descendants.
    ints["size"] = ints["post"] - ints["pre"] + ints["depth"]
    ints["last"] = ints["pre"] + ints["size"]
    numbers = np.array([node.number for node in nodes], dtype=np.float64)
    return {
        **{name: Column.from_physical(data, ColumnType.INT) for name, data in ints.items()},
        "kind": _string_column([node.kind for node in nodes]),
        "tag": _string_column([node.tag for node in nodes]),
        "val_str": _string_column([node.text for node in nodes]),
        "val_num": Column.from_physical(numbers, ColumnType.FLOAT),
    }


def _string_column(values: list[str]) -> Column:
    """Dictionary-encode ``values``; codes number the strings as first seen."""
    dictionary = list(dict.fromkeys(values))
    code_of = dict(zip(dictionary, range(len(dictionary))))
    codes = np.fromiter(map(code_of.__getitem__, values), dtype=np.int64, count=len(values))
    return Column.from_physical(codes, ColumnType.STRING, dictionary)


def shred_document(path: str | Path, *, format: str | None = None) -> dict[str, Column]:
    """Read and shred one document file into node-table columns.

    ``format`` is ``"xml"`` or ``"json"``; ``None`` infers it from the
    file suffix.  This is the ingestion entry point behind
    ``Connection.load_document()`` — the returned mapping feeds
    ``create_table`` on any transport.
    """
    path = Path(path)
    if format is None:
        suffix = path.suffix.lower().lstrip(".")
        if suffix in ("xml", "json"):
            format = suffix
        else:
            raise ReproError(
                f"cannot infer document format from {path.name!r}; "
                "pass format='xml' or format='json'"
            )
    format = format.lower()
    text = path.read_text(encoding="utf-8")
    if format == "xml":
        root = parse_xml(text)
    elif format == "json":
        root = parse_json(text)
    else:
        raise ReproError(f"unsupported document format {format!r}")
    return shred_nodes(root)


# ----------------------------------------------------------------------
# forest editing (the churn driver's mutation surface)
# ----------------------------------------------------------------------
def node_at(roots: list[DocNode], index: int) -> DocNode:
    """The ``index``-th node of the forest in document order."""
    for offset, node in enumerate(node for root in roots for node in root.walk()):
        if offset == index:
            return node
    raise ReproError(f"node index {index} out of range")


def forest_size(roots: list[DocNode]) -> int:
    """Total number of nodes across the forest."""
    return sum(root.subtree_size() for root in roots)


def insert_subtree(roots: list[DocNode], parent_index: int,
                   subtree: DocNode) -> None:
    """Append ``subtree`` as the last child of the ``parent_index``-th node."""
    node_at(roots, parent_index).children.append(subtree)


def delete_subtree(roots: list[DocNode], index: int) -> bool:
    """Remove the ``index``-th node's subtree; roots are never removed."""
    target = node_at(roots, index)
    for root in roots:
        for node in root.walk():
            for position, child in enumerate(node.children):
                # Identity, not ``==``: look-alike siblings compare equal.
                if child is target:
                    del node.children[position]
                    return True
    return False  # a root (or already detached): leave the forest intact


def update_value(roots: list[DocNode], index: int, text: str) -> None:
    """Overwrite the ``index``-th node's value (string and numeric)."""
    node = node_at(roots, index)
    node.text = text
    node.number = _numeric(text)
