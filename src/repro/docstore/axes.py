"""Compile XPath-style axis steps into self-join SQL.

An axis path over a shredded node table (see :mod:`repro.docstore.shred`)
is a chain of steps, each binding one alias of the *same* table; step
*i* is related to step *i-1* by its axis predicate:

=================== =====================================================
axis                join predicates between ``sN`` and its context ``sM``
=================== =====================================================
child               ``sN.parent = sM.pre``
descendant          ``sN.pre > sM.pre AND sN.pre <= sM.last``
following-sibling   ``sN.parent = sM.parent AND sN.pre > sM.pre``
ancestor            ``sN.pre < sM.pre AND sN.last >= sM.pre``
=================== =====================================================

``child`` and the parent half of ``following-sibling`` are equi-joins
(hash-join eligible).  ``descendant``/``ancestor`` are the interval
encoding of XPath Accelerator / staircase join (Grust, van Keulen,
Teubner, VLDB 2003) as plain inequality joins: a descendant's ``pre``
lies in its context's ``(pre, last]``.  Wherever the join order binds the
context first, both bounds fall on the ascending ``pre`` column of the
later alias, so the multi-way join cuts that alias to one band of rows
(for ``ancestor`` that is the order visiting the ancestor first); the
other direction bounds ``pre`` on one side only.  The order half of
``following-sibling`` stays a generic inequality — the mix is what makes
axis paths the paper's favorite stress case: every alias is
the same relation, so base-table statistics carry almost no signal, and
the structural predicates are strongly correlated (a ``rating`` child
exists almost surely under a ``review`` but almost never elsewhere),
which breaks the independence assumptions behind static cost models.

Node tests and value predicates attach to each step as unary predicates
(``tag``/``kind`` equality, ``val_str``/``val_num`` comparisons), so the
emitted SQL stays inside the repro grammar: conjunctive predicates over
aliased tables, no arithmetic, no OR.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ReproError

#: Axes the compiler understands (``self`` only anchors the first step).
AXES = ("self", "child", "descendant", "following-sibling", "ancestor")

_VALUE_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class AxisStep:
    """One step of an axis path: an axis plus optional node/value tests.

    ``tag``/``kind`` test the step's node; ``value_op``+``value`` compare
    its typed value — against ``val_num`` for numeric values, ``val_str``
    for strings.  The first step of a path must use the ``self`` axis (it
    selects the context nodes); every later step must not.
    """

    axis: str
    tag: str | None = None
    kind: str | None = None
    value_op: str | None = None
    value: str | float | int | None = None

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ReproError(
                f"unknown axis {self.axis!r}; expected one of {', '.join(AXES)}"
            )
        if (self.value_op is None) != (self.value is None):
            raise ReproError("value_op and value must be given together")
        if self.value_op is not None and self.value_op not in _VALUE_OPS:
            raise ReproError(f"unsupported value operator {self.value_op!r}")


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _step_predicates(alias: str, step: AxisStep) -> list[str]:
    """The unary node/value tests of one step, rendered as SQL."""
    predicates = []
    if step.tag is not None:
        predicates.append(f"{alias}.tag = {_quote(step.tag)}")
    if step.kind is not None:
        predicates.append(f"{alias}.kind = {_quote(step.kind)}")
    if step.value_op is not None:
        if isinstance(step.value, (int, float)) and not isinstance(step.value, bool):
            predicates.append(f"{alias}.val_num {step.value_op} {step.value!r}")
        else:
            predicates.append(f"{alias}.val_str {step.value_op} {_quote(str(step.value))}")
    return predicates


def _axis_predicates(alias: str, context: str, axis: str) -> list[str]:
    """The join predicates relating one step to its context step."""
    if axis == "child":
        return [f"{alias}.parent = {context}.pre"]
    if axis == "descendant":
        return [f"{alias}.pre > {context}.pre", f"{alias}.pre <= {context}.last"]
    if axis == "following-sibling":
        return [f"{alias}.parent = {context}.parent", f"{alias}.pre > {context}.pre"]
    if axis == "ancestor":
        return [f"{alias}.pre < {context}.pre", f"{alias}.last >= {context}.pre"]
    raise ReproError(f"axis {axis!r} cannot extend a path")  # i.e. "self"


def axis_query(
    table: str,
    steps: Sequence[AxisStep],
    *,
    select: str | None = None,
    distinct: bool = False,
) -> str:
    """Render an axis path as a multi-way self-join SELECT statement.

    Step *i* binds alias ``s{i}`` of ``table``; the first step must be the
    ``self`` axis (the context-node test) and later steps chain off their
    predecessor.  ``select`` overrides the projection (default: the final
    step's ``pre``, ``tag``, and ``val_str``); ``distinct`` deduplicates —
    descendant/ancestor chains can reach the same final node along
    multiple intermediate bindings, and XPath node-set semantics want each
    node once.

    >>> axis_query("doc", [AxisStep("self", tag="review"),
    ...                    AxisStep("child", tag="rating")])
    "SELECT s1.pre, s1.tag, s1.val_str FROM doc s0, doc s1 WHERE s0.tag = 'review' AND s1.parent = s0.pre AND s1.tag = 'rating'"
    """
    if not steps:
        raise ReproError("an axis path needs at least one step")
    if steps[0].axis != "self":
        raise ReproError("the first step must use the 'self' axis")
    if any(step.axis == "self" for step in steps[1:]):
        raise ReproError("'self' can only anchor the first step")
    aliases = [f"s{i}" for i in range(len(steps))]
    predicates: list[str] = []
    predicates.extend(_step_predicates(aliases[0], steps[0]))
    for i in range(1, len(steps)):
        predicates.extend(_axis_predicates(aliases[i], aliases[i - 1], steps[i].axis))
        predicates.extend(_step_predicates(aliases[i], steps[i]))
    last = aliases[-1]
    projection = select or f"{last}.pre, {last}.tag, {last}.val_str"
    keyword = "SELECT DISTINCT" if distinct else "SELECT"
    from_list = ", ".join(f"{table} {alias}" for alias in aliases)
    sql = f"{keyword} {projection} FROM {from_list}"
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    return sql
