"""Conjunct predicates and their classification.

Every query's ``WHERE`` clause is normalized into a conjunction of
:class:`Predicate` objects.  Each predicate knows which table aliases it
references, which determines how the engines treat it:

* **unary** predicates (one table) are applied during pre-processing;
* **equality join** predicates (``a.x = b.y``) enable hash joins and
  Skinner-C's hash-jump acceleration;
* **generic join** predicates (inequalities across tables, UDF calls over
  several tables) are evaluated as soon as all referenced tables appear in
  the current join prefix.

The engines evaluate predicates over column arrays
(:func:`repro.engine.vectorized.predicate_mask`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, Expression, FunctionCall, Literal

_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Predicate:
    """One conjunct of a query's WHERE clause.

    Attributes
    ----------
    left:
        Left-hand expression.  For bare boolean UDF predicates
        (``WHERE good_pair(a.x, b.y)``) this is the function call and
        ``op``/``right`` are ``None``.
    op:
        Comparison operator, or ``None`` for a bare boolean expression.
    right:
        Right-hand expression, or ``None`` for a bare boolean expression.
    """

    left: Expression
    op: str | None = None
    right: Expression | None = None

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def tables(self) -> frozenset[str]:
        """Aliases of all tables this predicate references."""
        return self._aliases

    @cached_property
    def _aliases(self) -> frozenset[str]:
        # Worked out once: every engine classifies every predicate by it, and
        # a parsed statement's predicates serve statement after statement.
        result = self.left.tables()
        if self.right is not None:
            result = result | self.right.tables()
        return result

    @property
    def is_unary(self) -> bool:
        """Whether the predicate references exactly one table."""
        return len(self.tables()) == 1

    @property
    def is_join(self) -> bool:
        """Whether the predicate references two or more tables."""
        return len(self.tables()) >= 2

    @property
    def is_equi_join(self) -> bool:
        """Whether this is a simple column-equals-column join predicate."""
        return (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
            and self.left.table != self.right.table
        )

    @cached_property
    def uses_udf(self) -> bool:
        """Whether the predicate involves a non-builtin function call."""
        for expr in (self.left, self.right):
            if expr is None:
                continue
            for call in _function_calls(expr):
                if not call.is_builtin():
                    return True
        return False

    def equi_join_columns(self) -> tuple[ColumnRef, ColumnRef]:
        """Return (left, right) column refs of an equality join predicate."""
        if not self.is_equi_join:
            raise ExecutionError("not an equality join predicate")
        assert isinstance(self.left, ColumnRef) and isinstance(self.right, ColumnRef)
        return self.left, self.right

    def udf_cost(self, udfs: Any) -> int:
        """Total per-evaluation work-unit cost of UDFs in this predicate."""
        total = 1
        for expr in (self.left, self.right):
            if expr is None:
                continue
            for call in _function_calls(expr):
                if not call.is_builtin() and udfs is not None and udfs.has(call.name):
                    total += udfs.get(call.name).cost
        return total

    def display(self) -> str:
        """SQL-ish rendering."""
        if self.op is None:
            return self.left.display()
        assert self.right is not None
        return f"{self.left.display()} {self.op} {self.right.display()}"


# ----------------------------------------------------------------------
# convenience constructors
# ----------------------------------------------------------------------
def column_equals_column(
    left_table: str, left_column: str, right_table: str, right_column: str
) -> Predicate:
    """Build the equality join predicate ``l.lc = r.rc``."""
    return Predicate(ColumnRef(left_table, left_column), "=", ColumnRef(right_table, right_column))


def column_compare_literal(table: str, column: str, op: str, value: Any) -> Predicate:
    """Build the unary predicate ``t.c <op> value``."""
    return Predicate(ColumnRef(table, column), op, Literal(value))


def literal_types(predicates: Sequence[Predicate]) -> tuple[type, ...]:
    """The type of every literal in ``predicates``: ``x = 1`` and ``x = 1.0``
    are equal predicates, but an int64 column need not compare alike with
    both (``2**53 + 1``), so a key of filtered rows carries them."""
    types = []
    stack = [side for predicate in predicates for side in (predicate.left, predicate.right)
             if side is not None]
    while stack:
        expression = stack.pop()
        if isinstance(expression, Literal):
            types.append(type(expression.value))
        elif isinstance(expression, FunctionCall):
            stack.extend(expression.args)
    return tuple(types)


def _function_calls(expression: Expression) -> list[FunctionCall]:
    calls: list[FunctionCall] = []
    if isinstance(expression, FunctionCall):
        calls.append(expression)
        for arg in expression.args:
            calls.extend(_function_calls(arg))
    return calls
