"""Tuple-at-a-time evaluation: what the eddy and the test oracles run per row.

The engines evaluate expressions and predicates over column arrays
(:mod:`repro.engine.vectorized`).  The eddy plug-in
(:mod:`benchmarks.paper.baselines`) routes single tuples, and the test
oracles compute reference results one row at a time, so both evaluate
against a *binding* — a mapping from table alias to a row dictionary — with
the functions here, which keep the engines' semantics:

* :func:`evaluate` — an expression's value (built-in arithmetic, or a call
  to a registered UDF);
* :func:`holds` — whether a predicate is true;
* :func:`binding` — one result row of a :class:`~repro.engine.relation.RowIdRelation`
  as a binding;
* :func:`base_row` — the base-table row of a pre-processed alias's filtered
  index.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.engine.relation import RowIdRelation
from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, Expression, FunctionCall, Literal, Star
from repro.query.predicates import _COMPARATORS, Predicate
from repro.skinner.preprocessor import PreprocessedQuery
from repro.storage.table import Table

Binding = Mapping[str, Mapping[str, Any]]

_BUILTIN_FUNCTIONS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "abs": abs,
    "mod": lambda a, b: a % b,
}


def evaluate(expression: Expression, binding: Binding, udfs: Any = None) -> Any:
    """Evaluate ``expression`` against a binding ``alias -> {column: value}``."""
    if isinstance(expression, ColumnRef):
        try:
            return binding[expression.table][expression.column]
        except KeyError as exc:
            raise ExecutionError(f"no value bound for {expression.display()}") from exc
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, Star):
        return 1
    if isinstance(expression, FunctionCall):
        values = [evaluate(arg, binding, udfs) for arg in expression.args]
        key = expression.name.lower()
        if key in _BUILTIN_FUNCTIONS:
            return _BUILTIN_FUNCTIONS[key](*values)
        if udfs is not None and udfs.has(key):
            return udfs.get(key).function(*values)
        raise ExecutionError(f"unknown function {expression.name!r}")
    raise ExecutionError(f"cannot evaluate {expression!r}")


def holds(predicate: Predicate, binding: Binding, udfs: Any = None) -> bool:
    """Evaluate ``predicate`` against a binding ``alias -> {column: value}``."""
    left_value = evaluate(predicate.left, binding, udfs)
    if predicate.op is None:
        return bool(left_value)
    assert predicate.right is not None
    right_value = evaluate(predicate.right, binding, udfs)
    try:
        comparator = _COMPARATORS[predicate.op]
    except KeyError as exc:
        raise ExecutionError(f"unsupported predicate operator {predicate.op!r}") from exc
    return bool(comparator(left_value, right_value))


def binding(relation: RowIdRelation, row: int,
            tables: Mapping[str, Table]) -> dict[str, dict[str, Any]]:
    """Materialize result row ``row`` as ``alias -> {column: value}``."""
    return {alias: tables[alias].row(int(relation.ids(alias)[row]))
            for alias in relation.aliases}


def base_row(prepared: PreprocessedQuery, alias: str, filtered_index: int) -> int:
    """Base-table row position for a filtered-array index."""
    return int(prepared.filtered[alias][filtered_index])
