"""Evaluation of scalar expressions and predicates over column arrays.

Every engine of the package evaluates expressions here, a whole run of
candidate rows at once: ``resolve`` hands the evaluator one array of decoded
column values per column reference (or a scalar for a column fixed across the
run), and the result is one NumPy array.  It powers

* the unary and residual filters of the plan executor
  (:mod:`repro.engine.operators`),
* the predicates of the multi-way join
  (:mod:`repro.skinner.multiway_join`), and
* columnar post-processing (:mod:`repro.engine.postprocess`).

Column references, literals, ``*`` and the built-in arithmetic functions are
array operations.  String columns are decoded to ``object`` arrays, so
elementwise comparisons keep exact Python semantics.  A registered UDF is
called once per row, in row order, on the Python scalars ``Table.row`` would
hand it (``int``, ``float``, ``str``); its results form an ``object`` array.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import repeat
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, Expression, FunctionCall, Literal, Star
from repro.query.predicates import _COMPARATORS, Predicate

__all__ = ["evaluate_array", "predicate_mask"]


#: Elementwise implementations of the built-in scalar functions.  ``div``
#: uses true division and ``mod`` floors like Python ``%``, so results match
#: ``FunctionCall.evaluate`` bit for bit on int64/float64 inputs.
_BUILTIN_ARRAY_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: np.true_divide(a, b),
    "abs": lambda a: np.abs(a),
    "mod": lambda a, b: np.mod(a, b),
}


def evaluate_array(
    expression: Expression,
    resolve: Callable[[ColumnRef], Any],
    length: int,
    udfs: Any = None,
) -> np.ndarray:
    """Evaluate ``expression`` into an array of ``length`` values.

    ``resolve`` maps a column reference to either an array of that column's
    values for the run or a scalar (for columns fixed across the run).
    Scalars propagate through the arithmetic and are broadcast to a full
    array only at the end.  ``udfs`` is the registry UDF calls resolve in.
    """
    return _broadcast(_evaluate(expression, resolve, length, udfs), length)


def predicate_mask(
    predicate: Predicate,
    resolve: Callable[[ColumnRef], Any],
    length: int,
    udfs: Any = None,
) -> np.ndarray:
    """Boolean mask of the ``length`` rows satisfying ``predicate``.

    A comparison compares both sides elementwise; a bare expression
    (``WHERE good_pair(a.x, b.y)``) keeps the rows whose value is truthy,
    as ``bool()`` judges it.
    """
    left = _evaluate(predicate.left, resolve, length, udfs)
    if predicate.op is None:
        return _broadcast(left, length).astype(bool)
    # The comparators of ``Predicate.evaluate``: NumPy broadcasting gives
    # their elementwise truth values.
    comparator = _COMPARATORS.get(predicate.op)
    if comparator is None:
        raise ExecutionError(f"unsupported predicate operator {predicate.op!r}")
    right = _evaluate(predicate.right, resolve, length, udfs)
    mask = np.asarray(comparator(left, right), dtype=bool)
    if mask.ndim == 0:  # two scalars, or incomparable types: one truth value
        return np.full(length, bool(mask))
    return mask


def _broadcast(value: Any, length: int) -> np.ndarray:
    """Materialize a scalar-or-array evaluation result as a full array."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value
    if isinstance(value, str):
        result = np.empty(length, dtype=object)
        result[:] = value
        return result
    return np.full(length, value)


def _evaluate(
    expression: Expression, resolve: Callable[[ColumnRef], Any], length: int, udfs: Any
) -> Any:
    """Evaluate to a scalar or a 1-d array, without broadcasting scalars."""
    if isinstance(expression, ColumnRef):
        return resolve(expression)
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, Star):
        return 1
    if isinstance(expression, FunctionCall):
        key = expression.name.lower()
        implementation = _BUILTIN_ARRAY_FUNCTIONS.get(key)
        if implementation is not None:
            return implementation(*(_evaluate(arg, resolve, length, udfs)
                                    for arg in expression.args))
        if udfs is None or not udfs.has(key):
            raise ExecutionError(f"unknown function {expression.name!r}")
        function = udfs.get(key).function
        columns = [_broadcast(_evaluate(arg, resolve, length, udfs), length).tolist()
                   for arg in expression.args]
        rows = zip(*columns) if columns else repeat((), length)
        return np.fromiter((function(*row) for row in rows), dtype=object, count=length)
    raise ExecutionError(f"unsupported expression {type(expression).__name__}")
