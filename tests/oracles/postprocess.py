"""The row post-processing pipeline: the reference of the columnar one.

:func:`rows_post_process` takes :func:`~repro.engine.postprocess.post_process`'s
arguments, charges the same output work, and then processes the join result
one Python dict per result tuple: expressions through ``Expression.evaluate``,
groups and ``DISTINCT`` in dicts, ``ORDER BY`` through ``sorted`` over tuple
keys (``_Reversed`` for descending ones).  The columnar pipeline, the only one
production runs, must return an identical table: the same column names,
column types and values in the same order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.table import Table


def rows_post_process(
    query: Query,
    relation: RowIdRelation,
    tables: Mapping[str, Table],
    udfs: UdfRegistry | None = None,
    meter: CostMeter | None = None,
) -> Table:
    """Turn a join result into the query's output table, tuple at a time."""
    meter = meter if meter is not None else CostMeter()
    meter.charge_output(len(relation))
    bindings = [relation.binding(row, tables) for row in range(len(relation))]
    if query.has_aggregates or query.group_by:
        rows, names = _aggregate(query, bindings, udfs)
    else:
        rows, names = _project(query, bindings, udfs, tables)

    if query.distinct:
        rows = _distinct(rows, names)
    if query.order_by:
        rows = _order(query, rows, names, udfs)
    if query.limit is not None:
        rows = rows[: query.limit]
    columns = {name: [row[name] for row in rows] for name in names}
    if not rows:
        columns = {name: [] for name in names}
    return Table("result", columns) if names else Table("result", {"count": [len(rows)]})


def _project(
    query: Query,
    bindings: Sequence[Mapping[str, Mapping[str, Any]]],
    udfs: UdfRegistry | None,
    tables: Mapping[str, Table],
) -> tuple[list[dict[str, Any]], list[str]]:
    if not query.select_items:
        names = query.star_names(tables)
        rows = []
        for binding in bindings:
            row = dict(zip(names, (binding[alias][column] for alias, _ in query.tables
                                   for column in tables[alias].column_names)))
            row["__binding__"] = binding
            rows.append(row)
        return rows, names
    names = query.output_names()
    rows = []
    for binding in bindings:
        row = {}
        for i, item in enumerate(query.select_items):
            assert item.expression is not None
            row[names[i]] = item.expression.evaluate(binding, udfs)
        # Keep source values accessible for ORDER BY expressions.
        row["__binding__"] = binding
        rows.append(row)
    return rows, names


def _aggregate(
    query: Query,
    bindings: Sequence[Mapping[str, Mapping[str, Any]]],
    udfs: UdfRegistry | None,
) -> tuple[list[dict[str, Any]], list[str]]:
    names = query.output_names()
    groups: dict[tuple[Any, ...], dict[str, Any]] = {}
    for binding in bindings:
        key = tuple(expr.evaluate(binding, udfs) for expr in query.group_by)
        state = groups.get(key)
        if state is None:
            state = {"__first__": binding, "__count__": 0, "__aggs__": {}}
            groups[key] = state
        state["__count__"] += 1
        for i, item in enumerate(query.select_items):
            if not item.is_aggregate:
                continue
            assert item.aggregate is not None
            value = item.aggregate.argument.evaluate(binding, udfs)
            _accumulate(state["__aggs__"], i, item.aggregate.function, value)

    rows: list[dict[str, Any]] = []
    for key, state in groups.items():
        row: dict[str, Any] = {}
        binding = state["__first__"]
        for i, item in enumerate(query.select_items):
            if item.is_aggregate:
                assert item.aggregate is not None
                row[names[i]] = _finalize(state["__aggs__"], i, item.aggregate.function,
                                          state["__count__"])
            else:
                assert item.expression is not None
                row[names[i]] = item.expression.evaluate(binding, udfs)
        row["__binding__"] = binding
        rows.append(row)
    if not query.group_by and not rows:
        # Aggregates over an empty input still produce one row: COUNT and SUM
        # are 0, the other aggregates have no defined value (NaN), and plain
        # expressions default to an empty string (NULLs are not modelled).
        row = {}
        for i, item in enumerate(query.select_items):
            if item.is_aggregate:
                assert item.aggregate is not None
                function = item.aggregate.function
                row[names[i]] = 0 if function in ("count", "sum") else float("nan")
            else:
                row[names[i]] = ""
        rows.append(row)
    return rows, names


def _accumulate(states: dict[int, Any], index: int, function: str, value: Any) -> None:
    function = function.lower()
    if function == "count":
        states[index] = states.get(index, 0) + (1 if value is not None else 0)
    elif function == "sum":
        states[index] = states.get(index, 0) + value
    elif function == "avg":
        total, count = states.get(index, (0, 0))
        states[index] = (total + value, count + 1)
    elif function == "min":
        current = states.get(index)
        states[index] = value if current is None or value < current else current
    elif function == "max":
        current = states.get(index)
        states[index] = value if current is None or value > current else current
    else:  # pragma: no cover - validated at construction
        raise ExecutionError(f"unknown aggregate {function!r}")


def _finalize(states: dict[int, Any], index: int, function: str, count: int) -> Any:
    function = function.lower()
    if function == "avg":
        total, n = states.get(index, (0, 0))
        return total / n if n else None
    if function == "count":
        return states.get(index, 0)
    return states.get(index)


def _distinct(rows: list[dict[str, Any]], names: list[str]) -> list[dict[str, Any]]:
    seen: set[tuple[Any, ...]] = set()
    unique: list[dict[str, Any]] = []
    for row in rows:
        key = tuple(row[name] for name in names)
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


def _order(
    query: Query,
    rows: list[dict[str, Any]],
    names: list[str],
    udfs: UdfRegistry | None,
) -> list[dict[str, Any]]:
    def sort_key(row: dict[str, Any]) -> tuple:
        keys = []
        for item in query.order_by:
            value = _order_value(item.expression, row, names, udfs)
            keys.append(_Reversed(value) if not item.ascending else value)
        return tuple(keys)

    return sorted(rows, key=sort_key)


def _order_value(expression, row: dict[str, Any], names: list[str], udfs) -> Any:
    # An ORDER BY item may name an output column (by alias) ...
    if isinstance(expression, ColumnRef) and expression.column in names:
        if expression.table not in row.get("__binding__", {}):
            return row[expression.column]
    # ... or any expression over the source tables.
    binding = row.get("__binding__")
    if binding is not None:
        try:
            return expression.evaluate(binding, udfs)
        except Exception:  # noqa: BLE001 - fall back to output columns
            pass
    if isinstance(expression, ColumnRef) and expression.column in row:
        return row[expression.column]
    raise ExecutionError(f"cannot evaluate ORDER BY expression {expression.display()}")


class _Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value
