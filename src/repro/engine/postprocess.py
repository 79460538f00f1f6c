"""Post-processing: projection, aggregation, grouping, ordering, limit.

The join phase of every engine produces a set of tuple-index combinations.
Post-processing materializes the requested output from them (paper §3:
"post-processing involves grouping, aggregation, and sorting").  It is shared
by all engines so that result correctness only depends on the join result.

Two implementations produce identical outputs:

* the **columnar** pipeline (the default) gathers each referenced column once
  into a NumPy array over the join result's row-id vectors and runs
  projection, grouping/aggregation (``reduceat`` over group segments),
  DISTINCT, and ORDER BY as array operations;
* the **row** pipeline materializes one Python dict per result tuple and
  processes them tuple at a time — used whenever the query's expressions
  are not vectorizable (UDF calls in the select list, GROUP BY, or ORDER
  BY), and, behind the output charge, the reference the equivalence tests
  and the pipeline benchmark compare against (``rows_post_process`` in
  ``tests/oracles/postprocess.py``).

Both pipelines emit rows in the same order: groups appear in first-occurrence
order, DISTINCT keeps first occurrences, and sorting is stable.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.vectorized import NotVectorizable, evaluate_array, vectorizable
from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table

def post_process(
    query: Query,
    relation: RowIdRelation,
    tables: Mapping[str, Table],
    udfs: UdfRegistry | None = None,
    meter: CostMeter | None = None,
) -> Table:
    """Turn a join result into the final output table of the query."""
    meter = meter if meter is not None else CostMeter()
    meter.charge_output(len(relation))
    if _columnar_supported(query):
        try:
            return _post_process_columnar(query, relation, tables)
        except NotVectorizable:
            pass  # e.g. unorderable value mixes: row semantics are authoritative
    return _post_process_rows(query, relation, tables, udfs)


def _columnar_supported(query: Query) -> bool:
    """Whether every post-processing expression is UDF-free and vectorizable."""
    expressions = []
    for item in query.select_items:
        expressions.append(item.aggregate.argument if item.aggregate else item.expression)
    expressions.extend(query.group_by)
    expressions.extend(item.expression for item in query.order_by)
    return all(vectorizable(expression) for expression in expressions)


# ======================================================================
# columnar pipeline
# ======================================================================
class _ColumnarData:
    """Decoded column arrays over the join result, gathered lazily."""

    def __init__(self, relation: RowIdRelation, tables: Mapping[str, Table]) -> None:
        self._relation = relation
        self._tables = tables
        self._cache: dict[tuple[str, str], np.ndarray] = {}
        self.length = len(relation)
        self.aliases = tuple(relation.aliases)

    def table(self, alias: str) -> Table:
        return self._tables[alias]

    def ids(self, alias: str) -> np.ndarray:
        """Base-table row of ``alias`` for every result row."""
        return self._relation.ids(alias)

    def column(self, alias: str, column: str) -> np.ndarray:
        """Decoded values of ``alias.column`` aligned with the result rows."""
        key = (alias, column)
        values = self._cache.get(key)
        if values is None:
            try:
                source = self._tables[alias].column(column)
            except Exception as exc:  # unknown alias or column, like the row path
                raise ExecutionError(f"no value bound for {alias}.{column}") from exc
            values = source.decoded_data[self._relation.ids(alias)]
            self._cache[key] = values
        return values

    def evaluate(self, expression, rows: np.ndarray | None = None) -> np.ndarray:
        """Evaluate an expression over (a subset of) the result rows."""

        def resolve(ref: ColumnRef) -> np.ndarray:
            values = self.column(ref.table, ref.column)
            return values if rows is None else values[rows]

        length = self.length if rows is None else int(rows.shape[0])
        return evaluate_array(expression, resolve, length)


def _post_process_columnar(
    query: Query, relation: RowIdRelation, tables: Mapping[str, Table]
) -> Table:
    if (query.has_aggregates or query.group_by) and not query.group_by and len(relation) == 0:
        # Global aggregates over an empty input produce the scalar default
        # row; delegate this single row to the (cheap) row pipeline.
        return _post_process_rows(query, relation, tables, None)
    data = _ColumnarData(relation, tables)
    if query.has_aggregates or query.group_by:
        columns, names, source_rows = _aggregate_columnar(query, data)
    else:
        columns, names, source_rows = _project_columnar(query, data)
    length = int(source_rows.shape[0])
    if query.distinct:
        keep = _distinct_selector(columns, names, length)
        columns = {name: values[keep] for name, values in columns.items()}
        source_rows = source_rows[keep]
        length = int(source_rows.shape[0])
    if query.order_by:
        order = _order_selector(query, columns, names, data, source_rows, length,
                                limit=query.limit)
        columns = {name: values[order] for name, values in columns.items()}
        source_rows = source_rows[order]
    if query.limit is not None:
        columns = {name: values[: query.limit] for name, values in columns.items()}
        source_rows = source_rows[: query.limit]
        length = int(source_rows.shape[0])
    if not names:
        return Table("result", {"count": [length]})
    if length == 0:
        # Match the row pipeline's typing of empty results exactly.
        return Table("result", {name: [] for name in dict.fromkeys(names)})
    if query.select_items:
        items = zip(names, (item.expression for item in query.select_items))
    else:
        items = ((f"{alias}_{column}", ColumnRef(alias, column))
                 for alias, _ in query.tables for column in data.table(alias).column_names)
    # Like ``columns``, keyed by name: of two items named alike the last wins.
    bare = {name: ref for name, ref in items if isinstance(ref, ColumnRef)}
    return Table("result", {
        name: _output_column(values, bare.get(name), data, source_rows)
        for name, values in columns.items()
    })


def _output_column(
    values: np.ndarray, bare: ColumnRef | None, data: _ColumnarData, source_rows: np.ndarray
) -> Column:
    """One output column, typed as ``Column(values)`` types it, built from
    physical arrays instead of value by value.

    ``bare`` is set when the select item is nothing but a column reference:
    a string column then gathers the source's codes at the output's source
    rows and shares the source's dictionary.  Any other string-valued
    expression is encoded afresh.
    """
    if np.issubdtype(values.dtype, np.integer):
        return Column.from_physical(values.astype(np.int64, copy=False), ColumnType.INT)
    if np.issubdtype(values.dtype, np.floating):
        return Column.from_physical(values.astype(np.float64, copy=False), ColumnType.FLOAT)
    if bare is not None:
        source = data.table(bare.table).column(bare.column)
        if source.ctype is ColumnType.STRING:
            codes = source.data[data.ids(bare.table)[source_rows]]
            return Column.from_physical(codes, ColumnType.STRING, source.dictionary)
    return Column(values)


# ----------------------------------------------------------------------
# projection (columnar)
# ----------------------------------------------------------------------
def _project_columnar(
    query: Query, data: _ColumnarData
) -> tuple[dict[str, np.ndarray], list[str], np.ndarray]:
    source_rows = np.arange(data.length, dtype=np.int64)
    columns: dict[str, np.ndarray] = {}
    names: list[str] = []
    if not query.select_items:
        for alias, _ in query.tables:
            for column in data.table(alias).column_names:
                name = f"{alias}_{column}"
                names.append(name)
                columns[name] = data.column(alias, column)
        return columns, names, source_rows
    names = [item.output_name(i) for i, item in enumerate(query.select_items)]
    for i, item in enumerate(query.select_items):
        assert item.expression is not None
        columns[names[i]] = data.evaluate(item.expression)
    return columns, names, source_rows


# ----------------------------------------------------------------------
# aggregation (columnar)
# ----------------------------------------------------------------------
def _aggregate_columnar(
    query: Query, data: _ColumnarData
) -> tuple[dict[str, np.ndarray], list[str], np.ndarray]:
    names = [item.output_name(i) for i, item in enumerate(query.select_items)]
    length = data.length
    if query.group_by:
        codes = _factorize([data.evaluate(expression) for expression in query.group_by], length)
        _, first_index, inverse = np.unique(codes, return_index=True, return_inverse=True)
        # Emit groups in first-occurrence order, like the row pipeline's dict.
        emission = np.argsort(first_index, kind="stable")
        rank = np.empty(emission.shape[0], dtype=np.int64)
        rank[emission] = np.arange(emission.shape[0], dtype=np.int64)
        group_ids = rank[inverse]
        representatives = first_index[emission]
    else:
        group_ids = np.zeros(length, dtype=np.int64)
        representatives = np.zeros(1 if length else 0, dtype=np.int64)
    num_groups = int(representatives.shape[0])
    sorter = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[sorter]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]) if length else (
        np.empty(0, dtype=np.int64))
    counts = np.diff(np.r_[starts, length])

    columns: dict[str, np.ndarray] = {}
    for i, item in enumerate(query.select_items):
        if item.is_aggregate:
            assert item.aggregate is not None
            values = data.evaluate(item.aggregate.argument)[sorter]
            columns[names[i]] = _reduce_groups(
                item.aggregate.function, values, starts, counts, num_groups
            )
        else:
            assert item.expression is not None
            columns[names[i]] = data.evaluate(item.expression, rows=representatives)
    return columns, names, representatives


def _factorize(key_arrays: Sequence[np.ndarray], length: int) -> np.ndarray:
    """Combine key columns into one int64 code per row (equal codes iff all
    key values are equal), re-compacting after each column to avoid overflow."""
    codes = np.zeros(length, dtype=np.int64)
    for values in key_arrays:
        inverse = _unique_inverse(values)
        width = int(inverse.max()) + 1 if length else 1
        _, codes = np.unique(codes * width + inverse, return_inverse=True)
        codes = codes.astype(np.int64, copy=False)
    return codes


def _unique_inverse(values: np.ndarray) -> np.ndarray:
    try:
        _, inverse = np.unique(values, return_inverse=True)
    except TypeError as exc:  # unorderable mixed-type keys: row path handles them
        raise NotVectorizable(str(exc)) from exc
    return inverse.astype(np.int64, copy=False)


def _reduce_groups(
    function: str, values: np.ndarray, starts: np.ndarray, counts: np.ndarray, num_groups: int
) -> np.ndarray:
    function = function.lower()
    if num_groups == 0:
        return np.empty(0, dtype=values.dtype if function != "avg" else np.float64)
    if function == "count":
        # NULLs are not modelled (see repro.storage.column), so every row of
        # the argument counts — COUNT equals the group size, as in the row
        # pipeline where no evaluated value is ever None.
        return counts
    if function in ("sum", "avg") and values.dtype == object:
        raise NotVectorizable("SUM/AVG over strings follows row semantics")
    try:
        if function == "sum":
            return np.add.reduceat(values, starts)
        if function == "min":
            return np.minimum.reduceat(values, starts)
        if function == "max":
            return np.maximum.reduceat(values, starts)
        if function == "avg":
            return np.true_divide(np.add.reduceat(values, starts), counts)
    except TypeError as exc:
        raise NotVectorizable(str(exc)) from exc
    raise ExecutionError(f"unknown aggregate {function!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# distinct / ordering (columnar)
# ----------------------------------------------------------------------
def _distinct_selector(
    columns: dict[str, np.ndarray], names: list[str], length: int
) -> np.ndarray:
    codes = _factorize([columns[name] for name in names], length)
    _, first_index = np.unique(codes, return_index=True)
    return np.sort(first_index)


def _order_selector(
    query: Query,
    columns: dict[str, np.ndarray],
    names: list[str],
    data: _ColumnarData,
    source_rows: np.ndarray,
    length: int,
    *,
    limit: int | None = None,
) -> np.ndarray:
    keys = []
    for item in query.order_by:
        values = _order_values(item.expression, columns, names, data, source_rows)
        key = _sort_key(values)
        keys.append(key if item.ascending else -key)
    if limit is not None and 0 <= limit < length:
        selected = _topk_selector(keys, length, limit)
        if selected is not None:
            return selected
    try:
        return np.lexsort(tuple(reversed(keys)))
    except TypeError as exc:  # pragma: no cover - keys are numeric by now
        raise NotVectorizable(str(exc)) from exc


def _topk_selector(keys: list[np.ndarray], length: int, limit: int) -> np.ndarray | None:
    """Top-``limit`` row selector without a full sort (LIMIT streaming).

    ``np.argpartition`` on the primary key narrows the rows to the ones
    whose primary key is within the ``limit`` smallest values; only that
    candidate set is then stably ``lexsort``-ed with all keys.  The result
    is *identical* to full-sort-then-slice: the stable sub-sort visits the
    candidates in their original order, so ties resolve exactly as the full
    sort resolves them.  Returns ``None`` to fall back to the full sort
    when partitioning cannot be trusted (NaN pivots — NaNs sort last but
    compare false, which would drop candidates).
    """
    if limit == 0:
        return np.empty(0, dtype=np.int64)
    primary = keys[0]
    part = np.argpartition(primary, limit - 1)[:limit]
    pivot = primary[part].max()
    if isinstance(pivot, np.floating) and np.isnan(pivot):
        return None
    candidates = np.flatnonzero(primary <= pivot)
    sub_keys = tuple(reversed([key[candidates] for key in keys]))
    try:
        order_local = np.lexsort(sub_keys)
    except TypeError as exc:  # pragma: no cover - keys are numeric by now
        raise NotVectorizable(str(exc)) from exc
    return candidates[order_local[:limit]]


def _order_values(
    expression,
    columns: dict[str, np.ndarray],
    names: list[str],
    data: _ColumnarData,
    source_rows: np.ndarray,
) -> np.ndarray:
    # Mirror the row pipeline's resolution: an ORDER BY item may name an
    # output column (by alias) ...
    if isinstance(expression, ColumnRef) and expression.column in columns:
        if expression.table not in data.aliases:
            return columns[expression.column]
    # ... or any expression over the source tables ...
    try:
        return data.evaluate(expression, rows=source_rows)
    except NotVectorizable:
        raise
    except Exception:  # noqa: BLE001 - fall back to output columns
        pass
    # ... falling back to the output column of the same name.
    if isinstance(expression, ColumnRef) and expression.column in columns:
        return columns[expression.column]
    raise ExecutionError(f"cannot evaluate ORDER BY expression {expression.display()}")


def _sort_key(values: np.ndarray) -> np.ndarray:
    """A numeric, negatable array sorting exactly like the decoded values."""
    if values.dtype == object:
        return _unique_inverse(values)  # ranks: order-isomorphic to the strings
    return values


# ======================================================================
# row pipeline (reference implementation, and UDF fallback)
# ======================================================================
def _post_process_rows(
    query: Query,
    relation: RowIdRelation,
    tables: Mapping[str, Table],
    udfs: UdfRegistry | None,
) -> Table:
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


# ----------------------------------------------------------------------
# projection
# ----------------------------------------------------------------------
def _project(
    query: Query,
    bindings: Sequence[Mapping[str, Mapping[str, Any]]],
    udfs: UdfRegistry | None,
    tables: Mapping[str, Table],
) -> tuple[list[dict[str, Any]], list[str]]:
    if not query.select_items:
        names = []
        for alias, _ in query.tables:
            for column in tables[alias].column_names:
                names.append(f"{alias}_{column}")
        rows = []
        for binding in bindings:
            row = {}
            for alias, _ in query.tables:
                for column, value in binding[alias].items():
                    row[f"{alias}_{column}"] = value
            row["__binding__"] = binding
            rows.append(row)
        return rows, names
    names = [item.output_name(i) for i, item in enumerate(query.select_items)]
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


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _aggregate(
    query: Query,
    bindings: Sequence[Mapping[str, Mapping[str, Any]]],
    udfs: UdfRegistry | None,
) -> tuple[list[dict[str, Any]], list[str]]:
    names = [item.output_name(i) for i, item in enumerate(query.select_items)]
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


# ----------------------------------------------------------------------
# distinct / ordering
# ----------------------------------------------------------------------
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
