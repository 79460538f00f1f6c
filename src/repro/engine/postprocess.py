"""Post-processing: projection, aggregation, grouping, ordering, limit.

The join phase of every engine produces a set of tuple-index combinations.
Post-processing materializes the requested output from them (paper §3:
"post-processing involves grouping, aggregation, and sorting").  It is shared
by all engines so that result correctness only depends on the join result.

The pipeline is columnar: each referenced column is gathered once into a
NumPy array over the join result's row-id vectors, every expression (UDF
calls included) is evaluated over arrays by :mod:`repro.engine.vectorized`,
and projection, grouping/aggregation (``reduceat`` over group segments),
DISTINCT and ORDER BY run as array operations.  ``object`` arrays (strings,
UDF results) follow Python semantics: they group and DISTINCT by hashing,
aggregate by a Python fold over each group, rank for ORDER BY by sorting,
and type their output column from their Python values.  Groups appear in
first-occurrence order, DISTINCT keeps first occurrences, and sorting is
stable.  The tuple-at-a-time reference the equivalence tests and the
pipeline benchmark compare against is ``rows_post_process`` in
``tests/oracles/postprocess.py``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.vectorized import evaluate_array
from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, Star
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
    data = _ColumnarData(relation, tables, udfs)
    charge_post_process(relation, meter)
    if query.select_items:
        names = query.output_names()
        sources = [item.expression for item in query.select_items]
    else:
        names = query.star_names(tables)
        sources = [ColumnRef(alias, column) for alias, _ in query.tables
                   for column in tables[alias].column_names]
    if query.has_aggregates or query.group_by:
        columns, source_rows = _aggregate_columnar(query, data, names)
    else:
        columns, source_rows = _project_columnar(data, names, sources)
    length = len(next(iter(columns.values()))) if source_rows is None else len(source_rows)
    if query.distinct:
        keep = _distinct_selector(columns, names, length)
        columns, source_rows, length = _take(columns, source_rows, keep)
    if query.order_by:
        order = _order_selector(query, columns, data, source_rows, length, limit=query.limit)
        columns, source_rows, length = _take(columns, source_rows, order)
    if query.limit is not None:
        columns, source_rows, length = _take(columns, source_rows, slice(None, query.limit))
    if length == 0:
        # Empty results type every column as an empty value list does.
        return Table("result", {name: [] for name in names})
    # The default row of an empty global aggregate has no source to gather.
    return Table("result", {
        name: _output_column(
            values, ref if source_rows is not None and isinstance(ref, ColumnRef) else None,
            data, source_rows)
        for (name, values), ref in zip(columns.items(), sources)
    })


def charge_post_process(relation: RowIdRelation, meter: CostMeter) -> None:
    """Charge what post-processing ``relation`` costs: one output unit a
    joined row, whatever the query makes of them.

    :func:`post_process` charges through here, and so does a completion
    that charges now and builds the table later.
    """
    meter.charge_output(len(relation))


def _take(
    columns: dict[str, np.ndarray], source_rows: np.ndarray | None, rows: Any
) -> tuple[dict[str, np.ndarray], np.ndarray | None, int]:
    """``columns`` and ``source_rows`` cut to ``rows``, and their new length."""
    columns = {name: values[rows] for name, values in columns.items()}
    if source_rows is None:
        return columns, None, len(next(iter(columns.values())))
    source_rows = source_rows[rows]
    return columns, source_rows, len(source_rows)


class _ColumnarData:
    """Decoded column arrays over the join result, gathered lazily."""

    def __init__(
        self, relation: RowIdRelation, tables: Mapping[str, Table], udfs: UdfRegistry | None
    ) -> None:
        self._relation = relation
        self._tables = tables
        self._udfs = udfs
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
            except Exception as exc:  # unknown alias or column
                raise ExecutionError(f"no value bound for {alias}.{column}") from exc
            values = source.decoded_data[self._relation.ids(alias)]
            self._cache[key] = values
        return values

    def array(self, expression, rows: np.ndarray | None = None) -> np.ndarray:
        """Values of an expression over (a subset of) the result rows."""

        def resolve(ref: ColumnRef) -> np.ndarray:
            values = self.column(ref.table, ref.column)
            return values if rows is None else values[rows]

        length = self.length if rows is None else int(rows.shape[0])
        return evaluate_array(expression, resolve, length, self._udfs)


def _output_column(
    values: np.ndarray,
    bare: ColumnRef | None,
    data: _ColumnarData,
    source_rows: np.ndarray | None,
) -> Column:
    """One output column, typed as ``Column(values.tolist())`` types it, built
    from physical arrays where the values are numeric.

    ``bare`` is set when the select item is nothing but a column reference:
    a string column then gathers the source's codes at the output's source
    rows and shares the source's dictionary.  Any other ``object`` array
    (computed strings, UDF results) is typed from its Python values.
    """
    kind = values.dtype.kind
    if kind in "iu":  # the integer dtypes
        return Column.from_physical(values.astype(np.int64, copy=False), ColumnType.INT)
    if kind == "f":  # the floating ones
        return Column.from_physical(values.astype(np.float64, copy=False), ColumnType.FLOAT)
    if bare is not None:
        source = data.table(bare.table).column(bare.column)
        if source.ctype is ColumnType.STRING:
            codes = source.data[data.ids(bare.table)[source_rows]]
            return Column.from_physical(codes, ColumnType.STRING, source.dictionary)
    return Column(values.tolist())


# ----------------------------------------------------------------------
# projection
# ----------------------------------------------------------------------
def _project_columnar(
    data: _ColumnarData, names: list[str], sources: list
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Each source expression's values under its output name."""
    columns = {name: data.array(source) for name, source in zip(names, sources)}
    return columns, np.arange(data.length, dtype=np.int64)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _aggregate_columnar(
    query: Query, data: _ColumnarData, names: list[str]
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Aggregate columns under ``names``, and each group's first result row.

    Global aggregates over an empty input produce one default row with no
    source row (``None``): COUNT and SUM are 0, the other aggregates have no
    defined value (NaN), and plain expressions default to an empty string
    (NULLs are not modelled).
    """
    length = data.length
    if not query.group_by and length == 0:
        columns = {}
        for name, item in zip(names, query.select_items):
            if item.aggregate is None:
                columns[name] = np.array([""], dtype=object)
            elif item.aggregate.function in ("count", "sum"):
                columns[name] = np.zeros(1, dtype=np.int64)
            else:
                columns[name] = np.full(1, np.nan)
        return columns, None
    if query.group_by:
        codes = _factorize([data.array(expression) for expression in query.group_by], length)
        _, first_index, inverse = np.unique(codes, return_index=True, return_inverse=True)
        # Emit groups in first-occurrence order.
        emission = np.argsort(first_index, kind="stable")
        rank = np.empty(emission.shape[0], dtype=np.int64)
        rank[emission] = np.arange(emission.shape[0], dtype=np.int64)
        group_ids = rank[inverse]
        representatives = first_index[emission]
        sorter: np.ndarray | None = np.argsort(group_ids, kind="stable")
        sorted_ids = group_ids[sorter]
        change = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
        starts = np.concatenate(([0], change)) if length else change
        counts = np.diff(np.concatenate((starts, [length])))
    else:  # one group, every row in row order: nothing to sort
        sorter = None
        representatives = starts = np.zeros(1, dtype=np.int64)
        counts = np.array([length], dtype=np.int64)

    columns: dict[str, np.ndarray] = {}
    for i, item in enumerate(query.select_items):
        if item.is_aggregate:
            aggregate = item.aggregate
            assert aggregate is not None
            if aggregate.function.lower() == "count" and _counts_rows(aggregate.argument, data):
                columns[names[i]] = counts
                continue
            values = data.array(aggregate.argument)
            if sorter is not None:
                values = values[sorter]
            columns[names[i]] = _reduce_groups(aggregate.function, values, starts, counts)
        else:
            assert item.expression is not None
            columns[names[i]] = data.array(item.expression, rows=representatives)
    return columns, representatives


def _counts_rows(argument: Any, data: _ColumnarData) -> bool:
    """Whether ``COUNT(argument)`` is the group size without looking at a
    value: ``*``, or a bare numeric column (NULLs are not modelled, so every
    row of one counts)."""
    if isinstance(argument, Star):
        return True
    if not isinstance(argument, ColumnRef):
        return False
    try:
        ctype = data.table(argument.table).column(argument.column).ctype
    except Exception:  # noqa: BLE001 - unknown alias or column: evaluate, and fail there
        return False
    return ctype is ColumnType.INT or ctype is ColumnType.FLOAT


def _factorize(key_arrays: Sequence[np.ndarray], length: int) -> np.ndarray:
    """Combine key columns into one int64 code per row (equal codes iff all
    key values are equal), re-compacting after each column to avoid overflow."""
    codes = np.zeros(length, dtype=np.int64)
    for values in key_arrays:
        inverse = _equality_codes(values)
        width = int(inverse.max()) + 1 if length else 1
        _, codes = np.unique(codes * width + inverse, return_inverse=True)
        codes = codes.astype(np.int64, copy=False)
    return codes


def _equality_codes(values: np.ndarray) -> np.ndarray:
    """Codes equal exactly where ``values`` are; ``object`` values are hashed,
    as dict keys are, so values of unorderable mixed types group too."""
    if values.dtype == object:
        seen: dict[Any, int] = {}
        return np.fromiter((seen.setdefault(value, len(seen)) for value in values.tolist()),
                           dtype=np.int64, count=len(values))
    return np.unique(values, return_inverse=True)[1].astype(np.int64, copy=False)


def _reduce_groups(
    function: str, values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    function = function.lower()
    if values.dtype == object:
        items = values.tolist()
        return np.fromiter(
            (_fold(function, items[start:start + count])
             for start, count in zip(starts.tolist(), counts.tolist())),
            dtype=object, count=len(starts))
    if starts.shape[0] == 0:
        return np.empty(0, dtype=values.dtype if function != "avg" else np.float64)
    if function == "count":
        # NULLs are not modelled (see repro.storage.column): every row of a
        # numeric argument counts, so COUNT equals the group size.
        return counts
    if function == "sum":
        return np.add.reduceat(values, starts)
    if function == "min":
        return np.minimum.reduceat(values, starts)
    if function == "max":
        return np.maximum.reduceat(values, starts)
    if function == "avg":
        return np.true_divide(np.add.reduceat(values, starts), counts)
    raise ExecutionError(f"unknown aggregate {function!r}")  # pragma: no cover


def _fold(function: str, group: list[Any]) -> Any:
    """One group's aggregate over Python values, in row order: SUM and AVG
    add from 0, MIN and MAX keep the first extreme, COUNT skips ``None``."""
    if function == "count":
        return sum(value is not None for value in group)
    if function in ("sum", "avg"):
        total = 0
        for value in group:
            total = total + value
        return total if function == "sum" else total / len(group)
    best = None
    for value in group:
        if best is None or (value < best if function == "min" else value > best):
            best = value
    return best


# ----------------------------------------------------------------------
# distinct / ordering
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
    data: _ColumnarData,
    source_rows: np.ndarray | None,
    length: int,
    *,
    limit: int | None = None,
) -> np.ndarray:
    keys = []
    for item in query.order_by:
        key = _sort_key(_order_values(item.expression, columns, data, source_rows))
        keys.append(key if item.ascending else -key)
    if limit is not None and 0 <= limit < length:
        selected = _topk_selector(keys, length, limit)
        if selected is not None:
            return selected
    return np.lexsort(tuple(reversed(keys)))


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
    order_local = np.lexsort(tuple(reversed([key[candidates] for key in keys])))
    return candidates[order_local[:limit]]


def _order_values(
    expression,
    columns: dict[str, np.ndarray],
    data: _ColumnarData,
    source_rows: np.ndarray | None,
) -> np.ndarray:
    # An ORDER BY item may name an output column (by alias) ...
    if isinstance(expression, ColumnRef) and expression.column in columns:
        if source_rows is None or expression.table not in data.aliases:
            return columns[expression.column]
    # ... or any expression over the source tables ...
    if source_rows is not None:
        try:
            return data.array(expression, rows=source_rows)
        except Exception:  # noqa: BLE001 - fall back to output columns
            pass
    # ... falling back to the output column of the same name.
    if isinstance(expression, ColumnRef) and expression.column in columns:
        return columns[expression.column]
    raise ExecutionError(f"cannot evaluate ORDER BY expression {expression.display()}")


def _sort_key(values: np.ndarray) -> np.ndarray:
    """A numeric, negatable array sorting exactly like the values."""
    if values.dtype == object:
        # Ranks, order-isomorphic to the values; unorderable mixes raise.
        return np.unique(values, return_inverse=True)[1].astype(np.int64, copy=False)
    return values
