"""Cardinality estimation: the textbook estimates of a conventional optimizer.

``EstimatedCardinality`` reproduces how a conventional optimizer reasons:

* unary predicate selectivities come from per-column statistics and are
  multiplied together (independence assumption);
* equality joins use ``1 / max(distinct(left), distinct(right))``;
* predicates it cannot analyze (UDFs) get a fixed default selectivity.

The DP and greedy optimizers run on any :class:`CardinalityEstimator`: the
re-optimizer baseline and the C_out oracle of the benchmark harness
(``benchmarks/paper``) bring their own.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.query.expressions import ColumnRef, Literal
from repro.query.predicates import Predicate
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.optimizer.statistics import StatisticsCatalog

_DEFAULT_EQUALITY_SELECTIVITY = 0.005
_DEFAULT_RANGE_SELECTIVITY = 0.33
_DEFAULT_JOIN_SELECTIVITY = 0.1
_DEFAULT_UDF_SELECTIVITY = 0.33


class CardinalityEstimator:
    """Interface: cardinality of joining a set of query aliases."""

    def base_cardinality(self, alias: str) -> float:
        """Estimated rows of ``alias`` after its unary predicates."""
        raise NotImplementedError

    def cardinality(self, aliases: Sequence[str]) -> float:
        """Estimated rows of joining the given aliases (all predicates applied)."""
        raise NotImplementedError


class EstimatedCardinality(CardinalityEstimator):
    """Statistics-based estimates under independence assumptions."""

    def __init__(
        self,
        query: Query,
        statistics: StatisticsCatalog,
        udfs: UdfRegistry | None = None,
    ) -> None:
        self._query = query
        self._statistics = statistics
        self._udfs = udfs
        self._base: dict[str, float] = {}

    # ------------------------------------------------------------------
    # base tables
    # ------------------------------------------------------------------
    def base_cardinality(self, alias: str) -> float:
        if alias not in self._base:
            table_name = self._query.base_table(alias)
            stats = self._statistics.table(table_name)
            rows = float(stats.row_count) if stats else 1000.0
            selectivity = 1.0
            for predicate in self._query.unary_predicates(alias):
                selectivity *= self._unary_selectivity(alias, predicate)
            self._base[alias] = max(1.0, rows * selectivity)
        return self._base[alias]

    def _unary_selectivity(self, alias: str, predicate: Predicate) -> float:
        if predicate.uses_udf:
            return self._udf_selectivity(predicate)
        if (
            predicate.op is not None
            and isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, Literal)
        ):
            stats = self._column_stats(alias, predicate.left.column)
            if stats is None:
                return _DEFAULT_RANGE_SELECTIVITY
            if predicate.op == "=":
                return stats.equality_selectivity()
            if predicate.op == "!=":
                return 1.0 - stats.equality_selectivity()
            literal = predicate.right.value
            if isinstance(literal, (int, float)):
                return stats.range_selectivity(predicate.op, float(literal))
            return _DEFAULT_RANGE_SELECTIVITY
        return _DEFAULT_RANGE_SELECTIVITY

    def _udf_selectivity(self, predicate: Predicate) -> float:
        if self._udfs is None:
            return _DEFAULT_UDF_SELECTIVITY
        from repro.query.expressions import FunctionCall

        hints = []
        for expr in (predicate.left, predicate.right):
            if isinstance(expr, FunctionCall) and not expr.is_builtin() and self._udfs.has(expr.name):
                hints.append(self._udfs.get(expr.name).selectivity_hint)
        if not hints:
            return _DEFAULT_UDF_SELECTIVITY
        selectivity = 1.0
        for hint in hints:
            selectivity *= hint
        return selectivity

    def _column_stats(self, alias: str, column: str):
        table_name = self._query.base_table(alias)
        table_stats = self._statistics.table(table_name)
        if table_stats is None:
            return None
        return table_stats.column(column)

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def join_predicate_selectivity(self, predicate: Predicate) -> float:
        """Estimated selectivity of one join predicate."""
        if predicate.uses_udf:
            return self._udf_selectivity(predicate)
        if predicate.is_equi_join:
            left, right = predicate.equi_join_columns()
            left_stats = self._column_stats(left.table, left.column)
            right_stats = self._column_stats(right.table, right.column)
            left_distinct = left_stats.distinct_count if left_stats else 0
            right_distinct = right_stats.distinct_count if right_stats else 0
            distinct = max(left_distinct, right_distinct)
            if distinct <= 0:
                return _DEFAULT_EQUALITY_SELECTIVITY
            return 1.0 / distinct
        return _DEFAULT_JOIN_SELECTIVITY

    def cardinality(self, aliases: Sequence[str]) -> float:
        alias_set = set(aliases)
        estimate = 1.0
        for alias in aliases:
            estimate *= self.base_cardinality(alias)
        for predicate in self._query.join_predicates():
            if predicate.tables() <= alias_set:
                estimate *= self.join_predicate_selectivity(predicate)
        return max(1.0, estimate)
