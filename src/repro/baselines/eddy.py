"""An Eddies-style adaptive baseline: per-tuple operator routing.

Eddies (Avnur & Hellerstein) route each tuple through join operators in an
order chosen at run time from observed operator behaviour (lottery
scheduling), instead of fixing a plan up front.  The re-implementation here
follows the spirit of the paper's own re-implemented baseline:

* tuples are driven from one source table; for every driver tuple the order
  in which the remaining tables are probed is chosen adaptively from the
  expansion ratios observed so far (operators that filter aggressively and
  expand little earn more "tickets");
* intermediate results are **never discarded** — once a partial tuple has
  been expanded by an operator, all its matches are kept and routed onward,
  which is exactly the property that makes bad early routing decisions
  expensive (paper §2).
"""

from __future__ import annotations

import time
from typing import Any

from repro.engine.meter import CostMeter
from repro.engine.postprocess import post_process
from repro.errors import BudgetExceeded
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryMetrics, QueryResult
from repro.skinner.preprocessor import PreprocessedQuery, preprocess
from repro.skinner.result_set import JoinResultSet
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class _OperatorStats:
    """Observed behaviour of "join in table X" operators (the ticket source)."""

    def __init__(self, aliases: list[str]) -> None:
        self._inputs: dict[str, int] = {alias: 1 for alias in aliases}
        self._outputs: dict[str, int] = {alias: 1 for alias in aliases}

    def record(self, alias: str, inputs: int, outputs: int) -> None:
        self._inputs[alias] += inputs
        self._outputs[alias] += outputs

    def expansion(self, alias: str) -> float:
        """Average output tuples per input tuple for this operator."""
        return self._outputs[alias] / self._inputs[alias]


class EddyEngine:
    """Adaptive per-tuple routing baseline."""

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
    ) -> None:
        self._catalog = catalog
        self._udfs = udfs

    @property
    def name(self) -> str:
        """Engine name used in reports."""
        return "eddy"

    def execute(self, query: Query, *, work_budget: int | None = None) -> QueryResult:
        """Execute a query with adaptive per-tuple routing.

        When ``work_budget`` is exhausted, execution is cut off and the
        partial metrics are returned with ``extra["timed_out"] = True``.
        """
        started = time.perf_counter()
        meter = CostMeter(budget=work_budget)
        timed_out = False
        result_set: JoinResultSet
        try:
            prepared = preprocess(self._catalog, query, self._udfs, meter)
            result_set = JoinResultSet(prepared.aliases)
            if not prepared.is_empty():
                if query.num_tables == 1:
                    alias = prepared.aliases[0]
                    result_set.add_many(
                        (prepared.base_row(alias, index),)
                        for index in range(prepared.cardinality(alias))
                    )
                else:
                    self._route_all(prepared, result_set, meter)
            relation = result_set.to_relation()
            output = post_process(query, relation, prepared.tables, self._udfs, meter)
        except BudgetExceeded:
            timed_out = True
            result_set = JoinResultSet(tuple(query.aliases))
            output = Table("result", {})
        metrics = QueryMetrics.measured(
            self.name,
            meter.snapshot(),
            started,
            output.num_rows,
            result_tuple_count=len(result_set),
            extra={"timed_out": timed_out},
        )
        return QueryResult(output, metrics)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route_all(
        self, prepared: PreprocessedQuery, result_set: JoinResultSet, meter: CostMeter
    ) -> None:
        graph = prepared.query.join_graph()
        aliases = list(prepared.aliases)
        stats = _OperatorStats(aliases)
        driver = min(aliases, key=prepared.cardinality)
        routed: list[tuple[int, ...]] = []
        for driver_index in range(prepared.cardinality(driver)):
            meter.charge_scan(1)
            partials: list[dict[str, int]] = [{driver: driver_index}]
            joined = [driver]
            while len(joined) < len(aliases) and partials:
                eligible = graph.eligible_next(joined)
                next_alias = min(eligible, key=stats.expansion)
                expanded = self._expand(prepared, partials, next_alias, meter)
                stats.record(next_alias, inputs=len(partials), outputs=len(expanded))
                partials = expanded
                joined.append(next_alias)
            for partial in partials:
                routed.append(
                    tuple(prepared.base_row(alias, partial[alias]) for alias in prepared.aliases)
                )
                meter.charge_output(1)
        result_set.add_many(routed)  # one insert: adding settles distinctness each time

    def _expand(
        self,
        prepared: PreprocessedQuery,
        partials: list[dict[str, int]],
        alias: str,
        meter: CostMeter,
    ) -> list[dict[str, int]]:
        """Join every partial tuple with the filtered tuples of ``alias``."""
        applicable = [
            predicate
            for predicate in prepared.join_predicates
            if alias in predicate.tables()
            and all(t == alias or t in partials[0] for t in predicate.tables())
        ] if partials else []
        expanded: list[dict[str, int]] = []
        for partial in partials:
            candidates = self._candidate_indices(prepared, partial, alias, applicable, meter)
            for candidate in candidates:
                extended = dict(partial)
                extended[alias] = candidate
                if self._satisfies(prepared, extended, alias, applicable, meter):
                    expanded.append(extended)
                    meter.charge_intermediate(1)
        return expanded

    def _candidate_indices(
        self,
        prepared: PreprocessedQuery,
        partial: dict[str, int],
        alias: str,
        applicable,
        meter: CostMeter,
    ) -> list[int]:
        """Candidate filtered indices of ``alias``, via hash maps when possible."""
        for predicate in applicable:
            if not predicate.is_equi_join:
                continue
            left, right = predicate.equi_join_columns()
            own = left if left.table == alias else right
            other = right if left.table == alias else left
            join_map = prepared.join_maps.get((alias, own.column))
            if join_map is None or other.table not in partial:
                continue
            value = prepared.value_at(other.table, other.column, partial[other.table])
            meter.charge_probe(1)
            matches = join_map.get(value)
            return [int(i) for i in matches] if matches is not None else []
        return list(range(prepared.cardinality(alias)))

    def _satisfies(
        self,
        prepared: PreprocessedQuery,
        extended: dict[str, int],
        alias: str,
        applicable,
        meter: CostMeter,
    ) -> bool:
        for predicate in applicable:
            binding: dict[str, Any] = {
                t: prepared.binding_for(t, extended[t]) for t in predicate.tables()
            }
            meter.charge_predicate(1)
            if predicate.uses_udf:
                meter.charge_udf(max(1, predicate.udf_cost(self._udfs) - 1))
            if not predicate.evaluate(binding, self._udfs):
                return False
        return True
