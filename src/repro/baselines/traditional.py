"""The traditional optimizer + executor baseline ("Postgres"/"MonetDB" stand-in).

This engine does what a conventional DBMS does: collect statistics once,
estimate cardinalities under independence assumptions, pick the cheapest
left-deep join order by dynamic programming, and execute that single plan to
completion.  The paper's Postgres, MonetDB and commercial systems are this
engine's work weighted per system by the benchmark harness
(``benchmarks/paper``); the engine itself reports work units.
"""

from __future__ import annotations

import time

from repro.engine.executor import PlanExecutor
from repro.engine.meter import CostMeter
from repro.engine.postprocess import post_process
from repro.errors import BudgetExceeded
from repro.optimizer.exhaustive import estimated_plan
from repro.optimizer.plans import LeftDeepPlan
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryMetrics, QueryResult
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class TraditionalEngine:
    """Cost-based optimizer + left-deep executor baseline.

    Parameters
    ----------
    catalog:
        Tables to run against.
    udfs:
        UDF registry (the optimizer treats UDF predicates as black boxes).
    """

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
    ) -> None:
        self._catalog = catalog
        self._udfs = udfs

    #: Engine name used in reports.
    name = "traditional"

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> LeftDeepPlan:
        """Choose a join order using estimated cardinalities (see
        :func:`~repro.optimizer.exhaustive.estimated_plan`)."""
        return estimated_plan(self._catalog, query, self._udfs)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, query: Query, *, work_budget: int | None = None) -> QueryResult:
        """Execute a query under the optimizer's chosen plan.

        When ``work_budget`` is given and exhausted, execution stops and a
        partial (empty) result is returned with ``extra["timed_out"] =
        True`` — the benchmark harness uses this to emulate the per-query
        timeouts of the torture benchmarks.
        """
        started = time.perf_counter()
        plan = self.plan(query)
        return self._run(query, plan.order, started, work_budget, plan.cost)

    def execute_with_order(self, query: Query, order: tuple[str, ...]) -> QueryResult:
        """Execute a query with one fixed join order; no optimizer runs.

        Tables 3 and 4 use this to run Skinner's learned orders and the
        C_out-optimal orders inside the traditional engines.
        """
        return self._run(query, tuple(order), time.perf_counter(), None, None)

    def _run(
        self,
        query: Query,
        order: tuple[str, ...],
        started: float,
        work_budget: int | None,
        estimated_cost: float | None,
    ) -> QueryResult:
        meter = CostMeter(budget=work_budget)
        executor = PlanExecutor(self._catalog, query, self._udfs)
        timed_out = False
        try:
            if query.num_tables == 1:
                relation = executor.execute_order(list(query.aliases), meter)
            else:
                relation = executor.execute_order(order, meter)
            output = post_process(query, relation, executor.tables, self._udfs, meter)
        except BudgetExceeded:
            timed_out = True
            output = Table("result", {})
        metrics = QueryMetrics.measured(
            self.name,
            meter.snapshot(),
            started,
            output.num_rows,
            final_join_order=order,
            extra={"estimated_cost": estimated_cost, "timed_out": timed_out},
        )
        return QueryResult(output, metrics)
