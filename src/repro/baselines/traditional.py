"""The traditional optimizer + executor baseline ("Postgres"/"MonetDB" stand-in).

This engine does what a conventional DBMS does: collect statistics once,
estimate cardinalities under independence assumptions, pick the cheapest
left-deep join order by dynamic programming, and execute that single plan to
completion.  The paper's Postgres, MonetDB and commercial systems are this
engine's work weighted per system by the benchmark harness
(``benchmarks/paper``); the engine itself reports work units.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.engine.executor import PlanExecutor
from repro.engine.relation import RowIdRelation
from repro.engine.task import ExecutionBackend, GeneratorTask, run_to_completion
from repro.optimizer.exhaustive import estimated_plan
from repro.optimizer.plans import LeftDeepPlan
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryResult
from repro.storage.catalog import Catalog


class TraditionalTask(GeneratorTask):
    """One query on the traditional engine: the plan (the optimizer's, or a
    forced order) is fixed when the task is made, and the plan executor
    ends an episode every :data:`~repro.engine.task.EPISODE_ROWS`
    candidate rows."""

    def __init__(self, engine: "TraditionalEngine", query: Query, *,
                 order: tuple[str, ...] | None = None,
                 work_budget: int | None = None) -> None:
        super().__init__(engine.name, query, engine._udfs, work_budget)
        self._executor = PlanExecutor(engine._catalog, query, engine._udfs)
        self.tables = self._executor.tables
        self._estimated_cost = None
        if order is None:
            plan = engine.plan(query)
            order, self._estimated_cost = plan.order, plan.cost
        self._order = tuple(order)

    def episodes(self) -> Generator[None, None, RowIdRelation]:
        order = self.query.aliases if self.query.num_tables == 1 else self._order
        return (yield from self._executor.run_order(
            list(order), self.meter, episode_rows=self.episode_rows))

    def metric_fields(self) -> dict[str, Any]:
        return {"final_join_order": self._order,
                "extra": {"estimated_cost": self._estimated_cost}}


class TraditionalEngine(ExecutionBackend):
    """Cost-based optimizer + left-deep executor baseline.

    Parameters
    ----------
    catalog:
        Tables to run against.
    udfs:
        UDF registry (the optimizer treats UDF predicates as black boxes).
    """

    #: Engine name used in reports.
    name = "traditional"

    def __init__(self, catalog: Catalog, udfs: UdfRegistry | None = None) -> None:
        self._catalog = catalog
        self._udfs = udfs

    def plan(self, query: Query) -> LeftDeepPlan:
        """Choose a join order using estimated cardinalities (see
        :func:`~repro.optimizer.exhaustive.estimated_plan`)."""
        return estimated_plan(self._catalog, query, self._udfs)

    def task(self, query: Query, *, work_budget: int | None = None) -> TraditionalTask:
        """A resumable task running the optimizer's plan for ``query``.

        An exhausted ``work_budget`` ends it with an empty result and
        ``extra["timed_out"] = True`` — the benchmark harness uses this to
        emulate the per-query timeouts of the torture benchmarks.
        """
        return TraditionalTask(self, query, work_budget=work_budget)

    def execute_with_order(self, query: Query, order: tuple[str, ...]) -> QueryResult:
        """Execute a query with one fixed join order; no optimizer runs.

        Tables 3 and 4 use this to run Skinner's learned orders and the
        C_out-optimal orders inside the traditional engines.
        """
        return run_to_completion(TraditionalTask(self, query, order=order))
