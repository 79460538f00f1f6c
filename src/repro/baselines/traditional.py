"""The traditional optimizer + executor baseline ("Postgres"/"MonetDB" stand-in).

This engine does what a conventional DBMS does: collect statistics once,
estimate cardinalities under independence assumptions, pick the cheapest
left-deep join order by dynamic programming, and execute that single plan to
completion.  Its engine profile determines per-tuple cost and parallelism so
the same optimizer/executor pair can represent Postgres (row store, single
threaded), MonetDB (vectorized, parallel), or the commercial system.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.engine.executor import PlanExecutor
from repro.engine.meter import CostMeter
from repro.engine.postprocess import post_process
from repro.engine.profiles import EngineProfile, get_profile
from repro.errors import BudgetExceeded
from repro.optimizer.cardinality import EstimatedCardinality
from repro.optimizer.exhaustive import choose_plan
from repro.optimizer.plans import LeftDeepPlan
from repro.optimizer.statistics import StatisticsCatalog
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
    profile:
        Engine profile name or object (``postgres``, ``monetdb``, ...).
    """

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
        *,
        profile: str | EngineProfile = "postgres",
    ) -> None:
        self._catalog = catalog
        self._udfs = udfs
        self._profile = get_profile(profile)

    @property
    def name(self) -> str:
        """Engine name used in reports."""
        return f"traditional({self._profile.name})"

    @property
    def profile(self) -> EngineProfile:
        """The engine profile in use."""
        return self._profile

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> LeftDeepPlan:
        """Choose a join order using estimated cardinalities (see
        :func:`~repro.optimizer.exhaustive.choose_plan`)."""
        estimator = EstimatedCardinality(
            query, StatisticsCatalog.of(self._catalog), self._udfs
        )
        return choose_plan(query, estimator)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        *,
        forced_order: Sequence[str] | None = None,
        work_budget: int | None = None,
    ) -> QueryResult:
        """Execute a query; ``forced_order`` overrides the optimizer's choice.

        Forcing orders is how Tables 3 and 4 run Skinner's learned orders and
        the C_out-optimal orders inside the traditional engines.  When
        ``work_budget`` is given and exhausted, execution stops and a partial
        (empty) result is returned with ``extra["timed_out"] = True`` — the
        benchmark harness uses this to emulate the per-query timeouts of the
        torture benchmarks.
        """
        started = time.perf_counter()
        meter = CostMeter(budget=work_budget)
        if forced_order is not None:
            order = tuple(forced_order)
            plan: LeftDeepPlan | None = None
        else:
            plan = self.plan(query)
            order = plan.order
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
            self._profile,
            meter.snapshot(),
            started,
            output.num_rows,
            final_join_order=order,
            extra={
                "forced_order": forced_order is not None,
                "estimated_cost": plan.cost if plan is not None else None,
                "timed_out": timed_out,
            },
        )
        return QueryResult(output, metrics)
