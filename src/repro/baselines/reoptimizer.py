"""Sampling-based query re-optimization baseline (after Wu et al., SIGMOD'16).

The re-optimizer starts from the traditional optimizer's plan, then checks
its cardinality estimates by executing the plan's join prefixes on a sample
of the left-most table.  If an estimate is off by more than a validation
factor, the measured (scaled-up) cardinality replaces the estimate for that
table subset and the query is re-optimized.  The loop ends when the plan is
stable or the round limit is reached; the final plan is executed in full.
Sampling work is charged to the same meter as execution, so the baseline
pays for its re-optimization effort — as it does in the paper's experiments.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.engine.executor import PlanExecutor
from repro.engine.meter import CostMeter
from repro.engine.postprocess import post_process
from repro.engine.profiles import EngineProfile, get_profile
from repro.errors import BudgetExceeded
from repro.optimizer.cardinality import CardinalityEstimator, EstimatedCardinality
from repro.optimizer.exhaustive import choose_plan
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryMetrics, QueryResult
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class _CorrectedEstimator(CardinalityEstimator):
    """Wraps the statistics-based estimator with sampled corrections."""

    def __init__(self, base: EstimatedCardinality) -> None:
        self._base = base
        self.corrections: dict[frozenset[str], float] = {}

    def base_cardinality(self, alias: str) -> float:
        key = frozenset({alias})
        if key in self.corrections:
            return self.corrections[key]
        return self._base.base_cardinality(alias)

    def cardinality(self, aliases: Sequence[str]) -> float:
        key = frozenset(aliases)
        if key in self.corrections:
            return self.corrections[key]
        return self._base.cardinality(aliases)


class ReOptimizerEngine:
    """Iterative sampling-based re-optimization baseline."""

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
        *,
        profile: str | EngineProfile = "skinner",
        sample_fraction: float = 0.1,
        sample_limit: int = 200,
        validation_factor: float = 3.0,
        max_rounds: int = 5,
    ) -> None:
        self._catalog = catalog
        self._udfs = udfs
        self._profile = get_profile(profile)
        self._sample_fraction = sample_fraction
        self._sample_limit = sample_limit
        self._validation_factor = validation_factor
        self._max_rounds = max_rounds

    @property
    def name(self) -> str:
        """Engine name used in reports."""
        return "reoptimizer"

    def execute(self, query: Query, *, work_budget: int | None = None) -> QueryResult:
        """Execute with iterative sample-based plan validation.

        When ``work_budget`` is exhausted, execution is cut off and the
        partial metrics are returned with ``extra["timed_out"] = True``.
        """
        started = time.perf_counter()
        meter = CostMeter(budget=work_budget)
        base = EstimatedCardinality(query, StatisticsCatalog.of(self._catalog), self._udfs)
        estimator = _CorrectedEstimator(base)
        executor = PlanExecutor(self._catalog, query, self._udfs)
        timed_out = False
        rounds = 0
        plan = choose_plan(query, estimator)
        try:
            executor.pre_process(meter)
            if query.num_tables > 1:
                for rounds in range(1, self._max_rounds + 1):
                    corrections = self._validate(executor, plan.order, estimator, meter)
                    if not corrections:
                        break
                    estimator.corrections.update(corrections)
                    new_plan = choose_plan(query, estimator)
                    if new_plan.order == plan.order:
                        plan = new_plan
                        break
                    plan = new_plan
            relation = executor.execute_order(list(plan.order), meter)
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
            final_join_order=plan.order,
            extra={"reoptimization_rounds": rounds,
                   "corrections": len(estimator.corrections),
                   "timed_out": timed_out},
        )
        return QueryResult(output, metrics)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _validate(
        self,
        executor: PlanExecutor,
        order: tuple[str, ...],
        estimator: CardinalityEstimator,
        meter: CostMeter,
    ) -> dict[frozenset[str], float]:
        """Compare estimated and sampled cardinalities of the plan's prefixes."""
        left = order[0]
        positions = executor.filtered_positions(left)
        total = int(positions.shape[0])
        if total == 0:
            return {}
        sample_size = max(1, min(self._sample_limit, int(total * self._sample_fraction)))
        scale = total / sample_size
        corrections: dict[frozenset[str], float] = {}
        for prefix_length in range(2, len(order) + 1):
            prefix = order[:prefix_length]
            sub_meter = CostMeter(budget=meter.remaining)
            try:
                relation = executor.restricted(prefix).execute_order(
                    list(prefix), sub_meter, batch=(0, sample_size)
                )
            except Exception:  # noqa: BLE001 - validation must never fail the query
                break
            meter.merge(sub_meter)
            measured = len(relation) * scale
            estimated = estimator.cardinality(list(prefix))
            ratio = max(measured, 1.0) / max(estimated, 1.0)
            if ratio > self._validation_factor or ratio < 1.0 / self._validation_factor:
                corrections[frozenset(prefix)] = max(measured, 1.0)
        return corrections
