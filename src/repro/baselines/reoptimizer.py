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

from collections.abc import Generator, Sequence
from typing import Any

from repro.baselines.traditional import TraditionalTask
from repro.engine.relation import RowIdRelation
from repro.engine.task import ExecutionBackend
from repro.optimizer.cardinality import CardinalityEstimator, EstimatedCardinality
from repro.optimizer.exhaustive import choose_plan
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog

#: A validation sample joins this share of the left-most alias's filtered
#: rows, at most ``SAMPLE_LIMIT`` of them; an estimate off by more than
#: ``VALIDATION_FACTOR`` either way is corrected, for at most ``MAX_ROUNDS``
#: re-plans.
SAMPLE_FRACTION = 0.1
SAMPLE_LIMIT = 200
VALIDATION_FACTOR = 3.0
MAX_ROUNDS = 5


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


class ReOptimizerTask(TraditionalTask):
    """One query on the re-optimizer: validation rounds, then the traditional
    task's run of the final plan.  A sample runs like a plan, charging the
    task's meter (one that exhausts ``work_budget`` times the query out),
    and ends an episode when it is done."""

    def __init__(self, engine: "ReOptimizerEngine", query: Query,
                 work_budget: int | None = None) -> None:
        super().__init__(engine, query, order=(), work_budget=work_budget)  # set from _plan
        base = EstimatedCardinality(query, StatisticsCatalog.of(engine._catalog), engine._udfs)
        self._estimator = _CorrectedEstimator(base)
        self._plan = choose_plan(query, self._estimator)
        self._rounds = 0

    def episodes(self) -> Generator[None, None, RowIdRelation]:
        self._executor.pre_process(self.meter)
        if self.query.num_tables > 1:
            for self._rounds in range(1, MAX_ROUNDS + 1):
                corrections = yield from self._validate(self._plan.order)
                if not corrections:
                    break
                self._estimator.corrections.update(corrections)
                plan, self._plan = self._plan, choose_plan(self.query, self._estimator)
                if plan.order == self._plan.order:
                    break
        self._order = self._plan.order
        return (yield from super().episodes())

    def _validate(self, order: tuple[str, ...]) -> Generator[None, None, dict]:
        """Compare estimated and sampled cardinalities of the plan's prefixes."""
        total = int(self._executor.filtered_positions(order[0]).shape[0])
        if total == 0:
            return {}
        sample_size = max(1, min(SAMPLE_LIMIT, int(total * SAMPLE_FRACTION)))
        scale = total / sample_size
        corrections: dict[frozenset[str], float] = {}
        for prefix_length in range(2, len(order) + 1):
            prefix = order[:prefix_length]
            relation = yield from self._executor.restricted(prefix).run_order(
                list(prefix), self.meter, batch=(0, sample_size), episode_rows=self.episode_rows)
            yield
            measured = len(relation) * scale
            estimated = self._estimator.cardinality(list(prefix))
            ratio = max(measured, 1.0) / max(estimated, 1.0)
            if ratio > VALIDATION_FACTOR or ratio < 1.0 / VALIDATION_FACTOR:
                corrections[frozenset(prefix)] = max(measured, 1.0)
        return corrections

    def metric_fields(self) -> dict[str, Any]:
        return {"final_join_order": self._plan.order,
                "extra": {"reoptimization_rounds": self._rounds,
                          "corrections": len(self._estimator.corrections)}}


class ReOptimizerEngine(ExecutionBackend):
    """Iterative sampling-based re-optimization baseline."""

    #: Engine name used in reports.
    name = "reoptimizer"

    def __init__(self, catalog: Catalog, udfs: UdfRegistry | None = None) -> None:
        self._catalog = catalog
        self._udfs = udfs

    def task(self, query: Query, *, work_budget: int | None = None) -> ReOptimizerTask:
        """A resumable task for ``query``; an exhausted ``work_budget`` ends it
        with an empty result and ``extra["timed_out"] = True``."""
        return ReOptimizerTask(self, query, work_budget)
