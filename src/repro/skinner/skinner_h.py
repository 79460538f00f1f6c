"""Skinner-H: the hybrid of a traditional optimizer and in-query learning.

The hybrid (paper §4.4) alternates between executing the plan chosen by the
traditional optimizer — with a timeout that doubles on every attempt — and
running the Skinner-G learning algorithm for the same amount of time.  The
first side to finish wins.  Theorems 5.7 and 5.8 show this bounds regret
both against the optimal plan and against the traditional optimizer: at most
a constant-factor slowdown when the traditional plan is good, and learned
performance (up to a factor three) when it is catastrophic.
"""

from __future__ import annotations

import time

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.meter import CostMeter
from repro.engine.postprocess import post_process
from repro.engine.task import EngineTask, ExecutionBackend
from repro.errors import ExecutionError
from repro.optimizer.cardinality import EstimatedCardinality
from repro.optimizer.exhaustive import choose_plan
from repro.optimizer.plans import LeftDeepPlan
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryMetrics, QueryResult
from repro.skinner.skinner_g import (
    GenericEngineProvider,
    GenericLearningRun,
    InternalGenericEngine,
    SkinnerG,
)
from repro.storage.catalog import Catalog

_MAX_ROUNDS = 64


class SkinnerHTask(EngineTask):
    """Episode-sliced execution of one query on the Skinner-H engine.

    The hybrid's round structure is exposed as a sequence of episodes: one
    episode is either a whole traditional-plan attempt under the current
    (doubling) timeout, or a single learning iteration of the embedded
    Skinner-G run.  Driving the task to completion performs exactly the same
    attempt/learning sequence — and charges exactly the same meter work — as
    the monolithic :meth:`SkinnerH.execute` loop.

    The learning run — and with it the substrate's pre-processing — is built
    by the first learning episode, not here: a query whose traditional plan
    completes under the first timeout costs that one attempt and nothing
    else.  Its metrics then report ``time_slices == 0``, ``uct_nodes == 0``
    and the traditional relation's ``result_tuple_count``; single-table and
    empty-input queries are answered the same way (``winner`` is
    ``"traditional"``, ``rounds`` 1) unless the scan alone overruns the
    first timeout.
    """

    def __init__(self, engine: "SkinnerH", query: Query) -> None:
        self._engine = engine
        self._query = query
        self._started = time.perf_counter()
        self._plan = engine._traditional_plan(query)
        # One substrate serves both sides of the hybrid — the traditional
        # plan's timed whole-query attempts and the learning run's batch
        # attempts — so the internal executor filters and groups once.
        self._substrate = engine._generic._make_generic_engine(query) or (
            InternalGenericEngine(engine._catalog, query, engine._udfs)
        )
        self.run: GenericLearningRun | None = None
        self._traditional_meter = CostMeter()
        self._result: QueryResult | None = None
        self.finished = False
        self._episodes = self._episode_generator()

    def work_total(self) -> int:
        """Total work units charged to this query so far (both strategies)."""
        learned = self.run.meter.total if self.run is not None else 0
        return learned + self._traditional_meter.total

    def run_episode(self) -> bool:
        """Run one episode; returns ``True`` when the query has completed."""
        if self.finished:
            return True
        try:
            next(self._episodes)
        except StopIteration:
            self.finished = True
        return self.finished

    def finalize(self) -> QueryResult:
        """The final result (the task must have finished)."""
        if self._result is None:
            raise ExecutionError("SkinnerHTask.finalize() called before completion")
        return self._result

    def _episode_generator(self):
        engine = self._engine
        query, plan, substrate = self._query, self._plan, self._substrate
        for round_index in range(_MAX_ROUNDS):
            budget = engine._config.base_timeout * 2**round_index
            # 1. Try the traditional optimizer's plan under the current timeout.
            attempt_meter, relation = substrate.execute_plan(plan.order, budget)
            self._traditional_meter.merge(attempt_meter)
            if relation is not None:
                # Canonical row order: the executor's output order is an
                # artifact (hash-join emission vs an external engine's scan
                # order); lexsorting by the query's aliases makes the
                # materialized rows byte-identical across substrates and
                # identical to the learning path's result-set order.
                relation = relation.canonical_order(query.aliases)
                output = post_process(query, relation, substrate.tables, engine._udfs,
                                      self._traditional_meter)
                self._result = engine._traditional_result(
                    query, output, plan, self.run, len(relation),
                    self._traditional_meter, self._started, round_index,
                )
                return
            yield  # episode boundary: one timed-out traditional attempt
            # 2. Give the learning run the same amount of work.
            run = self.run
            if run is None:
                run = self.run = GenericLearningRun(
                    engine._catalog, query, engine._udfs, engine._config,
                    engine=substrate,
                )
            learned = 0
            while learned < budget and not run.finished:
                learned += run.step()
                if run.finished:
                    break
                yield  # episode boundary: one learning iteration
            if run.finished:
                self._result = engine._generic._finalize(
                    query, run, self._started, engine_name=engine.name,
                    extra={"winner": "learning", "rounds": round_index + 1,
                           "plan": plan.order},
                    extra_work=self._traditional_meter,
                )
                return
        raise ExecutionError("Skinner-H did not converge within the round limit")


class SkinnerH(ExecutionBackend):
    """The hybrid Skinner engine on top of a generic execution engine."""

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        generic_engine: "GenericEngineProvider | None" = None,
        backend_label: str | None = None,
    ) -> None:
        self._catalog = catalog
        self._udfs = udfs
        self._config = config
        self._backend_label = backend_label
        self._generic = SkinnerG(
            catalog, udfs, config,
            generic_engine=generic_engine, backend_label=backend_label,
        )

    @property
    def name(self) -> str:
        """Engine name used in reports."""
        return f"skinner-h({self._backend_label})" if self._backend_label else "skinner-h"

    # ------------------------------------------------------------------
    # planning with the traditional optimizer
    # ------------------------------------------------------------------
    def _traditional_plan(self, query: Query) -> LeftDeepPlan:
        estimator = EstimatedCardinality(
            query, StatisticsCatalog.of(self._catalog), self._udfs
        )
        return choose_plan(query, estimator)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def task(self, query: Query) -> SkinnerHTask:
        """Create a resumable episode task for ``query`` (see SkinnerHTask)."""
        return SkinnerHTask(self, query)

    def _traditional_result(
        self,
        query: Query,
        output,
        plan: LeftDeepPlan,
        run: GenericLearningRun | None,
        join_tuples: int,
        traditional_meter: CostMeter,
        started: float,
        rounds: int,
    ) -> QueryResult:
        """Metrics of a traditional win; ``run`` is ``None`` if learning never began."""
        total = CostMeter()
        total.merge(traditional_meter)
        if run is not None:
            total.merge(run.meter)
        metrics = QueryMetrics.measured(
            self.name,
            total.snapshot(),
            started,
            output.num_rows,
            final_join_order=plan.order,
            time_slices=run.iterations if run is not None else 0,
            uct_nodes=run.uct_node_count() if run is not None else 0,
            result_tuple_count=join_tuples,
            extra={"winner": "traditional", "rounds": rounds + 1, "plan": plan.order},
        )
        return QueryResult(output, metrics)
