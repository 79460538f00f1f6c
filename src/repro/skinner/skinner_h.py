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

from collections.abc import Generator
from typing import Any

from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.task import GeneratorTask
from repro.errors import ExecutionError
from repro.optimizer.exhaustive import estimated_plan
from repro.query.query import Query
from repro.skinner.skinner_g import GenericLearningRun, SkinnerG, SkinnerGTask

_MAX_ROUNDS = 64


class SkinnerHTask(GeneratorTask):
    """Episode-sliced execution of one query on the Skinner-H engine.

    The hybrid's round structure is exposed as a sequence of episodes: one
    episode is either a whole traditional-plan attempt under the current
    (doubling) timeout, or a single learning iteration of the embedded
    Skinner-G run; a solo run (:meth:`SkinnerH.execute`) drives the same
    task to completion.  :meth:`episodes` returns the winning side's
    relation.

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
        # ``self.meter`` is the traditional side's (every plan attempt) and
        # takes post-processing, whichever side wins.
        super().__init__(engine.name, query, engine._udfs)
        self._engine = engine
        self._plan = estimated_plan(engine._catalog, query, engine._udfs)
        # One substrate serves both sides of the hybrid — the traditional
        # plan's timed whole-query attempts and the learning run's batch
        # attempts — so the internal executor filters and groups once.
        self._substrate = engine._make_generic_engine(query)
        self.tables = self._substrate.tables
        self.run: GenericLearningRun | None = None
        #: The side that finished first, its rounds, and its join tuples.
        self._winner: str | None = None
        self._rounds = 0
        self._join_tuples = 0

    def meters(self) -> tuple[CostMeter, ...]:
        """Both strategies' work."""
        return (self.meter,) if self.run is None else (self.meter, self.run.meter)

    def episodes(self) -> Generator[None, None, RowIdRelation]:
        engine = self._engine
        query, plan, substrate = self.query, self._plan, self._substrate
        for round_index in range(_MAX_ROUNDS):
            self._rounds = round_index + 1
            budget = engine._config.base_timeout * 2**round_index
            # 1. Try the traditional optimizer's plan under the current timeout.
            attempt_meter, relation = substrate.execute_plan(plan.order, budget)
            self.meter.merge(attempt_meter)
            if relation is not None:
                self._winner, self._join_tuples = "traditional", len(relation)
                # Canonical row order: the executor's output order is an
                # artifact (hash-join emission vs an external engine's scan
                # order); lexsorting by the query's aliases makes the
                # materialized rows byte-identical across substrates and
                # identical to the learning path's result-set order.
                return relation.canonical_order(query.aliases)
            yield  # episode boundary: one timed-out traditional attempt
            # 2. Give the learning run the same amount of work.
            run = self.run
            if run is None:
                run = self.run = engine.learning_run(query, substrate)
            learned = 0
            while learned < budget and not run.finished:
                learned += run.step()
                if run.finished:
                    break
                yield  # episode boundary: one learning iteration
            if run.finished:
                self._winner = "learning"
                return RowIdRelation.from_blocks(query.aliases, run.blocks)
        raise ExecutionError("Skinner-H did not converge within the round limit")

    def metric_fields(self) -> dict[str, Any]:
        """A learning win reports the run as Skinner-G does; anything else
        (a traditional win, or a run still going) the plan and the run so far."""
        plan, run = self._plan, self.run
        if self._winner == "learning":
            fields = SkinnerGTask.metric_fields(self)
        else:
            fields = {
                "final_join_order": plan.order,
                "time_slices": run.iterations if run is not None else 0,
                "uct_nodes": run.uct_node_count() if run is not None else 0,
                "result_tuple_count": self._join_tuples,
                "extra": {},
            }
        fields["extra"].update(winner=self._winner, rounds=self._rounds, plan=plan.order)
        return fields


class SkinnerH(SkinnerG):
    """The hybrid Skinner engine on top of a generic execution engine.

    Skinner-G's constructor, substrate provider and :meth:`learning_run`;
    the task races that run against the traditional optimizer's plan.
    """

    @property
    def name(self) -> str:
        """Engine name used in reports."""
        return f"skinner-h({self._backend_label})" if self._backend_label else "skinner-h"

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def task(self, query: Query) -> SkinnerHTask:
        """Create a resumable episode task for ``query`` (see SkinnerHTask)."""
        return SkinnerHTask(self, query)
