"""Skinner-G: join-order learning on top of a generic execution engine.

Algorithm 1 of the paper: each table is split into batches; every iteration
the pyramid timeout scheme picks a per-batch budget, a per-timeout UCT tree
picks a join order, and the generic engine joins one batch of the left-most
table with the remaining tuples of all other tables under that budget.
Completed batches earn reward 1 and are excluded from further processing;
timed-out attempts earn reward 0 and all their intermediate work is lost.

The generic engine is pluggable (:class:`~repro.engine.task.GenericEngine`):
the default :class:`InternalGenericEngine` wraps the left-deep
:class:`~repro.engine.executor.PlanExecutor` (the A/B reference), while
:mod:`repro.external` provides substrates that drive a real DBMS through
order-forcing SQL — exactly the deployment the paper describes.

Clock discipline: all batch budgets and rewards run on the deterministic
work-unit clock of :class:`~repro.engine.meter.CostMeter` — never wall-clock
time.  ``time.perf_counter()`` appears only when stamping the *reporting*
field ``wall_time_seconds`` of the final metrics; no budget, reward, or
scheduling decision reads it, so iteration sequences, meter charges, and
bench work fingerprints are reproducible run to run (see
``docs/engines.md`` for how external adapters map their progress onto this
clock).
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.executor import PlanExecutor
from repro.engine.meter import CostMeter
from repro.engine.postprocess import post_process
from repro.engine.relation import RowIdRelation
from repro.engine.task import EngineTask, ExecutionBackend, GenericEngine
from repro.errors import BudgetExceeded, ExecutionError
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryMetrics, QueryResult
from repro.skinner.result_set import JoinResultSet
from repro.skinner.timeouts import PyramidTimeoutScheme
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.uct.policy import DEFAULT_EXPLORATION_WEIGHT
from repro.uct.tree import UctJoinTree

_MAX_ITERATIONS = 500_000

#: The one source of a run's result blocks (see ``JoinResultSet``): a batch
#: that succeeds leaves its left-most table's remaining rows for good, so no
#: later batch can produce a tuple with one of them again (paper §4.3).
_BATCHES = "batches"

#: ``provider(catalog, query, udfs, config) -> GenericEngine | None`` — a
#: factory selecting the execution substrate for one query.  Returning
#: ``None`` means "fall back to the internal executor" (e.g. external
#: engines facing UDF predicates they cannot evaluate remotely).
GenericEngineProvider = Callable[
    [Catalog, Query, "UdfRegistry | None", SkinnerConfig], "GenericEngine | None"
]


class InternalGenericEngine(GenericEngine):
    """The default substrate: the internal left-deep plan executor.

    Wraps :class:`~repro.engine.executor.PlanExecutor` behind the
    :class:`~repro.engine.task.GenericEngine` contract with byte-identical
    charges and results to the historical direct-call code path.
    """

    def __init__(
        self,
        catalog: Catalog,
        query: Query,
        udfs: UdfRegistry | None,
    ) -> None:
        self._query = query
        self._aliases = tuple(query.aliases)
        self._executor = PlanExecutor(catalog, query, udfs)

    @property
    def tables(self) -> Mapping[str, Table]:
        return self._executor.tables

    def pre_process(self, meter: CostMeter) -> None:
        # Skinner-H's traditional attempts may have filtered already; the
        # learning run is charged its own pass all the same.
        self._executor.pre_process(meter, bill_again=True)

    def filtered_positions(self, alias: str) -> np.ndarray:
        return self._executor.filtered_positions(alias)

    def execute_batch(
        self,
        order: Sequence[str],
        batch: tuple[int, int],
        lower: Mapping[str, int],
        budget: int,
    ) -> tuple[CostMeter, np.ndarray | None]:
        meter = CostMeter(budget=budget)
        try:
            relation = self._executor.execute_order(order, meter, batch, lower)
        except BudgetExceeded:
            return meter, None
        return meter, relation.matrix(self._aliases)

    def execute_plan(
        self, order: Sequence[str], budget: int
    ) -> tuple[CostMeter, RowIdRelation | None]:
        meter = CostMeter(budget=budget)
        try:
            # Every whole-query invocation pays the filters, as a host would.
            self._executor.pre_process(meter, bill_again=True)
            relation = self._executor.execute_order(order, meter)
        except BudgetExceeded:
            return meter, None
        return meter, relation


@dataclass
class GenericLearningRun:
    """The resumable state of one Skinner-G execution.

    Skinner-H interleaves this run with executions of the traditional
    optimizer's plan, so the run exposes a :meth:`step` method executing a
    single iteration (one batch attempt) and reports the work it consumed.
    """

    catalog: Catalog
    query: Query
    udfs: UdfRegistry | None
    config: SkinnerConfig
    #: The execution substrate; ``None`` selects the internal executor.
    engine: GenericEngine | None = None
    meter: CostMeter = field(init=False)
    result_set: JoinResultSet = field(init=False)
    scheme: PyramidTimeoutScheme = field(init=False)
    trees: dict[int, UctJoinTree] = field(init=False, default_factory=dict)
    #: Per alias, its current batch: the batches before it have completed.
    batch_offsets: dict[str, int] = field(init=False, default_factory=dict)
    #: Per alias, where its batches start and end among its filtered rows:
    #: batch ``i`` is ``edges[i]:edges[i + 1]``, the pieces of
    #: ``np.array_split``.
    batch_edges: dict[str, list[int]] = field(init=False, default_factory=dict)
    iterations: int = field(init=False, default=0)
    finished: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = InternalGenericEngine(self.catalog, self.query, self.udfs)
        self.meter = CostMeter()
        self.engine.pre_process(self.meter)
        self.result_set = JoinResultSet(tuple(self.query.aliases))
        self.scheme = PyramidTimeoutScheme(self.config.base_timeout)
        self._graph = self.query.join_graph()
        for alias in self.query.aliases:
            rows = int(self.engine.filtered_positions(alias).shape[0])
            per_table = max(1, min(self.config.batches_per_table, rows or 1))
            size, larger = divmod(rows, per_table)
            self.batch_edges[alias] = [
                index * size + min(index, larger) for index in range(per_table + 1)
            ]
            self.batch_offsets[alias] = 0
        if any(self.engine.filtered_positions(a).shape[0] == 0 for a in self.query.aliases):
            self.finished = True
        if self.query.num_tables == 1:
            positions = self.engine.filtered_positions(self.query.aliases[0])
            self.result_set.emit(positions[:, None], _BATCHES)
            self.finished = True

    # ------------------------------------------------------------------
    # single iteration
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Run one iteration (one batch attempt); returns the work consumed."""
        if self.finished:
            return 0
        self.iterations += 1
        if self.iterations > _MAX_ITERATIONS:
            raise ExecutionError("Skinner-G exceeded the maximum number of iterations")
        choice = self.scheme.next_timeout()
        tree = self.trees.get(choice.level)
        if tree is None:
            tree = UctJoinTree(
                self._graph,
                exploration_weight=DEFAULT_EXPLORATION_WEIGHT,
                seed=None if self.config.seed is None else self.config.seed + choice.level,
            )
            self.trees[choice.level] = tree
        if self.config.order_selection == "random":
            order = self._random_order()
        else:
            order = tree.choose_order()
        left = order[0]
        edges, offset = self.batch_edges[left], self.batch_offsets[left]
        # The batches are consecutive pieces of the filtered rows, so what
        # remains of an alias starts where its current batch does.
        lower = {alias: self.batch_edges[alias][self.batch_offsets[alias]] for alias in order}
        assert self.engine is not None
        slice_meter, joined = self.engine.execute_batch(
            order, (edges[offset], edges[offset + 1]), lower, choice.budget
        )
        spent = slice_meter.total
        self.meter.merge(slice_meter)
        if joined is not None:
            self.result_set.emit(joined, _BATCHES)
            self.batch_offsets[left] += 1
            tree.update(order, 1.0)
            if self.batch_offsets[left] >= len(edges) - 1:
                self.finished = True
        else:
            tree.update(order, 0.0)
        return spent

    def _random_order(self) -> tuple[str, ...]:
        """Uniform random join order (Cartesian-avoiding) for the ablation."""
        seed = None if self.config.seed is None else self.config.seed + self.iterations
        rng = random.Random(seed)
        prefix: list[str] = []
        while len(prefix) < self.query.num_tables:
            prefix.append(rng.choice(self._graph.eligible_next(prefix)))
        return tuple(prefix)

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def uct_node_count(self) -> int:
        """Total UCT nodes over all per-timeout trees."""
        return sum(tree.node_count() for tree in self.trees.values())

    def best_order(self) -> tuple[str, ...] | None:
        """Best order of the most-exercised UCT tree, if any."""
        if not self.trees:
            return None
        busiest = max(self.trees.values(), key=lambda tree: tree.root.visits)
        return busiest.best_order()


class SkinnerGTask(EngineTask):
    """Episode-sliced execution of one query on the Skinner-G engine.

    One episode is one iteration of Algorithm 1 — one batch attempt under
    the pyramid timeout scheme (:meth:`GenericLearningRun.step`).  Driving
    the task to completion performs exactly the same iteration sequence and
    meter charges as the monolithic :meth:`SkinnerG.execute` loop.
    """

    def __init__(self, engine: "SkinnerG", query: Query) -> None:
        self._engine = engine
        self._query = query
        # Wall clock is captured for the reporting-only wall_time_seconds
        # metric; every budget below runs on the work-unit clock.
        self._started = time.perf_counter()
        self.run = GenericLearningRun(
            engine._catalog, query, engine._udfs, engine._config,
            engine=engine._make_generic_engine(query),
        )

    @property
    def finished(self) -> bool:
        """Whether the join phase has completed."""
        return self.run.finished

    def work_total(self) -> int:
        """Total work units charged to this query so far."""
        return self.run.meter.total

    def run_episode(self) -> bool:
        """Run one batch attempt; returns ``True`` when the join finished."""
        if not self.run.finished:
            self.run.step()
        return self.run.finished

    def finalize(self) -> QueryResult:
        """Post-process the join result and assemble metrics."""
        return self._engine._finalize(
            self._query, self.run, self._started, engine_name=self._engine.name
        )


class SkinnerG(ExecutionBackend):
    """The Skinner-G engine wrapper producing query results and metrics."""

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        generic_engine: GenericEngineProvider | None = None,
        backend_label: str | None = None,
    ) -> None:
        self._catalog = catalog
        self._udfs = udfs
        self._config = config
        #: Substrate factory — ``None`` keeps the internal executor (the
        #: historical behavior and the A/B reference); ``repro.external``
        #: passes providers that drive a real DBMS.
        self._generic_engine = generic_engine
        self._backend_label = backend_label

    def _make_generic_engine(self, query: Query) -> GenericEngine | None:
        """The substrate for one query; ``None`` means the internal executor.

        Providers may themselves return ``None`` to fall back (external
        engines facing UDF predicates warn and run internally).
        """
        if self._generic_engine is None:
            return None
        return self._generic_engine(self._catalog, query, self._udfs, self._config)

    @property
    def name(self) -> str:
        """Engine name used in reports."""
        return f"skinner-g({self._backend_label})" if self._backend_label else "skinner-g"

    def task(self, query: Query) -> SkinnerGTask:
        """Create a resumable episode task for ``query`` (see SkinnerGTask)."""
        return SkinnerGTask(self, query)

    # ------------------------------------------------------------------
    # shared with Skinner-H
    # ------------------------------------------------------------------
    def _finalize(
        self,
        query: Query,
        run: GenericLearningRun,
        started: float,
        *,
        engine_name: str,
        extra: dict[str, Any] | None = None,
        extra_work: CostMeter | None = None,
    ) -> QueryResult:
        relation = run.result_set.to_relation()
        assert run.engine is not None
        output = post_process(query, relation, run.engine.tables, self._udfs, run.meter)
        total = CostMeter()
        total.merge(run.meter)
        if extra_work is not None:
            total.merge(extra_work)
        metrics = QueryMetrics.measured(
            engine_name,
            total.snapshot(),
            started,
            output.num_rows,
            final_join_order=run.best_order(),
            time_slices=run.iterations,
            uct_nodes=run.uct_node_count(),
            result_tuple_count=len(run.result_set),
            extra={
                "timeout_levels": run.scheme.time_per_level(),
                **(extra or {}),
            },
        )
        return QueryResult(output, metrics)
