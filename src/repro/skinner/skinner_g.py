"""Skinner-G: join-order learning on top of a generic execution engine.

Algorithm 1 of the paper: each table is split into batches; every iteration
the pyramid timeout scheme picks a per-batch budget, a per-timeout UCT tree
picks a join order, and the generic engine joins one batch of the left-most
table with the remaining tuples of all other tables under that budget.
Completed batches earn reward 1 and are excluded from further processing;
timed-out attempts earn reward 0 and all their intermediate work is lost.
Completed batches never share a tuple, so the run keeps their rows as
plain blocks, without Skinner-C's duplicate elimination.

The generic engine is pluggable (:class:`~repro.engine.task.GenericEngine`),
and a provider chooses it once per query: by default the left-deep
:class:`~repro.engine.executor.PlanExecutor` itself (the A/B reference), while
:mod:`repro.external` provides one that drives sqlite through order-forcing
SQL — exactly the deployment the paper describes.

Clock discipline: all batch budgets and rewards run on the deterministic
work-unit clock of :class:`~repro.engine.meter.CostMeter` — never wall-clock
time.  Wall time is read only by the shared task loop
(:class:`~repro.engine.task.GeneratorTask`), for the *reporting* fields
``wall_time_seconds`` and ``episode_wall_seconds``; no budget, reward, or
scheduling decision reads it, so iteration sequences, meter charges, and
bench work fingerprints are reproducible run to run (see
``docs/engines.md`` for how external adapters map their progress onto this
clock).
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.executor import PlanExecutor
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.task import ExecutionBackend, GeneratorTask, GenericEngine
from repro.errors import ExecutionError
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.skinner.timeouts import PyramidTimeoutScheme
from repro.storage.catalog import Catalog
from repro.uct.policy import DEFAULT_EXPLORATION_WEIGHT
from repro.uct.tree import UctJoinTree

_MAX_ITERATIONS = 500_000

#: ``provider(catalog, query, udfs) -> GenericEngine`` — chooses the host of
#: one query's batch attempts; :class:`~repro.engine.executor.PlanExecutor` is
#: one (the default).
GenericEngineProvider = Callable[[Catalog, Query, "UdfRegistry | None"], GenericEngine]


@dataclass
class GenericLearningRun:
    """The resumable state of one Skinner-G execution.

    Skinner-H interleaves this run with executions of the traditional
    optimizer's plan, so the run exposes a :meth:`step` method executing a
    single iteration (one batch attempt) and reports the work it consumed.
    A subclass may replace how an iteration's order is chosen
    (:meth:`next_order`); the paper's Table 5 ablation does.
    """

    catalog: Catalog
    query: Query
    udfs: UdfRegistry | None
    config: SkinnerConfig
    #: The execution substrate (the host).
    engine: GenericEngine
    meter: CostMeter = field(init=False)
    #: The joined rows, one block per successful batch.  They never repeat:
    #: a batch that succeeds leaves its left-most table's remaining rows for
    #: good, so no later batch produces a tuple with one of them again
    #: (paper §4.3), and one batch joins distinct rows.
    blocks: list[np.ndarray] = field(init=False, default_factory=list)
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
        self.meter = CostMeter()
        self.engine.pre_process(self.meter)
        self.scheme = PyramidTimeoutScheme(self.config.base_timeout)
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
            self.blocks.append(positions[:, None])
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
                self.query.join_graph(),
                exploration_weight=DEFAULT_EXPLORATION_WEIGHT,
                seed=None if self.config.seed is None else self.config.seed + choice.level,
            )
            self.trees[choice.level] = tree
        order = self.next_order(tree)
        left = order[0]
        edges, offset = self.batch_edges[left], self.batch_offsets[left]
        # The batches are consecutive pieces of the filtered rows, so what
        # remains of an alias starts where its current batch does.
        lower = {alias: self.batch_edges[alias][self.batch_offsets[alias]] for alias in order}
        slice_meter, joined = self.engine.execute_batch(
            order, (edges[offset], edges[offset + 1]), lower, choice.budget
        )
        spent = slice_meter.total
        self.meter.merge(slice_meter)
        if joined is not None:
            self.blocks.append(joined)
            self.batch_offsets[left] += 1
            tree.update(order, 1.0)
            if self.batch_offsets[left] >= len(edges) - 1:
                self.finished = True
        else:
            tree.update(order, 0.0)
        return spent

    def next_order(self, tree: UctJoinTree) -> tuple[str, ...]:
        """The join order of this iteration: the timeout level's UCT choice."""
        return tree.choose_order()

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


class SkinnerGTask(GeneratorTask):
    """Episode-sliced execution of one query on the Skinner-G engine.

    One episode is one iteration of Algorithm 1 — one batch attempt under
    the pyramid timeout scheme (:meth:`GenericLearningRun.step`); a solo run
    (:meth:`SkinnerG.execute`) drives the same task to completion.  Its
    :attr:`meter` is the learning run's.
    """

    def __init__(self, engine: "SkinnerG", query: Query) -> None:
        super().__init__(engine.name, query, engine._udfs)
        self.run = engine.learning_run(query, engine._make_generic_engine(query))
        self.meter = self.run.meter
        self.tables = self.run.engine.tables

    def episodes(self) -> Generator[None, None, RowIdRelation]:
        run = self.run
        while not run.finished:
            run.step()
            if not run.finished:
                yield
        return RowIdRelation.from_blocks(run.query.aliases, run.blocks)

    def metric_fields(self) -> dict[str, Any]:
        run = self.run
        return {
            "final_join_order": run.best_order(),
            "time_slices": run.iterations,
            "uct_nodes": run.uct_node_count(),
            "result_tuple_count": sum(block.shape[0] for block in run.blocks),
            "extra": {"timeout_levels": run.scheme.time_per_level()},
        }


class SkinnerG(ExecutionBackend):
    """The Skinner-G engine wrapper producing query results and metrics.

    :meth:`learning_run` builds each query's :class:`GenericLearningRun`
    (Skinner-H's too); a subclass may build another.
    """

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        generic_engine: GenericEngineProvider = PlanExecutor,
        backend_label: str | None = None,
    ) -> None:
        self._catalog = catalog
        self._udfs = udfs
        self._config = config
        #: Chooses each query's host: the internal executor by default;
        #: ``repro.external`` passes one that drives sqlite.
        self._generic_engine = generic_engine
        self._backend_label = backend_label

    def _make_generic_engine(self, query: Query) -> GenericEngine:
        """The host of ``query``'s batch attempts (the provider's choice)."""
        return self._generic_engine(self._catalog, query, self._udfs)

    def learning_run(self, query: Query, substrate: GenericEngine) -> GenericLearningRun:
        """The learning run of ``query`` on ``substrate``."""
        return GenericLearningRun(self._catalog, query, self._udfs, self._config, engine=substrate)

    @property
    def name(self) -> str:
        """Engine name used in reports."""
        return f"skinner-g({self._backend_label})" if self._backend_label else "skinner-g"

    def task(self, query: Query) -> SkinnerGTask:
        """Create a resumable episode task for ``query`` (see SkinnerGTask)."""
        return SkinnerGTask(self, query)
