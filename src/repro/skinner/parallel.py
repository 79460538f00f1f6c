"""Morsel-parallel Skinner-C: concurrent episodes on a pool of worker processes.

The paper's headline Skinner-C numbers are the *parallel* variant (Table 2).
This module shards one query's batched multi-way join into **morsels** —
contiguous chunks of the largest filtered table's tuple positions — and runs
each morsel as an independent Skinner-C sub-query on a pool of spawned
worker processes.  A morsel's tables, filtered positions, query, config and
priors travel by value in the payload the pool pickles.  Every worker
learns its own UCT tree; visit/reward statistics flow back to the
coordinator and are merged into one tree (the paper's observation that UCT
reward updates compose across concurrent episodes).

Determinism is the design center (see ``docs/parallel.md``):

* The **morsel plan** is a pure function of the data (and the constants
  ``MORSELS`` / ``MIN_MORSEL_ROWS``) — never of ``parallel_workers``.  The
  partition alias is the alias with the largest filtered cardinality
  (earliest declared wins ties); its positions are cut into equal
  contiguous chunks.
* Morsels partition the result space disjointly (every result tuple carries
  exactly one partition-alias row), so the duplicate-eliminating result set
  assembles the union without cross-morsel interference and
  ``to_matrix()``'s lexicographic sort makes the final rows byte-identical
  to the single-process reference.
* Meter charges are the sum of per-morsel charges merged in morsel-index
  order, so charges are byte-identical for every worker count ≥ 1 (with
  one worker the same morsel tasks run inline on the coordinator).

Morsel 0 is the **pilot**: it always runs inline on the coordinator, one
of its episodes per coordinator episode, which keeps the task cancellable
and streamable while it learns.  When the pilot finishes, its best join
orders seed the remaining morsels as warm-start priors — the same
mechanism the serving layer's cross-query order cache uses.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing
import pickle
from collections.abc import Generator, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

import numpy as np

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.task import GeneratorTask, OrderPrior
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.skinner.skinner_c import SkinnerCTask
from repro.storage.catalog import Catalog

#: ``multiprocessing`` start method of the worker pool — the only one safe
#: on every supported platform (the CI job forcing
#: ``REPRO_PARALLEL_WORKERS=2`` guards exactly the spawn-vs-fork difference).
_START_METHOD = "spawn"

#: Target number of morsels the partition alias is split into.  Not derived
#: from ``parallel_workers``, so rows and charges match across pool sizes.
MORSELS = 8

#: Minimum filtered rows of the partition alias per morsel: a query too
#: small to form two morsels of this size runs single-process.
MIN_MORSEL_ROWS = 64

# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------

_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The cached pool of ``workers`` processes.

    Pools are shared across queries (spawn start-up is expensive), shut
    down via :func:`shutdown_workers` at interpreter exit, and dropped from
    the cache once a dead worker breaks them: the next query spawns afresh.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        context = multiprocessing.get_context(_START_METHOD)
        pool = _POOLS[workers] = ProcessPoolExecutor(workers, mp_context=context)
    return pool


def shutdown_workers() -> None:
    """Shut down every cached pool, cancelling unstarted morsels (idempotent).

    A pool whose workers were killed shuts down at once.
    """
    pools = list(_POOLS.values())
    _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_workers)


# ----------------------------------------------------------------------
# morsel planning
# ----------------------------------------------------------------------

def plan_morsels(
    filtered: dict[str, np.ndarray], aliases: Sequence[str]
) -> tuple[str, list[tuple[int, int]]]:
    """Deterministic morsel plan: partition alias + contiguous chunk bounds.

    The partition alias is the one with the largest filtered cardinality
    (first declared wins ties).  Its positions split into
    ``min(MORSELS, rows // MIN_MORSEL_ROWS)`` contiguous chunks (at least
    one) of near-equal size.  The plan depends only on the data — never on
    the worker count — which is what makes rows and meter charges identical
    for every pool size.
    """
    partition = max(aliases, key=lambda alias: filtered[alias].shape[0])
    rows = int(filtered[partition].shape[0])
    count = max(1, min(MORSELS, rows // MIN_MORSEL_ROWS))
    base, extra = divmod(rows, count)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return partition, bounds


# ----------------------------------------------------------------------
# worker-side morsel executor
# ----------------------------------------------------------------------

def _run_morsel(
    tables: bytes, query: Query, config: SkinnerConfig, engine_name: str,
    order_prior: Sequence[OrderPrior], restrict: dict[str, np.ndarray],
) -> dict[str, Any]:
    """Execute one morsel to completion in a worker process.

    Registers the received (pickled) tables in a fresh catalog, runs an
    ordinary :class:`SkinnerCTask` whose universe is the morsel's restricted
    positions, and returns plain data: the lexicographically sorted result
    matrix, meter snapshots, and the local UCT tree's order statistics.
    """
    catalog = Catalog()
    for table in pickle.loads(tables):
        catalog.add_table(table)
    task = SkinnerCTask(
        catalog, query, None, config, engine_name=engine_name,
        order_prior=order_prior, restrict_positions=restrict,
    )
    while not task.finished:
        task.run_episode()
    return _morsel_outcome(task)


def _morsel_outcome(task: SkinnerCTask) -> dict[str, Any]:
    """What a finished morsel task hands the coordinator, as plain data."""
    return {
        "matrix": task.result_set.to_matrix(),
        "pre": task.pre_meter.snapshot(),
        "join": task.join_meter.snapshot(),
        "slices": task.slices,
        "uct_nodes": task.tree.node_count(),
        "tracker_nodes": task.tracker.node_count(),
        "order_stats": task.tree.order_stats(),
        "episode_wall": task.episode_wall_seconds,
    }


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------

class ParallelSkinnerCTask(GeneratorTask):
    """Coordinator of one morsel-parallel Skinner-C query.

    A :class:`GeneratorTask`, so the serving scheduler drives it exactly
    like the single-process task.  :meth:`episodes` yields:

    * once per pilot (morsel 0) episode — interleavable and cancellable,
      with newly found tuples streamed live;
    * then once per merged morsel, in morsel order: a blocking collect from
      the pool, or one episode of an inline morsel task, with one worker or
      once a dead worker broke the pool.  Merging in a fixed order keeps
      meters, the UCT tree, and the streamed tuple order deterministic.

    Rows and meter charges are byte-identical for every
    ``parallel_workers`` value; with a single morsel the task degenerates
    to exactly the single-process episode sequence.
    """

    streamable = True
    warm_startable = True

    def __init__(
        self,
        catalog: Catalog,
        query: Query,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        engine_name: str = "skinner-c",
        order_prior: Sequence[OrderPrior] | None = None,
    ) -> None:
        super().__init__(engine_name, query, udfs)
        self._config = config
        self._workers = max(1, config.parallel_workers)
        self.pre_meter = CostMeter()
        self.join_meter = self.meter
        # Unary filtering happens once, here; morsel tasks receive the
        # surviving positions and charge only their own join-map builds.
        self.prepared = preprocess(
            catalog, query, udfs, self.pre_meter, build_hash_maps=False
        )
        self.tables = self.prepared.tables
        # Later morsel tasks read the tables snapshotted here, as workers do.
        self._catalog = Catalog()
        for table in self.prepared.tables.values():
            self._catalog.add_table(table, replace=True)  # self-joins repeat one
        self.result_set = JoinResultSet(self.prepared.aliases)
        self.slices = 0
        self._partition_alias, self._morsel_bounds = plan_morsels(
            self.prepared.filtered, self.prepared.aliases
        )
        self._priors: tuple[OrderPrior, ...] = ()
        self._evidence: dict[tuple[str, ...], int] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False
        self._dispatched: list[Future] = []
        self._inline_task: SkinnerCTask | None = None
        self._worker_uct_nodes = 0
        self._worker_tracker_nodes = 0
        self._worker_episode_wall = 0.0
        # The pilot is an ordinary single-process task over morsel 0 (with
        # one morsel: over everything, making this exactly the plain task).
        # Its tree is the coordinator tree all statistics merge into.
        self._pilot: SkinnerCTask | None = self._make_morsel_task(0, order_prior)
        self.tree = self._pilot.tree
        self.tracker = self._pilot.tracker

    def meters(self) -> tuple[CostMeter, ...]:
        """Merged charges plus the live pilot's / inline morsel's."""
        meters = (self.pre_meter, self.join_meter)
        for task in (self._pilot, self._inline_task):
            if task is not None:
                meters += task.meters()
        return meters

    def episodes(self) -> Generator[None, None, RowIdRelation]:
        try:
            pilot = self._pilot
            while not pilot.run_episode():
                self._forward(pilot.drain_new_tuples())
                yield
            self._finish_pilot(pilot)
            for index in range(1, len(self._morsel_bounds)):
                yield
                yield from self._merge(index)
        finally:
            # Cancel morsels that have not started and drop the rest; the
            # pool stays warm for later queries, and a morsel already
            # running finishes into a dropped future.
            for future in self._dispatched:
                future.cancel()
            self._dispatched = []
            self._pilot = self._inline_task = None
        return self.result_set.to_relation()

    # ------------------------------------------------------------------
    # incremental result delivery (streaming cursors)
    # ------------------------------------------------------------------
    def enable_streaming(self) -> None:
        """The pilot keeps the probe ramp (:meth:`SkinnerCTask.enable_streaming`).

        Its episodes are the ones a client's fetch waits for; the remaining
        morsels arrive whole.  The streamed order is deterministic across
        worker counts — pilot tuples in discovery order, then each
        remaining morsel's tuples in sorted-matrix order, morsel by morsel.
        """
        if self._pilot is not None:
            self._pilot.enable_streaming()

    def order_evidence(self) -> dict[tuple[str, ...], int]:
        """The pilot's :meth:`SkinnerCTask.order_evidence`, once it has finished."""
        return self._evidence

    #: The same assembly, over the merged tree and the pilot's evidence.
    learned_orders = SkinnerCTask.learned_orders

    def drain_new_tuples(self) -> np.ndarray:
        """Result tuples added since the last drain, as a matrix."""
        return self.result_set.drain_new()

    @property
    def stream_aliases(self) -> tuple[str, ...]:
        """Alias order of streamed tuples."""
        return self.result_set.aliases

    @property
    def stream_tables(self) -> dict[str, Any]:
        """Alias-to-table mapping for projecting streamed tuples."""
        return self.prepared.tables

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _make_morsel_task(
        self,
        index: int,
        order_prior: Sequence[OrderPrior] | None,
    ) -> SkinnerCTask:
        """An inline single-process task over morsel ``index``.

        UDFs are deliberately not passed: the parallel route excludes UDF
        predicates, post-processing happens on the coordinator, and the
        worker-side executor cannot receive callables either — keeping the
        inline path and the worker path byte-identical.
        """
        return SkinnerCTask(
            self._catalog, self.query, None, self._config,
            engine_name=self.engine_name, order_prior=order_prior,
            restrict_positions=self._restrict_for(index),
        )

    def _restrict_for(self, index: int) -> dict[str, np.ndarray]:
        start, stop = self._morsel_bounds[index]
        restrict = dict(self.prepared.filtered)
        restrict[self._partition_alias] = restrict[self._partition_alias][start:stop]
        return restrict

    def _forward(self, matrix: np.ndarray) -> None:
        # One source for all of them: a morsel task hands over distinct
        # rows, and no row belongs to two morsels.
        self.result_set.emit(matrix, self._partition_alias)

    def _finish_pilot(self, pilot: SkinnerCTask) -> None:
        """Fold the pilot into the coordinator and start phase two."""
        self._forward(pilot.drain_new_tuples())
        self.pre_meter.merge(pilot.pre_meter)
        self.join_meter.merge(pilot.join_meter)
        self.slices += pilot.slices
        self._evidence = pilot.order_evidence()
        # The remaining morsels start from what the pilot learned — the
        # same hand-over the serving layer's order cache makes across queries.
        self._priors = pilot.learned_orders()
        self._pilot = None
        if len(self._morsel_bounds) > 1 and self._workers > 1:
            self._dispatch_remaining()

    def _dispatch_remaining(self) -> None:
        """Enqueue every remaining morsel on the pool, its inputs by value.

        Each payload carries the snapshotted tables (one per name, so
        self-joins ship one), its restricted positions, the query, the
        config and the pilot's priors.  The tables are pickled once, on
        this thread: a durable column pickles the generation this query
        read through the page cache, which the pool's feeder thread (where
        call arguments get pickled) must not touch.
        """
        self._pool = _get_pool(self._workers)
        tables = pickle.dumps(list(self._catalog))
        try:
            for index in range(1, len(self._morsel_bounds)):
                self._dispatched.append(self._pool.submit(
                    _run_morsel, tables, self.query, self._config,
                    self.engine_name, self._priors, self._restrict_for(index),
                ))
        except BrokenProcessPool:
            self._abandon_pool()

    def _merge(self, index: int) -> Generator[None, None, None]:
        """Merge morsel ``index``: collect it from the pool (blocking), or
        run it inline, one :meth:`SkinnerCTask.run_episode` per episode."""
        if self._dispatched:
            try:
                outcome = self._dispatched[index - 1].result()
            except BrokenProcessPool:
                self._abandon_pool()
            else:
                self._merge_morsel(outcome)
                return
        task = self._inline_task = self._make_morsel_task(index, self._priors)
        while not task.run_episode():
            yield
        self._inline_task = None
        self._merge_morsel(_morsel_outcome(task))

    def _abandon_pool(self) -> None:
        """A dead worker broke the pool: every outstanding morsel failed.

        The pool leaves the cache (the next query spawns a fresh one), the
        metrics say ``pool_broken``, and this morsel and the rest run inline,
        one episode per :meth:`run_episode` call — the same rows and charges.
        """
        self._pool_broken = True
        pool, self._pool = self._pool, None
        if _POOLS.get(self._workers) is pool:
            del _POOLS[self._workers]
        pool.shutdown(wait=True, cancel_futures=True)
        self._dispatched = []

    def _merge_morsel(self, outcome: dict[str, Any]) -> None:
        """Fold one finished morsel into the coordinator state."""
        self.pre_meter.merge(outcome["pre"])
        self.join_meter.merge(outcome["join"])
        self.slices += outcome["slices"]
        self._worker_uct_nodes += outcome["uct_nodes"]
        self._worker_tracker_nodes += outcome["tracker_nodes"]
        self._worker_episode_wall += outcome["episode_wall"]
        self.tree.merge_stats(outcome["order_stats"])
        self._forward(outcome["matrix"])

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metric_fields(self) -> dict[str, Any]:
        """:meth:`SkinnerCTask.metric_fields` over the merged meters and
        tree, the live pilot or inline morsel included."""
        pre, join, slices = CostMeter(), CostMeter(), 0
        for task in (self, self._pilot, self._inline_task):
            if task is not None:
                pre.merge(task.pre_meter)
                join.merge(task.join_meter)
                slices += task.slices
        return {
            "final_join_order": self.tree.best_order(),
            "time_slices": slices,
            "uct_nodes": self.tree.node_count(),
            "tracker_nodes": self.tracker.node_count(),
            "intermediate_cardinality": join.tuples_scanned,
            "result_tuple_count": len(self.result_set),
            "extra": {
                "result_bytes": self.result_set.estimated_bytes(),
                "tracker_bytes": self.tracker.estimated_bytes(),
                "uct_bytes": self.tree.node_count() * 64,
                "top_orders": self.tree.top_orders(5),
                "trace": [],
                "preprocess_work": dataclasses.asdict(pre.snapshot()),
                "parallel_workers": self._workers,
                "pool_broken": self._pool_broken,
                "parallel_morsels": len(self._morsel_bounds),
                "partition_alias": self._partition_alias,
                "worker_uct_nodes": self._worker_uct_nodes,
                "worker_tracker_nodes": self._worker_tracker_nodes,
                "worker_episode_wall_seconds": self._worker_episode_wall,
            },
        }
