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
  assembles the union without cross-morsel interference.  A morsel hands
  over its rows in discovery order; the coordinator's relation sorts the
  union once, into the canonical order the single-process reference has.
* Meter charges are the sum of per-morsel charges merged in morsel-index
  order, so charges are byte-identical for every worker count ≥ 1 (with
  one worker the same morsel tasks run inline on the coordinator).

The coordinator is itself a Skinner-C task over morsel 0: its own slices
run that morsel inline, one per coordinator episode, which keeps the task
cancellable, streamable and traceable while it learns.  When morsel 0 is
done, its best join orders seed the remaining morsels as warm-start priors
— the same mechanism the serving layer's cross-query order cache uses.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
from collections.abc import Generator, Mapping, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

import numpy as np

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.task import OrderPrior
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.skinner.preprocessor import PreprocessedQuery, preprocess
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
    tables: bytes, query: Query, config: SkinnerConfig, engine_name: str, trace: bool,
    order_prior: Sequence[OrderPrior], restrict: dict[str, np.ndarray],
) -> dict[str, Any]:
    """Execute one morsel to completion in a worker process.

    Registers the received (pickled) tables in a fresh catalog, runs an
    ordinary :class:`SkinnerCTask` whose universe is the morsel's restricted
    positions, and returns plain data: the result rows in discovery order,
    meter snapshots, and the local UCT tree's order statistics.
    """
    catalog = Catalog()
    for table in pickle.loads(tables):
        catalog.add_table(table)
    task = SkinnerCTask(
        catalog, query, None, config, engine_name=engine_name, trace=trace,
        order_prior=order_prior, restrict_positions=restrict,
    )
    while not task.finished:
        task.run_episode()
    return _morsel_outcome(task)


def _morsel_outcome(task: SkinnerCTask) -> dict[str, Any]:
    """What a finished morsel task hands the coordinator, as plain data."""
    return {
        "matrix": task.result_set.drain_new(),  # all rows: none were drained
        "pre": task.pre_meter.snapshot(),
        "join": task.join_meter.snapshot(),
        "slices": task.slices,
        "trace": task.trace_records,
        "max_budget_factor": task._max_factor,
        "uct_nodes": task.tree.node_count(),
        "tracker_nodes": task.tracker.node_count(),
        "order_stats": task.tree.order_stats(),
        "episode_wall": task.episode_wall_seconds,
    }


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------

class ParallelSkinnerCTask(SkinnerCTask):
    """Coordinator of one morsel-parallel Skinner-C query.

    A :class:`SkinnerCTask` over morsel 0 — its own slices are the first
    morsel's, its tree and tracker learn there, it streams what they find
    and it hands on its :meth:`learned_orders` like any Skinner-C task.
    Two hooks differ.  :meth:`preprocess` filters the query once, plans
    the morsels and snapshots the tables; :meth:`episodes` yields:

    * once per slice of morsel 0 — interleavable, cancellable and traced
      like the single-process task;
    * then once per merged morsel, in morsel order: a blocking collect from
      the pool, or one episode of an inline morsel task, with one worker or
      once a dead worker broke the pool.  Merging in a fixed order keeps
      meters, the UCT tree, the trace and the streamed tuple order
      deterministic.

    Rows and meter charges are byte-identical for every
    ``parallel_workers`` value; with a single morsel the task degenerates
    to exactly the single-process episode sequence.
    """

    def __init__(
        self,
        catalog: Catalog,
        query: Query,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        engine_name: str = "skinner-c",
        trace: bool = False,
        order_prior: Sequence[OrderPrior] | None = None,
    ) -> None:
        super().__init__(catalog, query, udfs, config, engine_name=engine_name,
                         trace=trace, order_prior=order_prior)
        self._workers = max(1, config.parallel_workers)
        self._priors: tuple[OrderPrior, ...] = ()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False
        self._dispatched: list[Future] = []
        self._inline_task: SkinnerCTask | None = None
        self._worker_uct_nodes = 0
        self._worker_tracker_nodes = 0
        self._worker_episode_wall = 0.0

    def preprocess(
        self,
        catalog: Catalog,
        query: Query,
        udfs: UdfRegistry | None,
        meter: CostMeter,
        restrict_positions: Mapping[str, np.ndarray] | None,
    ) -> PreprocessedQuery:
        """Filter once, plan the morsels, and pre-process morsel 0.

        Unary filtering happens here, on ``catalog``, and only here: every
        morsel, morsel 0 included, receives the surviving positions and
        charges only its own join-map builds.  Morsel 0 and the later
        inline morsels read the tables snapshotted here, as workers do.
        """
        prepared = preprocess(catalog, query, udfs, meter, build_hash_maps=False,
                              restrict_positions=restrict_positions)
        self._filtered = prepared.filtered
        self._partition_alias, self._morsel_bounds = plan_morsels(
            prepared.filtered, prepared.aliases
        )
        self._catalog = Catalog()
        for table in prepared.tables.values():
            self._catalog.add_table(table, replace=True)  # self-joins repeat one
        return super().preprocess(self._catalog, query, None, meter, self._restrict_for(0))

    def meters(self) -> tuple[CostMeter, ...]:
        """The coordinator's meters plus the live inline morsel's."""
        task = self._inline_task
        return super().meters() + (task.meters() if task is not None else ())

    def episodes(self) -> Generator[None, None, RowIdRelation]:
        try:
            yield from self._slices()
            # The remaining morsels start from what morsel 0 learned — the
            # same hand-over the serving layer's order cache makes across
            # queries.
            self._priors = self.learned_orders()
            if len(self._morsel_bounds) > 1 and self._workers > 1:
                self._dispatch_remaining()
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
            self._inline_task = None
        return self.result_set.to_relation()

    # ------------------------------------------------------------------
    # morsels 1..n
    # ------------------------------------------------------------------
    def _restrict_for(self, index: int) -> dict[str, np.ndarray]:
        start, stop = self._morsel_bounds[index]
        restrict = dict(self._filtered)
        restrict[self._partition_alias] = restrict[self._partition_alias][start:stop]
        return restrict

    def _dispatch_remaining(self) -> None:
        """Enqueue every remaining morsel on the pool, its inputs by value.

        Each payload carries the snapshotted tables (one per name, so
        self-joins ship one), its restricted positions, the query, the
        config and morsel 0's priors.  The tables are pickled once, on
        this thread: a durable column pickles the generation this query
        read through the page cache, which the pool's feeder thread (where
        call arguments get pickled) must not touch.
        """
        self._pool = _get_pool(self._workers)
        tables = pickle.dumps(list(self._catalog))
        try:
            for index in range(1, len(self._morsel_bounds)):
                self._dispatched.append(self._pool.submit(
                    _run_morsel, tables, self.query, self._config, self.engine_name,
                    self._trace, self._priors, self._restrict_for(index),
                ))
        except BrokenProcessPool:
            self._abandon_pool()

    def _merge(self, index: int) -> Generator[None, None, None]:
        """Merge morsel ``index``: collect it from the pool (blocking), or
        run it inline, one :meth:`SkinnerCTask.run_episode` per episode.

        UDFs are deliberately not passed to an inline morsel: the parallel
        route excludes UDF predicates, post-processing happens on the
        coordinator, and the worker-side executor cannot receive callables
        either — keeping the inline path and the worker path byte-identical.
        """
        if self._dispatched:
            try:
                outcome = self._dispatched[index - 1].result()
            except BrokenProcessPool:
                self._abandon_pool()
            else:
                self._merge_morsel(outcome)
                return
        task = self._inline_task = SkinnerCTask(
            self._catalog, self.query, None, self._config, engine_name=self.engine_name,
            trace=self._trace, order_prior=self._priors,
            restrict_positions=self._restrict_for(index),
        )
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
        self.trace_records += outcome["trace"]
        self._max_factor = max(self._max_factor, outcome["max_budget_factor"])
        self._worker_uct_nodes += outcome["uct_nodes"]
        self._worker_tracker_nodes += outcome["tracker_nodes"]
        self._worker_episode_wall += outcome["episode_wall"]
        self.tree.merge_stats(outcome["order_stats"])
        # One source for every later morsel: each hands over distinct rows,
        # and no row belongs to two morsels.
        self.result_set.emit(outcome["matrix"], self._partition_alias)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metric_fields(self) -> dict[str, Any]:
        """:meth:`SkinnerCTask.metric_fields` over the merged meters and
        tree, the live inline morsel included, and the pool's own."""
        fields = super().metric_fields()
        extra = fields["extra"]
        task = self._inline_task
        if task is not None:
            fields["time_slices"] += task.slices
            fields["intermediate_cardinality"] += task.join_meter.tuples_scanned
            pre = CostMeter()
            for meter in (self.pre_meter, task.pre_meter):
                pre.merge(meter)
            extra["preprocess_work"] = pre.counts()
        extra.update(
            parallel_workers=self._workers,
            pool_broken=self._pool_broken,
            parallel_morsels=len(self._morsel_bounds),
            partition_alias=self._partition_alias,
            worker_uct_nodes=self._worker_uct_nodes,
            worker_tracker_nodes=self._worker_tracker_nodes,
            worker_episode_wall_seconds=self._worker_episode_wall,
        )
        return fields
