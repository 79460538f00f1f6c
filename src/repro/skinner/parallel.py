"""Morsel-parallel Skinner-C: concurrent episodes over shared-memory workers.

The paper's headline Skinner-C numbers are the *parallel* variant (Table 2).
This module shards one query's batched multi-way join into **morsels** —
contiguous chunks of the largest filtered table's tuple positions — and runs
each morsel as an independent Skinner-C sub-query on a pool of
``multiprocessing`` workers, with the flat int64/float64 column arrays
placed in ``multiprocessing.shared_memory``.  Every worker learns its own
UCT tree; visit/reward statistics flow back to the coordinator and are
merged into one tree (the paper's observation that UCT reward updates
compose across concurrent episodes).

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
episode per :meth:`ParallelSkinnerCTask.run_episode` call, which keeps the
task cancellable and streamable while it learns.  When the pilot finishes,
its best join orders seed the remaining morsels as warm-start priors —
the same mechanism the serving layer's cross-query order cache uses.
"""

from __future__ import annotations

import atexit
import inspect
import json
import multiprocessing
import time
from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.meter import CostMeter
from repro.engine.postprocess import post_process
from repro.engine.task import EngineTask, OrderPrior
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryMetrics, QueryResult
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.skinner.skinner_c import SkinnerCTask, skinner_c_metrics
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table

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
# shared-memory transport
# ----------------------------------------------------------------------

#: Names of shared-memory segments this process created and has not yet
#: unlinked — exposed for leak assertions in tests and CI.
_LIVE_SEGMENTS: set[str] = set()


def live_segment_count() -> int:
    """Shared-memory segments created here and not yet released."""
    return len(_LIVE_SEGMENTS)


@dataclass(frozen=True)
class _ArraySpec:
    """Locator of one flat array in shared memory."""

    shm_name: str
    dtype: str
    length: int


@dataclass(frozen=True)
class _FileArraySpec:
    """Locator of one flat array in a durable segment file.

    Tables of a durable catalog already live in files under the
    ``data_dir``; workers ``np.memmap`` the column's byte range read-only
    instead of receiving a shared-memory copy — zero copies, and the OS
    page cache is shared across the whole worker pool.
    """

    path: str
    dtype: str
    length: int
    offset: int


@dataclass(frozen=True)
class _DictFileSpec:
    """Locator of a string dictionary: a JSON byte span of a segment file."""

    path: str
    offset: int
    length: int


@dataclass(frozen=True)
class _ColumnSpec:
    """Physical description of one column shipped to workers.

    ``array`` locates the physical values in shared memory (in-memory
    tables) or in a durable segment file (``data_dir`` tables);
    ``dictionary`` is the string dictionary by value, by file span, or
    ``None`` for numeric columns.
    """

    array: _ArraySpec | _FileArraySpec
    ctype: str
    dictionary: tuple[str, ...] | _DictFileSpec | None


class _SharedArrays:
    """Coordinator-side owner of the query's shared-memory segments."""

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def share(self, array: np.ndarray) -> _ArraySpec:
        """Copy ``array`` into a new shared-memory segment."""
        flat = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True, size=max(1, flat.nbytes))
        if flat.nbytes:
            view = np.ndarray(flat.shape, dtype=flat.dtype, buffer=segment.buf)
            view[:] = flat
            del view
        self._segments.append(segment)
        _LIVE_SEGMENTS.add(segment.name)
        return _ArraySpec(segment.name, flat.dtype.str, int(flat.shape[0]))

    def close(self) -> None:
        """Unlink every segment; idempotent, safe with workers in flight.

        A worker that attaches after the unlink fails with
        ``FileNotFoundError`` inside its own process — the coordinator has
        already abandoned that morsel's result, so the error is never
        retrieved.
        """
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - platform specific
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _LIVE_SEGMENTS.discard(segment.name)


#: Whether this Python's SharedMemory supports the ``track`` parameter
#: (3.13+); older versions register every *attach* with the resource
#: tracker (bpo-39959), which must be suppressed — the tracker's cache is a
#: set shared by the whole process tree, so attach-side registrations from
#: several workers would corrupt each other's cleanup and the tracker would
#: unlink segments the coordinator still owns.
_SHM_SUPPORTS_TRACK = "track" in inspect.signature(
    shared_memory.SharedMemory.__init__
).parameters


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it for tracker cleanup.

    Only the creating process (the coordinator) may own a segment's
    lifecycle; see :data:`_SHM_SUPPORTS_TRACK` for why attach-side tracking
    must be off.
    """
    if _SHM_SUPPORTS_TRACK:
        return shared_memory.SharedMemory(name=name, track=False)
    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _load_shared_array(spec: _ArraySpec) -> np.ndarray:
    """Copy one array out of shared memory (worker side).

    The data is copied and the segment closed immediately: keeping numpy
    views over the mapped buffer alive would both pin the mapping and make
    ``close`` raise ``BufferError``.  Shared memory is the transport — one
    copy per worker instead of per-payload pickling — not the working set.
    """
    segment = _attach_untracked(spec.shm_name)
    view = np.ndarray((spec.length,), dtype=np.dtype(spec.dtype), buffer=segment.buf)
    data = np.array(view, copy=True)
    del view
    segment.close()
    return data


def _load_column_array(spec: _ArraySpec | _FileArraySpec) -> np.ndarray:
    """Materialize one column's physical array in a worker.

    File-backed specs map the column's range of the segment file read-only —
    no copy; the kernel shares the pages across every worker touching it.
    Shared-memory specs copy out as before.
    """
    if isinstance(spec, _FileArraySpec):
        if spec.length == 0:
            return np.empty(0, dtype=np.dtype(spec.dtype))
        return np.memmap(
            spec.path, dtype=np.dtype(spec.dtype), mode="r", offset=spec.offset,
            shape=(spec.length,),
        )
    return _load_shared_array(spec)


def _load_dictionary(
    dictionary: tuple[str, ...] | _DictFileSpec | None,
) -> list[str] | None:
    if isinstance(dictionary, _DictFileSpec):
        with open(dictionary.path, "rb") as handle:
            handle.seek(dictionary.offset)
            return json.loads(handle.read(dictionary.length))
    return list(dictionary) if dictionary is not None else None


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------

_POOLS: dict[int, Any] = {}


def _get_pool(workers: int):
    """The cached pool of ``workers`` processes.

    Pools are shared across queries (spawn start-up is expensive) and torn
    down via :func:`shutdown_workers` at interpreter exit.  Pool processes
    are daemonic, so even an unclean exit cannot leak them.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        context = multiprocessing.get_context(_START_METHOD)
        pool = _POOLS[workers] = context.Pool(processes=workers)
    return pool


def shutdown_workers() -> None:
    """Terminate and join every cached worker pool (idempotent)."""
    pools = list(_POOLS.values())
    _POOLS.clear()
    for pool in pools:
        pool.terminate()
        pool.join()


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

def _run_morsel(payload: dict[str, Any]) -> dict[str, Any]:
    """Execute one morsel to completion in a worker process.

    Rebuilds the base tables from shared memory, runs an ordinary
    :class:`SkinnerCTask` whose universe is the morsel's restricted
    positions, and returns plain data: the lexicographically sorted result
    matrix, meter snapshots, and the local UCT tree's order statistics.
    """
    tables: dict[str, Table] = {}
    for name, column_specs in payload["tables"].items():
        columns: dict[str, Column] = {}
        for column_name, spec in column_specs.items():
            columns[column_name] = Column.from_physical(
                _load_column_array(spec.array),
                ColumnType(spec.ctype),
                _load_dictionary(spec.dictionary),
            )
        tables[name] = Table(name, columns)
    positions = {
        alias: _load_shared_array(spec) for alias, spec in payload["positions"].items()
    }
    start, stop = payload["morsel"]
    restrict = dict(positions)
    restrict[payload["partition"]] = positions[payload["partition"]][start:stop]
    catalog = Catalog()
    for table in tables.values():
        catalog.add_table(table)
    task = SkinnerCTask(
        catalog,
        payload["query"],
        None,
        payload["config"],
        engine_name=payload["engine_name"],
        order_prior=payload["order_prior"],
        restrict_positions=restrict,
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

class ParallelSkinnerCTask(EngineTask):
    """Coordinator of one morsel-parallel Skinner-C query.

    Implements the :class:`EngineTask` contract so the serving scheduler
    drives it exactly like the single-process task:

    * While the pilot (morsel 0) runs, each :meth:`run_episode` call is one
      pilot episode — interleavable and cancellable, with newly found
      tuples streamed live.
    * After the pilot, each call merges one finished morsel, in morsel
      order: inline execution with one worker, a blocking collect from the
      pool otherwise.  Merging in a fixed order keeps meters, the UCT tree,
      and the streamed tuple order deterministic.

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
        self._config = config
        self._engine_name = engine_name
        self._workers = max(1, config.parallel_workers)
        self._started = time.perf_counter()
        self.query = query
        self._udfs = udfs
        self.pre_meter = CostMeter()
        self.join_meter = CostMeter()
        # Unary filtering happens once, here; morsel tasks receive the
        # surviving positions and charge only their own join-map builds.
        self.prepared = preprocess(
            catalog, query, udfs, self.pre_meter, build_hash_maps=False
        )
        # Later morsel tasks read the tables snapshotted here, as workers do.
        self._catalog = Catalog()
        for table in self.prepared.tables.values():
            self._catalog.add_table(table, replace=True)  # self-joins repeat one
        self.result_set = JoinResultSet(self.prepared.aliases)
        self.slices = 0
        self.episode_wall_seconds = 0.0
        self.finished = False
        self._closed = False
        self._partition_alias, self._morsel_bounds = plan_morsels(
            self.prepared.filtered, self.prepared.aliases
        )
        self._merged = 0
        self._priors: tuple[OrderPrior, ...] = ()
        self._evidence: dict[tuple[str, ...], int] = {}
        self._shared: _SharedArrays | None = None
        self._dispatched: list[Any] = []
        self._inline_task: SkinnerCTask | None = None
        self._tracker_nodes = 0
        self._tracker_bytes = 0
        self._worker_uct_nodes = 0
        self._worker_tracker_nodes = 0
        self._worker_episode_wall = 0.0
        # The pilot is an ordinary single-process task over morsel 0 (with
        # one morsel: over everything, making this exactly the plain task).
        # Its tree is the coordinator tree all statistics merge into.
        self._pilot: SkinnerCTask | None = self._make_morsel_task(0, order_prior)
        self.tree = self._pilot.tree
        self.tracker = self._pilot.tracker
        if self._pilot.finished:  # empty input or single-table fast path
            self._forward(self._pilot.drain_new_tuples())
            self._finish_pilot()
            self._check_done()

    # ------------------------------------------------------------------
    # EngineTask contract
    # ------------------------------------------------------------------
    def work_total(self) -> int:
        """Merged charges plus the live pilot's / inline morsel's progress."""
        total = self.pre_meter.total + self.join_meter.total
        if self._pilot is not None:
            total += self._pilot.work_total()
        if self._inline_task is not None:
            total += self._inline_task.work_total()
        return total

    def run_episode(self) -> bool:
        """One pilot episode, or one merged morsel after the pilot."""
        if self.finished:
            return True
        episode_started = time.perf_counter()
        try:
            if self._pilot is not None:
                self._pilot.run_episode()
                self._forward(self._pilot.drain_new_tuples())
                if self._pilot.finished:
                    self._finish_pilot()
            elif self._workers > 1:
                self._collect_dispatched()
            else:
                self._run_inline_morsel()
            self._check_done()
        finally:
            self.episode_wall_seconds += time.perf_counter() - episode_started
        return self.finished

    def finalize(self) -> QueryResult:
        """Post-process the assembled result and report merged metrics."""
        relation = self.result_set.to_relation()
        output = post_process(
            self.query, relation, self.prepared.tables, self._udfs, self.join_meter
        )
        metrics = self._metrics(result_rows=output.num_rows, full=True)
        return QueryResult(output, metrics)

    def partial_metrics(self, result_rows: int) -> QueryMetrics:
        """Metrics for a LIMIT-truncated streamed result (no post-process)."""
        return self._metrics(result_rows=result_rows, full=False)

    def close(self) -> None:
        """Release shared memory and abandon in-flight morsels (idempotent).

        The pool itself stays warm for later queries; un-collected workers
        either finish into a dropped ``AsyncResult`` or fail attaching the
        already-unlinked segments — both harmless.
        """
        if self._closed:
            return
        self._closed = True
        self._pilot = None
        self._inline_task = None
        self._dispatched = []
        if self._shared is not None:
            self._shared.close()
            self._shared = None

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
            self._catalog,
            self.query,
            None,
            self._config,
            engine_name=self._engine_name,
            order_prior=order_prior,
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

    def _finish_pilot(self) -> None:
        """Fold the pilot into the coordinator and start phase two."""
        pilot = self._pilot
        assert pilot is not None
        self._forward(pilot.drain_new_tuples())
        self.pre_meter.merge(pilot.pre_meter)
        self.join_meter.merge(pilot.join_meter)
        self.slices += pilot.slices
        self._tracker_nodes = pilot.tracker.node_count()
        self._tracker_bytes = pilot.tracker.estimated_bytes()
        self._evidence = pilot.order_evidence()
        # The remaining morsels start from what the pilot learned — the
        # same hand-over the serving layer's order cache makes across queries.
        self._priors = pilot.learned_orders()
        self._pilot = None
        self._merged = 1
        if self._merged < len(self._morsel_bounds) and self._workers > 1:
            self._dispatch_remaining()

    def _dispatch_remaining(self) -> None:
        """Ship tables/positions to workers and enqueue every morsel.

        Durable columns (``column.source`` set) travel as file locators —
        workers map the ``data_dir`` files directly; in-memory columns are
        copied into shared memory as before.  Positions are always shm
        (they are query-specific filter results, not stored columns).
        """
        shared = _SharedArrays()
        self._shared = shared
        table_specs: dict[str, dict[str, _ColumnSpec]] = {}
        for table in self.prepared.tables.values():
            if table.name in table_specs:
                continue  # self-joins share one base table
            table_specs[table.name] = {
                column_name: self._column_spec(table.column(column_name), shared)
                for column_name in table.column_names
            }
        position_specs = {
            alias: shared.share(positions)
            for alias, positions in self.prepared.filtered.items()
        }
        pool = _get_pool(self._workers)
        for index in range(1, len(self._morsel_bounds)):
            payload = {
                "morsel": self._morsel_bounds[index],
                "partition": self._partition_alias,
                "tables": table_specs,
                "positions": position_specs,
                "query": self.query,
                "config": self._config,
                "engine_name": self._engine_name,
                "order_prior": self._priors,
            }
            self._dispatched.append(pool.apply_async(_run_morsel, (payload,)))

    @staticmethod
    def _column_spec(column: Column, shared: _SharedArrays) -> _ColumnSpec:
        """One column's worker-side locator: file-backed or shared-memory."""
        source = column.source
        is_string = column.ctype is ColumnType.STRING
        if source is not None:
            return _ColumnSpec(
                array=_FileArraySpec(
                    source.path, source.dtype, source.length, source.offset
                ),
                ctype=column.ctype.value,
                dictionary=source.dictionary
                and _DictFileSpec(source.path, *source.dictionary),
            )
        return _ColumnSpec(
            array=shared.share(column.data),
            ctype=column.ctype.value,
            dictionary=tuple(column.dictionary) if is_string else None,
        )

    def _collect_dispatched(self) -> None:
        """Merge the next dispatched morsel (blocking, in morsel order).

        A worker that starts after a commit unlinked the table generation
        this query snapshotted finds no segment file and fails the morsel;
        the coordinator holds the mapping and runs it inline instead.
        """
        try:
            outcome = self._dispatched[self._merged - 1].get()
        except FileNotFoundError:
            self._run_inline_morsel()
        else:
            self._merge_morsel(outcome)

    def _run_inline_morsel(self) -> None:
        """Single-worker phase two: one episode of the current morsel."""
        if self._inline_task is None:
            self._inline_task = self._make_morsel_task(self._merged, self._priors)
        task = self._inline_task
        if not task.finished:
            task.run_episode()
        if task.finished:
            self._inline_task = None
            self._merge_morsel(_morsel_outcome(task))

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
        self._merged += 1

    def _check_done(self) -> None:
        if self._merged == len(self._morsel_bounds):
            self.finished = True
            if self._shared is not None:
                self._shared.close()
                self._shared = None

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _metrics(self, *, result_rows: int, full: bool) -> QueryMetrics:
        tracker_nodes = (
            self._pilot.tracker.node_count() if self._pilot is not None
            else self._tracker_nodes
        )
        extra: dict[str, Any] = {
            "episode_wall_seconds": self.episode_wall_seconds,
            "parallel_workers": self._workers,
            "parallel_morsels": len(self._morsel_bounds),
            "partition_alias": self._partition_alias,
            "worker_uct_nodes": self._worker_uct_nodes,
            "worker_tracker_nodes": self._worker_tracker_nodes,
            "worker_episode_wall_seconds": self._worker_episode_wall,
        }
        if full:
            extra.update(
                {
                    "result_bytes": self.result_set.estimated_bytes(),
                    "tracker_bytes": self._tracker_bytes,
                    "uct_bytes": self.tree.node_count() * 64,
                    "top_orders": self.tree.top_orders(5),
                    "trace": [],
                }
            )
        return skinner_c_metrics(
            self._engine_name,
            self._started,
            self.join_meter,
            self.pre_meter,
            self.result_set,
            result_rows=result_rows,
            final_join_order=(
                self.tree.best_order() if self._config.order_selection == "uct" else None
            ),
            time_slices=self.slices,
            uct_nodes=self.tree.node_count(),
            tracker_nodes=tracker_nodes,
            extra=extra,
        )
