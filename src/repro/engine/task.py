"""The execution contract between engines and their schedulers.

:class:`EngineTask`
    One query's resumable execution state, and the *only* statement of the
    task contract.  A scheduler drives it one bounded episode at a time
    (``run_episode``), reads monotone progress (``work_total``), and
    materializes the answer exactly once (``finalize``).  Everything else a
    scheduler may ask of a task — streaming, partial results, learned join
    orders, resource release — is a method with a default here, so callers
    call instead of probing, and an engine registers by naming its concrete
    subclass (:attr:`repro.api.registry.EngineSpec.task_class`).

:class:`ExecutionBackend`
    An engine: a factory of tasks, with the one loop that drives a task to
    completion (:func:`run_to_completion`).

:class:`GeneratorTask`
    A task written as one generator: every built-in engine's task, and the
    one episode loop, post-processing pass and metrics builder they share.

:class:`GenericEngine`
    The execution substrate Skinner-G/H drive their batch attempts on —
    the paper's "existing DBMS".  Two hosts implement it: the internal
    left-deep :class:`~repro.engine.executor.PlanExecutor`, and
    :mod:`repro.external`'s engine over sqlite3, which emits order-forcing
    SQL.

Keeping the ABCs in ``repro.engine`` (below ``repro.skinner``,
``repro.external``, and ``repro.serving`` in the import graph) lets engine
implementations and the serving scheduler share them without cycles.
"""

from __future__ import annotations

import abc
import functools
import time
from collections.abc import Generator, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine.meter import CostMeter
from repro.engine.postprocess import charge_post_process, post_process
from repro.errors import BudgetExceeded
from repro.query.udf import UdfRegistry
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.relation import RowIdRelation
    from repro.query.query import Query
    from repro.result import QueryMetrics, QueryResult

#: A warm-start prior, handed from one task to the next: (join order,
#: selection share, pseudo-visits, accumulated selections).  The last is the
#: order's evidence: its selections in the query that recorded the prior on
#: top of what that query's own prior brought, saturating at the slice
#: schedule's cap.
OrderPrior = tuple[tuple[str, ...], float, int, int]

#: How many learned join orders one finished task hands on.
PRIOR_ORDERS = 3

#: Pseudo-visits credited at most per handed-on order; small, so a stale
#: prior decays quickly once real rewards arrive.
WARM_START_VISITS = 8

#: Candidate rows a baseline examines per episode (a plan's step builds and
#: filters them; a plug-in that routes tuples one by one counts each it
#: examines): about Skinner-C's longest slice at the default schedule.
#: :class:`GeneratorTask` reads it.
EPISODE_ROWS = 16_384


class EngineTask(abc.ABC):
    """One query's resumable execution state, driven episode by episode.

    Lifecycle contract (relied on by the serving scheduler):

    * ``finished`` is readable at any point after construction.  A task may
      be born finished (empty input, single-table fast path).
    * :meth:`run_episode` performs one bounded slice of work and returns
      the new value of ``finished``.  Calling it on a finished task must be
      a no-op returning ``True``.
    * :meth:`work_total` is monotonically non-decreasing across episodes —
      the serving layer accounts scheduler grants from its deltas.
    * :meth:`finalize` materializes the result; it may only be called once
      ``finished`` is true.
    * :meth:`close` releases external resources (worker pools, shared
      memory) and must be idempotent and safe at *any* point, including
      mid-query cancellation.

    The three abstract methods are all a subclass must write.  The optional
    hooks below default to "this task does not do that": its rows become
    fetchable at completion, it takes and hands on no join-order priors,
    and closing it is a no-op.
    """

    #: Whether the query has produced its complete result set.  Concrete
    #: tasks typically manage this as a plain instance attribute.
    finished: bool = False

    #: Whether result tuples can be drained between episodes:
    #: :meth:`enable_streaming` / :meth:`drain_new_tuples` are overridden
    #: and ``stream_aliases`` / ``stream_tables`` (the alias order of a
    #: drained matrix and the alias-to-table mapping to project it with)
    #: exist.
    streamable: bool = False

    #: Whether the engine's ``task(query, order_prior=...)`` accepts the
    #: priors :meth:`learned_orders` produces.
    warm_startable: bool = False

    @abc.abstractmethod
    def run_episode(self) -> bool:
        """Run one bounded episode; return whether the query is finished."""

    @abc.abstractmethod
    def work_total(self) -> int:
        """Total work units charged so far (monotone across episodes)."""

    @abc.abstractmethod
    def finalize(self) -> "QueryResult":
        """Materialize the final result (requires ``finished``)."""

    def enable_streaming(self) -> None:
        """Rows will be drained while the query runs; call before the first
        episode.  :meth:`finalize` may then leave the table of a query
        without blocking post-processing to be built when first read."""

    def drain_new_tuples(self) -> np.ndarray:
        """Result tuples found since the last drain, in discovery order: a
        ``(rows, aliases)`` int64 matrix over ``stream_aliases``."""
        return np.empty((0, 0), dtype=np.int64)

    def partial_metrics(self, result_rows: int) -> "QueryMetrics":
        """Metrics of a run abandoned once ``result_rows`` rows had streamed."""
        from repro.result import QueryMetrics  # imports this package: not at the top

        return QueryMetrics(engine=type(self).__name__, result_rows=result_rows)

    def learned_orders(self, k: int = PRIOR_ORDERS) -> tuple[OrderPrior, ...]:
        """The ``k`` join orders this task learned most about, as priors for
        the next task on the same join graph (none by default)."""
        return ()

    def close(self) -> None:
        """Release external resources; idempotent, safe mid-query."""


class ExecutionBackend(abc.ABC):
    """An episodic engine: makes resumable tasks and can drive one itself."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """The engine's registry name."""

    @abc.abstractmethod
    def task(self, query: "Query", **options: Any) -> EngineTask:
        """Create a resumable task for ``query``."""

    def execute(self, query: "Query", **options: Any) -> "QueryResult":
        """Run ``query`` to completion: one task, episode after episode.

        ``options`` go to :meth:`task`.  A scheduler interleaving many
        queries performs exactly this episode sequence per query.
        """
        return run_to_completion(self.task(query, **options))


def run_to_completion(task: EngineTask) -> "QueryResult":
    """Drive ``task`` episode after episode and return its result."""
    while not task.finished:
        task.run_episode()
    return task.finalize()


class GeneratorTask(EngineTask):
    """A task written as one generator, :meth:`episodes`: each ``yield`` ends
    an episode, and it returns the join result, which :meth:`finalize`
    post-processes over :attr:`tables`, charging :attr:`meter` — once the
    table is read, if the rows were streamed (:meth:`enable_streaming`).

    Every built-in engine's task is one, so this class is the one episode
    loop: it times episodes (``extra["episode_wall_seconds"]``), turns an
    exhausted ``work_budget`` into an empty result with
    ``extra["timed_out"]``, post-processes, builds the final and partial
    metrics, and closes the generator.  A subclass writes :meth:`episodes`,
    ``tables``, :meth:`metric_fields` and, when it charges more meters than
    :attr:`meter`, :meth:`meters`.  :meth:`work_total` and the reported
    ``work`` both sum :meth:`meters`, so the two agree at any point of the
    run.  A baseline ends an episode every :attr:`episode_rows`
    (:data:`EPISODE_ROWS`) candidate rows.
    """

    def __init__(self, engine_name: str, query: "Query", udfs: "UdfRegistry | None",
                 work_budget: int | None = None) -> None:
        self.engine_name, self.query, self.udfs = engine_name, query, udfs
        self.meter = CostMeter(budget=work_budget)
        self.episode_rows = EPISODE_ROWS
        self.timed_out = self.finished = False
        self._streamed = False
        #: Wall seconds spent inside :meth:`run_episode`: the query's own
        #: cost, free of the gaps between an interleaved query's episodes.
        self.episode_wall_seconds = 0.0
        self._started = time.perf_counter()
        self._episodes = self.episodes()

    @abc.abstractmethod
    def episodes(self) -> Generator[None, None, "RowIdRelation"]:
        """The query's join, yielding between episodes."""

    def meters(self) -> tuple[CostMeter, ...]:
        """Every meter this task has charged (:attr:`meter` by default)."""
        return (self.meter,)

    def metric_fields(self) -> dict[str, Any]:
        """:meth:`QueryMetrics.measured` fields beyond work and rows."""
        return {}

    def run_episode(self) -> bool:
        if not self.finished:
            started = time.perf_counter()
            try:
                next(self._episodes)
            except StopIteration as done:
                self._returned, self.finished = done.value, True
            except BudgetExceeded:
                self.timed_out = self.finished = True
            finally:
                self.episode_wall_seconds += time.perf_counter() - started
        return self.finished

    def work_total(self) -> int:
        total = 0
        for meter in self.meters():  # the server reads this around every grant
            total += meter.total
        return total

    def enable_streaming(self) -> None:
        self._streamed = True

    def finalize(self) -> "QueryResult":
        """Charge post-processing and build the table — or, for a query
        whose rows were streamed and that only projects them, charge now
        and leave the table to whoever reads it.

        Such a query returns the join's rows cut by its ``LIMIT``, so the
        metrics need no table.  The pending table holds the join result's
        rows, the query, the snapshotted tables and the UDFs as they are
        now, not this task.
        """
        from repro.result import QueryResult  # imports this package: not at the top

        relation = None if self.timed_out else self._returned
        if relation is not None:
            try:
                charge_post_process(relation, self.meter)
            except BudgetExceeded:
                self.timed_out, relation = True, None
        if relation is None:
            return QueryResult(Table("result", {}), self.partial_metrics(0))
        # Charged above: post_process charges a meter nobody reads.
        query, tables = self.query, self.tables
        if not self._streamed or query.blocking:
            output = post_process(query, relation, tables, self.udfs, CostMeter())
            return QueryResult(output, self.partial_metrics(output.num_rows))
        udfs = None
        if self.udfs is not None:
            udfs = UdfRegistry()  # the functions of now, whenever the table is built
            udfs.restore(self.udfs.snapshot())
        names = query.output_names() if query.select_items else query.star_names(tables)
        rows = len(relation) if query.limit is None else min(len(relation), query.limit)
        # Every output column's array is 8 bytes a row, as every alias's row
        # id is: the bound holds whatever the select list makes of them.
        nbytes = max(len(relation.aliases), len(names)) * rows * 8
        build = functools.partial(post_process, query, relation, tables, udfs, CostMeter())
        return QueryResult.deferred(build, self.partial_metrics(rows), nbytes)

    def partial_metrics(self, result_rows: int) -> "QueryMetrics":
        """The metrics of the run so far, ``result_rows`` rows delivered."""
        from repro.result import QueryMetrics  # imports this package: not at the top

        work = CostMeter()
        for meter in self.meters():
            work.merge(meter)
        fields = self.metric_fields()
        fields["extra"] = {**fields.get("extra", {}), "timed_out": self.timed_out,
                           "episode_wall_seconds": self.episode_wall_seconds}
        return QueryMetrics.measured(
            self.engine_name, work.snapshot(), self._started, result_rows, **fields
        )

    def close(self) -> None:
        self._episodes.close()


class GenericEngine(abc.ABC):
    """The execution substrate of one Skinner-G/H query — a pluggable DBMS.

    Skinner-G (Algorithm 1) is a learning layer *on top of* an existing
    database: it repeatedly asks the host engine to join one batch of the
    left-most table with the remaining tuples of every other table, under a
    work-unit budget, in a forced join order.  This ABC is that host-engine
    contract.  One instance serves exactly one query; the learning run
    (:class:`~repro.skinner.skinner_g.GenericLearningRun`) and the hybrid's
    traditional-plan attempts both drive it.

    Budget and accounting contract (the deterministic work-unit clock):

    * Budgets are **work units**, never wall-clock seconds.  Implementations
      must derive every meter charge from deterministic quantities (rows
      delivered, engine-reported progress ticks), so that repeated runs of
      the same query on the same data charge byte-identical work and bench
      fingerprints stay reproducible.
    * A timed-out attempt returns ``None`` results and must charge a
      deterministic amount — the internal executor charges the work it
      performed up to (and including) the overflowing charge; external
      adapters charge exactly the budget — so learning trajectories are a
      pure function of data + knobs.
    * Row identity: results are **row positions** into the base tables
      (the internal row-id representation), one column per alias in
      ``query.aliases`` order — an int64 matrix from :meth:`execute_batch`,
      a :class:`~repro.engine.relation.RowIdRelation` from
      :meth:`execute_plan` — so post-processing, deduplication, and result
      ordering stay inside the reproduction and rows are byte-identical
      across substrates.
    """

    @property
    @abc.abstractmethod
    def tables(self) -> "Mapping[str, Table]":
        """Alias-to-table mapping of the query this engine executes."""

    @abc.abstractmethod
    def pre_process(self, meter: "CostMeter") -> None:
        """Apply unary predicates to every table, charging ``meter``."""

    @abc.abstractmethod
    def filtered_positions(self, alias: str) -> "np.ndarray":
        """Ascending row positions of ``alias`` surviving its unary predicates."""

    @abc.abstractmethod
    def execute_batch(
        self,
        order: Sequence[str],
        batch: tuple[int, int],
        lower: "Mapping[str, int]",
        budget: int,
    ) -> "tuple[CostMeter, np.ndarray | None]":
        """One batch attempt in the forced ``order`` under ``budget``.

        Positions count :meth:`filtered_positions`: the left-most alias joins
        its filtered rows ``batch[0]:batch[1]``, every other alias its
        unprocessed remainder, from ``lower[alias]`` on.  Returns the meter
        charged for the attempt and the joined row positions as a
        ``(rows, len(query.aliases))`` int64 matrix in the engine's discovery
        order, or ``None`` when the budget expired first.
        """

    @abc.abstractmethod
    def execute_plan(
        self, order: Sequence[str], budget: int
    ) -> "tuple[CostMeter, RowIdRelation | None]":
        """One whole-query attempt in the forced ``order`` under ``budget``.

        Used by Skinner-H's traditional-plan side.  Returns the meter and
        the complete join relation, or ``None`` on timeout.
        """
