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
    An episodic engine: a factory of tasks, with the loop that drives one
    to completion.

:class:`GenericEngine`
    The execution substrate Skinner-G/H drive their batch attempts on —
    the paper's "existing DBMS".  The internal left-deep
    :class:`~repro.engine.executor.PlanExecutor` implements it as the
    default; :mod:`repro.external` implements it over sqlite3 by emitting
    order-forcing SQL.

Keeping the ABCs in ``repro.engine`` (below ``repro.skinner``,
``repro.external``, and ``repro.serving`` in the import graph) lets engine
implementations and the serving scheduler share them without cycles.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.meter import CostMeter
    from repro.engine.relation import RowIdRelation
    from repro.query.query import Query
    from repro.result import QueryMetrics, QueryResult
    from repro.storage.table import Table

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
        """Rows will be drained while the query runs; call before the first episode."""

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
        task = self.task(query, **options)
        while not task.finished:
            task.run_episode()
        return task.finalize()


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

    def close(self) -> None:
        """Release external resources; idempotent."""
