"""The execution contract between engines and their schedulers.

Historically the episode-task protocol (``run_episode`` / ``work_total`` /
``finalize``) was duck-typed: each Skinner variant shipped a task class that
happened to have the right methods, and the serving layer hoped for the
best.  Worker dispatch for morsel parallelism needs a serializable,
introspectable contract, so the protocol is now a formal ABC:

:class:`EngineTask`
    One query's resumable execution state.  A scheduler drives it one
    bounded episode at a time (``run_episode``), reads monotone progress
    (``work_total``), and materializes the answer exactly once
    (``finalize``).  Optional extensions — streaming, partial results,
    parallel morsel execution — are declared through well-known attributes
    so registries can *validate* a task class against the capabilities its
    engine spec claims (see :func:`validate_task_contract`).

:class:`ExecutionBackend`
    An engine: a factory of tasks (episodic engines) and/or a one-shot
    ``execute`` entry point (monolithic engines).

:class:`GenericEngine`
    The execution substrate Skinner-G/H drive their batch attempts on —
    the paper's "existing DBMS".  The internal left-deep
    :class:`~repro.engine.executor.PlanExecutor` implements it as the
    default and A/B reference; :mod:`repro.external` implements it over
    real databases (sqlite3, Postgres) by emitting order-forcing SQL.

Keeping the ABCs in ``repro.engine`` (below ``repro.skinner``,
``repro.external``, and ``repro.serving`` in the import graph) lets engine
implementations and the serving scheduler share them without cycles.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.engine.meter import CostMeter
    from repro.engine.relation import RowIdRelation
    from repro.query.query import Query
    from repro.result import QueryResult
    from repro.storage.table import Table


class EngineTask(abc.ABC):
    """One query's resumable execution state, driven episode by episode.

    Lifecycle contract (enforced by :func:`validate_task_contract` at
    engine-registration time, relied on by the serving scheduler):

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
      mid-query cancellation.  The base implementation is a no-op.

    Optional extensions, discovered via ``hasattr`` by the serving layer
    and validated against the owning :class:`~repro.api.registry.EngineSpec`
    capabilities:

    * **streamable** — ``enable_streaming()`` / ``drain_new_tuples()`` (the
      tuples found since the last drain, as a ``(rows, aliases)`` int64
      matrix) plus ``stream_aliases`` / ``stream_tables`` for incremental
      row delivery.
    * **partial results** — ``partial_metrics(result_rows)`` for
      LIMIT-style early termination.
    * **parallelizable** — a truthy ``parallel_capable`` class attribute
      marking the task as a valid worker-side morsel executor.
    """

    #: Whether the query has produced its complete result set.  Concrete
    #: tasks typically manage this as a plain instance attribute.
    finished: bool = False

    #: Whether instances can serve as worker-side morsel executors (safe to
    #: construct from pickled query state in a spawned process).  Engine
    #: specs declaring ``parallelizable`` must provide a task class with a
    #: truthy value.
    parallel_capable: bool = False

    @abc.abstractmethod
    def run_episode(self) -> bool:
        """Run one bounded episode; return whether the query is finished."""

    @abc.abstractmethod
    def work_total(self) -> int:
        """Total work units charged so far (monotone across episodes)."""

    @abc.abstractmethod
    def finalize(self) -> "QueryResult":
        """Materialize the final result (requires ``finished``)."""

    def close(self) -> None:
        """Release external resources; idempotent, safe mid-query."""

    def __enter__(self) -> "EngineTask":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ExecutionBackend(abc.ABC):
    """An engine: executes queries, optionally via resumable tasks.

    Monolithic engines implement only :meth:`execute`; episodic engines
    additionally override :meth:`task` so schedulers can interleave many
    queries on one thread.
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """The engine's registry name."""

    @abc.abstractmethod
    def execute(self, query: "Query") -> "QueryResult":
        """Run ``query`` to completion and return its result."""

    def task(self, query: "Query", **kwargs: Any) -> EngineTask:
        """Create a resumable task for ``query`` (episodic engines only)."""
        raise ReproError(f"engine {self.name!r} is not episodic")


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
        base_positions: "Mapping[str, np.ndarray]",
        budget: int,
    ) -> "tuple[CostMeter, np.ndarray | None]":
        """One batch attempt in the forced ``order`` under ``budget``.

        ``base_positions`` restricts each alias to a subset of its filtered
        positions (the left-most alias to one batch, the others to their
        unprocessed remainder); the caller hands in the same array object
        for as long as a restriction stays the same.  Returns the meter
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


#: Method names every episodic task class must provide.
_EPISODIC_METHODS = ("run_episode", "work_total", "finalize")

#: Method names a streamable task class must additionally provide.
_STREAMING_METHODS = ("enable_streaming", "drain_new_tuples")


def validate_task_contract(
    spec_name: str,
    task_class: type | None,
    *,
    episodic: bool = False,
    streamable: bool = False,
    parallelizable: bool = False,
) -> None:
    """Check a task class against the capabilities an engine spec declares.

    Raises :class:`~repro.errors.ReproError` when a declared capability has
    no implementation to back it — at registration time, not mid-query.
    Specs that declare no task-level capabilities and ship no task class
    (monolithic engines) pass trivially.
    """
    if task_class is None:
        missing = [
            flag
            for flag, declared in (
                ("streamable", streamable),
                ("parallelizable", parallelizable),
            )
            if declared
        ]
        if missing:
            raise ReproError(
                f"engine {spec_name!r} declares {', '.join(missing)} but "
                "provides no task_class implementing it"
            )
        return
    required = list(_EPISODIC_METHODS) if episodic or streamable else []
    if streamable:
        required += _STREAMING_METHODS
    for method in required:
        if not callable(getattr(task_class, method, None)):
            raise ReproError(
                f"engine {spec_name!r}: task class "
                f"{task_class.__name__!r} does not implement {method}()"
            )
    if parallelizable and not getattr(task_class, "parallel_capable", False):
        raise ReproError(
            f"engine {spec_name!r} declares parallelizable but task class "
            f"{task_class.__name__!r} is not marked parallel_capable"
        )
