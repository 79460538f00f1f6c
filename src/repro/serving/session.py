"""Query sessions: one submitted query's lifecycle inside the server.

A session tracks a submission from ``submit`` to its terminal state and owns
the *episode task* that actually executes the query.  Episode tasks are
:class:`~repro.engine.task.EngineTask` subclasses — ``run_episode() -> bool``,
``finished``, ``work_total()``, ``finalize() -> QueryResult`` — implemented
natively by the Skinner engines
(:class:`~repro.skinner.skinner_c.SkinnerCTask`,
:class:`~repro.skinner.skinner_g.SkinnerGTask`,
:class:`~repro.skinner.skinner_h.SkinnerHTask`); the non-adaptive baselines
run as a single monolithic episode so the server can serve every engine.
Task construction is dispatched through the
:class:`~repro.api.registry.EngineRegistry` (see ``EngineSpec.create_task``).

Sessions submitted with ``stream=True`` additionally own a
:class:`StreamBuffer`: the server projects result tuples into output rows as
the episode tasks materialize them, so a cursor's ``fetchmany`` returns
first rows strictly before the query completes.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.config import SkinnerConfig
from repro.engine.task import EngineTask
from repro.errors import ReproError
from repro.query.query import Query
from repro.result import QueryResult
from repro.storage.table import Table


def empty_batch(names: Sequence[str]) -> Table:
    """A batch of no rows under a query's output names (repeats collapsed)."""
    return Table("result", {name: [] for name in dict.fromkeys(names)})


class StreamBuffer:
    """Rows materialized ahead of completion, queued for cursor fetches.

    The server pushes projected batches between episodes, each one a
    :class:`~repro.storage.table.Table`; a cursor takes rows out in FIFO
    order as a table again — whole queued tables are handed over as they
    are, a partial take slices column arrays.  ``first_rows_at_work``
    records the deterministic work-unit clock at the moment the first row
    became fetchable — the streaming analogue of the session's
    ``completed_at_work`` — which is how the benchmark measures
    time-to-first-batch without wall-clock noise.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self.names = tuple(names)
        self._tables: deque[Table] = deque()
        #: Rows of the head table already taken (it is sliced, never copied).
        self._head_taken = 0
        self._buffered = 0
        self.rows_streamed = 0
        self.first_rows_at_work: int | None = None
        #: Whether rows arrive between episodes (True) or only at completion.
        self.incremental = False
        #: When True every pushed table is also retained in :attr:`journal`
        #: (consumed fetches included) — the LIMIT push-down path builds the
        #: session's final result table from it.  Bounded by the limit.
        self.keep_journal = False
        self.journal: list[Table] = []

    def push(self, table: Table, clock: int) -> None:
        """Append a projected batch (``clock`` is the ledger grand total)."""
        if not table.num_rows:
            return
        if self.first_rows_at_work is None:
            self.first_rows_at_work = clock
        self._tables.append(table)
        self._buffered += table.num_rows
        self.rows_streamed += table.num_rows
        if self.keep_journal:
            self.journal.append(table)

    def take(self, max_rows: int | None = None) -> Table:
        """Remove and return up to ``max_rows`` buffered rows (FIFO)."""
        wanted = self._buffered if max_rows is None else min(max_rows, self._buffered)
        self._buffered -= wanted
        parts = []
        while wanted:
            head, start = self._tables[0], self._head_taken
            stop = min(head.num_rows, start + wanted)
            parts.append(head if (start, stop) == (0, head.num_rows) else head.slice(start, stop))
            wanted -= stop - start
            if stop == head.num_rows:
                self._tables.popleft()
                stop = 0
            self._head_taken = stop
        return Table.concat(parts) if parts else empty_batch(self.names)

    def __len__(self) -> int:
        return self._buffered


class SessionState(enum.Enum):
    """Lifecycle states of a submitted query."""

    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    FAILED = "failed"


@dataclass
class QuerySession:
    """One submitted query with its scheduling attributes and progress."""

    ticket: int
    query: Query
    engine: str
    config: SkinnerConfig
    forced_order: tuple[str, ...] | None = None
    weight: float = 1.0
    priority: int = 0
    #: Tenant the submission is accounted to; the scheduler's tenant-level
    #: stride divides work between tenants by their quota shares before the
    #: per-session weights divide a tenant's share between its sessions.
    tenant: str = "default"
    fingerprint: str | None = None
    state: SessionState = SessionState.QUEUED
    task: EngineTask | None = None
    result: QueryResult | None = None
    error: Exception | None = None
    episodes: int = 0
    virtual_time: float = 0.0
    #: Virtual-clock reading (ledger grand total) at completion; the
    #: deterministic time-to-first-result measure of the serving benchmark.
    completed_at_work: int | None = None
    submitted_at: float = field(default_factory=time.perf_counter)
    #: Whether the result was served from the result cache without running.
    cache_hit: bool = False
    #: Whether incremental result delivery was requested at submission.
    stream_requested: bool = False
    #: The live stream buffer (only for streaming-eligible submissions).
    stream: StreamBuffer | None = None
    #: Rows still owed before a pushed-down LIMIT completes the session
    #: early (``None`` when no push-down applies).
    limit_remaining: int | None = None
    #: Wall-clock seconds this session's grants spent executing episodes —
    #: reference accounting next to the deterministic work-unit ledger.
    wall_seconds: float = 0.0
    #: The UDF registry's version and those of the tables the query reads,
    #: taken when the task snapshotted its input tables (activation time).
    #: A result finished after a write moved any of them is still the right
    #: answer for *this* submission but must not enter the serving caches.
    versions: tuple = ()

    @property
    def done(self) -> bool:
        """Whether the session reached a terminal state."""
        return self.state in (SessionState.FINISHED, SessionState.CANCELLED,
                              SessionState.FAILED)

    @property
    def drained(self) -> bool:
        """Whether the session is terminal and no buffered row is left."""
        return self.done and (self.stream is None or not len(self.stream))

    def work_total(self) -> int:
        """Work units charged by this session's task so far."""
        return self.task.work_total() if self.task is not None else 0


class MonolithicTask(EngineTask):
    """Adapter running a non-resumable engine as one (unbounded) episode.

    The traditional, eddy, and re-optimizer baselines have no suspend/resume
    machinery; routed through the server they execute in a single episode.
    They still get admission control, caching, and per-query accounting —
    but a long-running baseline query cannot be preempted, which is exactly
    the contrast the episode-sliced Skinner engines are designed to avoid.
    """

    def __init__(self, execute: Callable[[], QueryResult]) -> None:
        self._execute = execute
        self._result: QueryResult | None = None
        self.finished = False

    def run_episode(self) -> bool:
        """Run the whole query in one go."""
        if not self.finished:
            self._result = self._execute()
            self.finished = True
        return True

    def work_total(self) -> int:
        """Work total (known only after the single episode completed)."""
        return self._result.metrics.work.total if self._result is not None else 0

    def finalize(self) -> QueryResult:
        """The result of the single episode."""
        if self._result is None:
            raise ReproError("MonolithicTask.finalize() called before completion")
        return self._result
