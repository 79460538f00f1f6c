"""PEP 249-style cursors with streaming result fetches.

A :class:`Cursor` submits its query through the connection's
:class:`~repro.api.transport.Transport` with incremental delivery enabled,
so ``fetchone`` / ``fetchmany`` hand rows to the client as the engine
materializes them — for a streamable engine/query combination the first
batch arrives strictly before the query completes (the whole point of an
engine that adapts *during* execution).  Queries with blocking
post-processing (aggregates, GROUP BY, ORDER BY, DISTINCT) deliver all
rows at completion through the same interface; a plain LIMIT on a
streamable query is pushed into the stream, so the session stops running
— and releases its admission slot — the moment the cursor's row budget is
filled.

Because the cursor only sees the transport, the same code serves both
in-process connections and ``repro://`` remote ones.  On a local
connection fetch calls cooperatively drive the server, so several open
cursors interleave their queries' episodes; on a remote connection the
server's own pump makes progress and fetches simply wait for batches.

A statement pays only for the exchanges that carry something.  Every
fetched batch says whether the result is done, so once the last rows
arrive the fetch methods answer ``[]`` without asking again; and the
cursor keeps its ticket until the *next* ``execute``, whose submission
carries the release of the old one.  ``result()``, ``rowcount`` and the
server-side ``poll`` therefore still answer after the rows are drained,
and a statement whose result fits one batch costs one submit and one
fetch.

Closing a cursor mid-stream cancels its submission (at the next episode
boundary) and releases its admission slot — abandoning a half-fetched
result cannot starve later queries; ``close()`` is the one place a
release travels alone.  All methods raise
:class:`~repro.errors.InterfaceError` after ``close()`` (PEP 249).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.config import SkinnerConfig
from repro.errors import InterfaceError, ReproError
from repro.result import QueryResult

if TYPE_CHECKING:
    from repro.api.connection import Connection

#: ``description`` type codes are not modelled; every column reports None.
_DESCRIPTION_PAD = (None, None, None, None, None, None)


class Cursor:
    """A PEP 249 cursor over one connection.

    Attributes
    ----------
    arraysize:
        Default row count of :meth:`fetchmany` (PEP 249; default 1).
    engine:
        Engine applied to subsequent :meth:`execute` calls, unless a call
        names one.  It defaults to the connection's
        :attr:`~repro.api.connection.Connection.default_engine` (the
        ``connect(engine=...)`` / ``REPRO_ENGINE`` resolution).
    """

    def __init__(
        self,
        connection: Connection,
        *,
        engine: str | None = None,
    ) -> None:
        self.connection = connection
        self.arraysize = 1
        self.engine = engine if engine is not None else connection.default_engine
        self._ticket: int | None = None
        self._description: list[tuple] | None = None
        #: Rows iteration has fetched and not handed out yet, last row first.
        self._ahead: list[tuple[Any, ...]] = []
        #: Whether a fetched batch said the result is done: no more fetches.
        self._drained = False
        self._closed = False

    # ------------------------------------------------------------------
    # PEP 249 attributes
    # ------------------------------------------------------------------
    @property
    def description(self) -> list[tuple] | None:
        """Per-column 7-tuples ``(name, type_code, ...)`` of the last query."""
        return self._description

    @property
    def rowcount(self) -> int:
        """Rows produced by the last query, or -1 while still unknown."""
        if self._ticket is None:
            return -1
        snapshot = self.connection.transport.poll(self._ticket)
        if snapshot.get("state") == "finished" and "result_rows" in snapshot:
            return snapshot["result_rows"]
        return -1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    @property
    def ticket(self) -> int | None:
        """Server ticket of the current submission (for ``poll`` etc.)."""
        return self._ticket

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        operation: str | Any,
        parameters: Sequence[Any] | Mapping[str, Any] | None = None,
        *,
        engine: str | None = None,
        config: SkinnerConfig | None = None,
        use_result_cache: bool = True,
    ) -> Cursor:
        """Submit a query for (streaming) execution; returns the cursor.

        ``operation`` is SQL text with optional ``?`` / ``:name``
        placeholders bound from ``parameters``, or (on a local connection)
        a prebuilt :class:`~repro.query.query.Query`.  The call returns as
        soon as the query is admitted or queued — rows are produced by the
        fetch methods.  ``config=None`` uses the serving side's default:
        the connection's config locally, the *server's* config remotely.
        """
        self._check_fetchable(needs_query=False)
        previous = self._drop_submission()
        try:
            handle = self.connection.transport.submit(
                operation,
                parameters,
                engine=engine or self.engine,
                config=config,
                use_result_cache=use_result_cache,
                stream=True,
                release=previous,
            )
        except Exception:
            # The submission may have failed before it reached the server;
            # a second release of an already-released ticket is a no-op.
            self._release(previous)
            raise
        self._ticket = handle.ticket
        self._description = [(name,) + _DESCRIPTION_PAD for name in handle.columns]
        return self

    def executemany(
        self,
        operation: str,
        seq_of_parameters: Sequence[Sequence[Any] | Mapping[str, Any]],
    ) -> Cursor:
        """Run ``operation`` once per parameter set (result sets discarded)."""
        for parameters in seq_of_parameters:
            self.execute(operation, parameters)
            self.fetchall()
        return self

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------
    def fetchone(self) -> tuple[Any, ...] | None:
        """The next result row, or ``None`` when the result is exhausted."""
        rows = self._fetch(1)
        return rows[0] if rows else None

    def fetchmany(self, size: int | None = None) -> list[tuple[Any, ...]]:
        """Up to ``size`` rows (default :attr:`arraysize`).

        For a streaming query this returns as soon as *any* rows are
        fetchable — possibly fewer than ``size`` — so the first batch
        arrives before the query finishes; an empty list means the result
        is exhausted.  ``size`` is a non-negative ``int``; anything else
        (``-1``, ``"2"``, ``True``) is an :class:`InterfaceError`.
        """
        return self._fetch(size if size is not None else self.arraysize)

    def fetchall(self) -> list[tuple[Any, ...]]:
        """All remaining rows of the current result."""
        rows: list[tuple[Any, ...]] = []
        while True:
            batch = self._fetch(None)
            if not batch:
                return rows
            rows.extend(batch)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return self

    def __next__(self) -> tuple[Any, ...]:
        """The next row; fetched :attr:`arraysize` rows at a time."""
        if not self._ahead:
            self._ahead = self._fetch(self.arraysize)[::-1]
            if not self._ahead:
                raise StopIteration
        return self._ahead.pop()

    def _fetch(self, max_rows: int | None) -> list[tuple[Any, ...]]:
        """The next batch as tuples — made here, from whole columns at a
        time; everything below the cursor hands tables on."""
        self._check_fetchable(needs_query=True)
        assert self._ticket is not None
        ahead = self._ahead
        # What iteration fetched ahead goes out first; once a batch said the
        # result is done, there is nothing left to ask the transport for.
        if ahead or self._drained:
            from repro.serving.server import check_fetch_size

            check_fetch_size(max_rows)
            keep = 0 if max_rows is None else max(0, len(ahead) - max_rows)
            rows = ahead[keep:][::-1]
            del ahead[keep:]
            return rows
        batch = self.connection.transport.fetch_batch(self._ticket, max_rows)
        self._drained = batch.done
        return batch.row_tuples()

    # ------------------------------------------------------------------
    # results and metrics
    # ------------------------------------------------------------------
    def result(self) -> QueryResult:
        """The full :class:`QueryResult` (drives the query to completion).

        The result's rows are the *completion-ordered* materialization —
        identical content to the streamed rows — and its metrics carry the
        per-query meter charges, which streaming does not alter.
        """
        self._check_fetchable(needs_query=True)
        assert self._ticket is not None
        return self.connection.transport.result(self._ticket)

    @property
    def metrics(self):
        """Metrics of the completed query (drives it to completion)."""
        return self.result().metrics

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the cursor, cancelling an unfinished submission.

        Safe mid-stream: a running query is cancelled at its next episode
        boundary and its admission slot is handed to the next queued
        query — closing early never leaks serving capacity, locally or
        over the wire.  Idempotent (PEP 249).
        """
        if self._closed:
            return
        self._release(self._drop_submission())
        self._closed = True
        self.connection._forget_cursor(self)

    def _drop_submission(self) -> int | None:
        """Forget the current submission client-side; returns its ticket,
        which the caller releases server-side."""
        ticket = self._ticket
        self._ticket = None
        self._description = None
        self._ahead = []
        self._drained = False
        return ticket

    def _release(self, ticket: int | None) -> None:
        """Release ``ticket`` in an exchange of its own (cancel if in flight)."""
        if ticket is None:
            return
        try:
            self.connection.transport.release(ticket)
        except ReproError:
            pass  # the wire is gone

    def __enter__(self) -> Cursor:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_fetchable(self, *, needs_query: bool) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        if self.connection.closed:
            raise InterfaceError("connection is closed")
        if needs_query and self._ticket is None:
            raise InterfaceError("no query has been executed on this cursor")
