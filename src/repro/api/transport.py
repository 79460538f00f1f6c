"""Transports: the operations that cross the local/remote boundary.

The PEP 249 surface (:class:`~repro.api.connection.Connection` /
:class:`~repro.api.cursor.Cursor`) does not talk to an execution engine
directly.  What differs between running in process and running against a
server goes through one :class:`Transport`, and only that: submissions and
their tickets (``submit`` / ``fetch_batch`` / ``poll`` / ``result`` /
``release``), registering and dropping a table, the transaction
boundaries, and the serving metrics.  Everything built from those verbs —
``Connection.execute``, ``create_table``, file ingest — is written once, in
the connection.  Two implementations exist:

* :class:`LocalTransport` — the in-process path: operations act on the
  connection's own catalog and lazily created
  :class:`~repro.serving.server.QueryServer`.  This is what ``connect()``
  with a :class:`~repro.config.SkinnerConfig` (the historical form) uses.
* :class:`~repro.net.client.RemoteTransport` — a blocking socket speaking
  the framed protocol of :mod:`repro.net` (JSON header, raw column
  buffers) against a live server.
  ``connect("repro://host:port/?tenant=...")`` resolves to it.

Because cursors only see the transport interface, the streamed fetch path
and the completion-delivered result path behave identically against either
transport — the property tests pin byte-identical rows and meter charges
between the two.

The verbs are shaped so that a statement pays only for exchanges that
carry something: every :class:`Batch` says whether the result is ``done``
(no empty batch is ever needed to learn that), ``submit`` takes the ticket
to ``release`` along with the new statement, and a ``submit`` that asks
for its ``first`` batch may bring it back in its :class:`SubmitHandle`.
Over ``repro://`` the server answers such a ``submit`` after the
statement's first episode, with the rows that episode produced, so a
statement on a reused cursor whose result fits one batch is one exchange.
In process the handle carries no batch: submitting never drives the
scheduler, fetching does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.config import SkinnerConfig
from repro.errors import InterfaceError
from repro.result import QueryResult
from repro.storage.table import Table

if TYPE_CHECKING:
    from repro.api.connection import Connection
    from repro.serving.server import QueryServer


@dataclass(frozen=True)
class Batch:
    """One fetched batch: its rows as a table, and whether the result is done.

    ``done`` is true when the submission is terminal and nothing buffered is
    left after this batch — a cursor that has seen it never fetches again.
    """

    table: Table
    done: bool

    def row_tuples(self) -> list[tuple[Any, ...]]:
        """The batch's rows as tuples."""
        return self.table.row_tuples()


@dataclass(frozen=True)
class SubmitHandle:
    """What a submission returns: the server ticket plus output columns.

    The columns travel with the handle so a cursor can populate its PEP 249
    ``description`` without a client-side catalog (remote connections have
    none — the server parses the query and reports the output names).
    ``batch`` is the statement's first batch where the submission asked for
    it and the backend had one to give, else ``None``.
    """

    ticket: int
    columns: tuple[str, ...]
    batch: Batch | None = None


class Transport(ABC):
    """The operations a connection needs from its execution backend."""

    #: Tenant identity submissions are accounted to (fixed at handshake for
    #: remote transports).
    tenant: str = "default"

    # -- query execution ------------------------------------------------
    @abstractmethod
    def submit(
        self,
        operation: str | Any,
        parameters: Sequence[Any] | Mapping[str, Any] | None,
        *,
        engine: str,
        config: SkinnerConfig | None,
        use_result_cache: bool,
        stream: bool = True,
        release: int | None = None,
        first: bool = False,
    ) -> SubmitHandle:
        """Submit a query; ``config=None`` means the backend's default.

        ``release`` names a ticket to :meth:`release` first, in the same
        exchange — before the new submission is admitted, so a slot it
        frees can go to the new statement.  ``first`` (with ``stream``)
        asks for the statement's first batch in the handle; a backend may
        answer with none, and the rows then come from :meth:`fetch_batch`.
        """

    @abstractmethod
    def fetch_batch(self, ticket: int, max_rows: int | None) -> Batch:
        """Next streamed batch, flagged ``done`` once the result is exhausted."""

    @abstractmethod
    def poll(self, ticket: int) -> dict[str, Any]:
        """Non-blocking progress snapshot of a submission."""

    @abstractmethod
    def result(self, ticket: int) -> QueryResult:
        """The completed result (drives/waits until the query finishes)."""

    @abstractmethod
    def release(self, ticket: int) -> bool:
        """Cancel a submission still in flight, then drop its bookkeeping.

        ``False`` for a ticket the backend no longer knows; never raises
        for one.
        """

    # -- schema and transactions ----------------------------------------
    @abstractmethod
    def add_table(self, table: Table, *, replace: bool) -> Table:
        """Register a table (shipped column-wise when remote); returns the
        registered table — a durable catalog re-wraps the columns."""

    @abstractmethod
    def drop_table(self, name: str) -> None:
        """Remove a table."""

    @abstractmethod
    def commit(self) -> None:
        """Make schema mutations since the last commit permanent."""

    @abstractmethod
    def rollback(self) -> None:
        """Undo schema mutations since the last commit."""

    # -- lifecycle and health -------------------------------------------
    @abstractmethod
    def stats(self) -> dict[str, Any]:
        """Serving-layer metrics (queue depths, tenant shares, caches)."""

    @abstractmethod
    def close(self) -> None:
        """Release transport resources (idempotent)."""


class LocalTransport(Transport):
    """The in-process transport over a connection's own serving layer.

    Its schema verbs change the catalog and nothing else: the connection
    wraps every change in its transaction bracket (``Connection._mutate``).

    While a :class:`~repro.net.server.ReproServer` serves the connection
    (``Connection.served_at``), that server's thread steps the scheduler,
    so the verbs that would step it here too — ``submit``, ``fetch_batch``
    and ``result`` — raise :class:`~repro.errors.InterfaceError`; the
    schema verbs, ``commit`` and ``stats`` stay open for seeding and
    inspection.
    """

    def __init__(self, connection: Connection, tenant: str = "default") -> None:
        self._connection = connection
        self.tenant = tenant

    # -- query execution ------------------------------------------------
    def submit(
        self,
        operation: str | Any,
        parameters: Sequence[Any] | Mapping[str, Any] | None,
        *,
        engine: str,
        config: SkinnerConfig | None,
        use_result_cache: bool,
        stream: bool = True,
        release: int | None = None,
        first: bool = False,
    ) -> SubmitHandle:
        # ``first`` gets no batch here: submitting never steps the
        # scheduler in process, the fetch that follows does.
        conn = self._connection
        server = self._scheduler()
        if release is not None:
            server.release(release)
        parsed = conn._resolve_query(operation, parameters)
        ticket = server.submit(
            parsed,
            engine=engine,
            # Resolve against the connection's (reassignable) config, not
            # the server's construction-time snapshot.
            config=config or conn.config,
            use_result_cache=use_result_cache,
            tenant=self.tenant,
            stream=stream,
        )
        return SubmitHandle(ticket, tuple(parsed.output_names(conn.catalog)))

    def fetch_batch(self, ticket: int, max_rows: int | None) -> Batch:
        server = self._scheduler()
        table = server.fetch_batch(ticket, max_rows)
        return Batch(table, server.session(ticket).drained)

    def poll(self, ticket: int) -> dict[str, Any]:
        return self._connection.server.poll(ticket)

    def result(self, ticket: int) -> QueryResult:
        return self._scheduler().result(ticket)

    def release(self, ticket: int) -> bool:
        return self._connection.server.release(ticket)

    def _scheduler(self) -> QueryServer:
        """The connection's serving layer, to step on this thread."""
        conn = self._connection
        if conn.served_at is not None:
            raise InterfaceError(
                f"this connection is served at {conn.served_at}, whose thread "
                f"runs its statements: connect({conn.served_at!r}) to run one"
            )
        return conn.server

    # -- schema and transactions ----------------------------------------
    def add_table(self, table: Table, *, replace: bool) -> Table:
        catalog = self._connection.catalog
        catalog.add_table(table, replace=replace)
        return catalog.table(table.name)

    def drop_table(self, name: str) -> None:
        self._connection.catalog.drop_table(name)

    def commit(self) -> None:
        conn = self._connection
        conn.catalog.commit()
        conn._txn_tables = None
        conn._txn_udfs = None

    def rollback(self) -> None:
        conn = self._connection
        if conn._txn_tables is not None:
            conn.catalog.restore(conn._txn_tables)
            assert conn._txn_udfs is not None
            conn.udfs.restore(conn._txn_udfs)
            conn._txn_tables = None
            conn._txn_udfs = None

    # -- lifecycle and health -------------------------------------------
    def stats(self) -> dict[str, Any]:
        return self._connection.server.stats()

    def close(self) -> None:
        pass  # nothing beyond the connection's own state to release
