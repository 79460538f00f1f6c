"""Transports: the single result channel behind connections and cursors.

The PEP 249 surface (:class:`~repro.api.connection.Connection` /
:class:`~repro.api.cursor.Cursor`) does not talk to an execution engine
directly; every operation — submissions, streamed fetches, whole results,
schema mutations, transaction boundaries, metrics — goes through one
:class:`Transport`.  Two implementations exist:

* :class:`LocalTransport` — the in-process path: operations act on the
  connection's own catalog, UDF registry, and lazily created
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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.config import SkinnerConfig
from repro.result import QueryResult
from repro.storage.loader import file_fingerprint, load_csv
from repro.storage.table import Table

if TYPE_CHECKING:
    from repro.api.connection import Connection


@dataclass(frozen=True)
class SubmitHandle:
    """What a submission returns: the server ticket plus output columns.

    The columns travel with the handle so a cursor can populate its PEP 249
    ``description`` without a client-side catalog (remote connections have
    none — the server parses the query and reports the output names).
    """

    ticket: int
    columns: tuple[str, ...]


class Transport(ABC):
    """The operations a connection needs from its execution backend."""

    #: Whether operations cross a process boundary (capability flag: remote
    #: transports cannot ship Python objects — prebuilt queries, UDFs).
    remote: bool = False
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
        profile: str,
        config: SkinnerConfig | None,
        forced_order: Sequence[str] | None,
        use_result_cache: bool,
        weight: float,
        priority: int,
        stream: bool = True,
    ) -> SubmitHandle:
        """Submit a query; ``config=None`` means the backend's default."""

    @abstractmethod
    def fetch_batch(self, ticket: int, max_rows: int | None) -> Table:
        """Next streamed batch as a table (no rows = result exhausted)."""

    def fetch(self, ticket: int, max_rows: int | None) -> list[tuple[Any, ...]]:
        """:meth:`fetch_batch` as a list of row tuples."""
        return self.fetch_batch(ticket, max_rows).row_tuples()

    @abstractmethod
    def poll(self, ticket: int) -> dict[str, Any]:
        """Non-blocking progress snapshot of a submission."""

    @abstractmethod
    def result(self, ticket: int) -> QueryResult:
        """The completed result (drives/waits until the query finishes)."""

    @abstractmethod
    def cancel(self, ticket: int) -> bool:
        """Cancel a queued or running submission."""

    @abstractmethod
    def forget(self, ticket: int) -> bool:
        """Drop a terminal submission's server-side bookkeeping."""

    @abstractmethod
    def execute(
        self,
        operation: str | Any,
        parameters: Sequence[Any] | Mapping[str, Any] | None,
        *,
        engine: str,
        profile: str,
        config: SkinnerConfig | None,
        forced_order: Sequence[str] | None,
        use_result_cache: bool,
    ) -> QueryResult:
        """Whole-result convenience path (submit + result + forget)."""

    # -- schema and transactions ----------------------------------------
    @abstractmethod
    def create_table(
        self, name: str, columns: Mapping[str, Sequence[Any]], *, replace: bool
    ) -> Table:
        """Create a table from a column mapping."""

    @abstractmethod
    def add_table(self, table: Table, *, replace: bool) -> None:
        """Register an existing table (shipped column-wise when remote)."""

    @abstractmethod
    def drop_table(self, name: str) -> None:
        """Remove a table."""

    @abstractmethod
    def load_csv(
        self, path: str | Path, table_name: str | None, *, replace: bool
    ) -> Table:
        """Load a CSV file (always read client-side) into a table."""

    def load_document(
        self,
        path: str | Path,
        table_name: str | None,
        *,
        format: str | None,
        replace: bool,
    ) -> Table:
        """Shred an XML/JSON document (client-side) into a node table.

        The default implementation works over any transport: the document
        is parsed and shredded in this process and the resulting node
        columns travel through :meth:`create_table` (column-wise over the
        wire when remote).  :class:`LocalTransport` overrides it to add the
        durable-catalog warm-start skip shared with :meth:`load_csv`.
        """
        from repro.docstore.shred import shred_document

        path = Path(path)
        name = table_name or path.stem
        return self.create_table(
            name, shred_document(path, format=format), replace=replace
        )

    @abstractmethod
    def register_udf(
        self,
        name: str,
        function: Callable[..., Any],
        *,
        cost: int,
        selectivity_hint: float,
        replace: bool,
    ) -> None:
        """Register a Python UDF (local transports only)."""

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
    """The in-process transport over a connection's own serving layer."""

    remote = False

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
        profile: str,
        config: SkinnerConfig | None,
        forced_order: Sequence[str] | None,
        use_result_cache: bool,
        weight: float,
        priority: int,
        stream: bool = True,
    ) -> SubmitHandle:
        conn = self._connection
        parsed = conn._resolve_query(operation, parameters)
        ticket = conn.server.submit(
            parsed,
            engine=engine,
            profile=profile,
            # Resolve against the connection's (reassignable) config, not
            # the server's construction-time snapshot.
            config=config or conn.config,
            forced_order=forced_order,
            use_result_cache=use_result_cache,
            weight=weight,
            priority=priority,
            tenant=self.tenant,
            stream=stream,
        )
        return SubmitHandle(ticket, tuple(parsed.output_names(conn.catalog)))

    def fetch_batch(self, ticket: int, max_rows: int | None) -> Table:
        return self._connection.server.fetch_batch(ticket, max_rows)

    def poll(self, ticket: int) -> dict[str, Any]:
        return self._connection.server.poll(ticket)

    def result(self, ticket: int) -> QueryResult:
        return self._connection.server.result(ticket)

    def cancel(self, ticket: int) -> bool:
        return self._connection.server.cancel(ticket)

    def forget(self, ticket: int) -> bool:
        return self._connection.server.forget(ticket)

    def execute(
        self,
        operation: str | Any,
        parameters: Sequence[Any] | Mapping[str, Any] | None,
        *,
        engine: str,
        profile: str,
        config: SkinnerConfig | None,
        forced_order: Sequence[str] | None,
        use_result_cache: bool,
    ) -> QueryResult:
        conn = self._connection
        parsed = conn._resolve_query(operation, parameters)
        return conn.server.execute(
            parsed,
            engine=engine,
            profile=profile,
            config=config or conn.config,
            forced_order=forced_order,
            use_result_cache=use_result_cache,
        )

    # -- schema and transactions ----------------------------------------
    def create_table(
        self, name: str, columns: Mapping[str, Sequence[Any]], *, replace: bool
    ) -> Table:
        conn = self._connection
        conn._before_mutation()
        conn.catalog.add_table(Table(name, columns), replace=replace)
        conn._invalidate()
        conn._after_mutation()
        # The registered table, not the transient one built above — a
        # durable catalog re-wraps columns as memory-mapped views.
        return conn.catalog.table(name)

    def add_table(self, table: Table, *, replace: bool) -> None:
        conn = self._connection
        conn._before_mutation()
        conn.catalog.add_table(table, replace=replace)
        conn._invalidate()
        conn._after_mutation()

    def drop_table(self, name: str) -> None:
        conn = self._connection
        conn._before_mutation()
        conn.catalog.drop_table(name)
        conn._invalidate()
        conn._after_mutation()

    def _warm_ingest(self, name: str, fingerprint: str) -> Table | None:
        """The table already ingested from identical bytes, else ``None``.

        Idempotent ingest on durable catalogs: when the recovered catalog
        already holds this table and remembers the same source-file
        fingerprint, the load is a no-op — this is what lets a warm start
        on a data_dir answer its first query without re-parsing any source
        file.  In-memory catalogs keep the strict contract (reloading an
        existing table requires ``replace=True``): nothing persists, so a
        duplicate load is a schema mistake, not a warm start.  Shared by
        the CSV and document ingest paths so both skip identically.
        """
        conn = self._connection
        if (
            conn.catalog.buffer_manager.durable
            and conn.catalog.has_table(name)
            and conn.catalog.ingest_fingerprint(name) == fingerprint
        ):
            return conn.catalog.table(name)
        return None

    def _ingest(self, name: str, table: Table, fingerprint: str, *,
                replace: bool) -> Table:
        """Register a freshly parsed table and remember its source bytes."""
        conn = self._connection
        conn._before_mutation()
        conn.catalog.add_table(table, replace=replace)
        conn.catalog.record_ingest(name, fingerprint)
        conn._invalidate()
        conn._after_mutation()
        return conn.catalog.table(name)

    def load_csv(
        self, path: str | Path, table_name: str | None, *, replace: bool
    ) -> Table:
        path = Path(path)
        name = table_name or path.stem
        fingerprint = file_fingerprint(path)
        warm = self._warm_ingest(name, fingerprint)
        if warm is not None:
            return warm
        return self._ingest(name, load_csv(path, table_name), fingerprint,
                            replace=replace)

    def load_document(
        self,
        path: str | Path,
        table_name: str | None,
        *,
        format: str | None,
        replace: bool,
    ) -> Table:
        from repro.docstore.shred import shred_document

        path = Path(path)
        name = table_name or path.stem
        fingerprint = file_fingerprint(path)
        warm = self._warm_ingest(name, fingerprint)
        if warm is not None:
            return warm
        table = Table(name, shred_document(path, format=format))
        return self._ingest(name, table, fingerprint, replace=replace)

    def register_udf(
        self,
        name: str,
        function: Callable[..., Any],
        *,
        cost: int,
        selectivity_hint: float,
        replace: bool,
    ) -> None:
        conn = self._connection
        conn._before_mutation()
        conn.udfs.register(
            name, function, cost=cost, selectivity_hint=selectivity_hint, replace=replace
        )
        conn._invalidate()
        conn._after_mutation()

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
            conn._invalidate()

    # -- lifecycle and health -------------------------------------------
    def stats(self) -> dict[str, Any]:
        return self._connection.server.stats()

    def close(self) -> None:
        pass  # nothing beyond the connection's own state to release
