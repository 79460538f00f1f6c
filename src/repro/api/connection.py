"""PEP 249-style connections over the repro engines — local or remote.

:func:`connect` opens a :class:`Connection` in one of two forms:

* ``connect(config)`` (or no arguments) — the historical in-process form:
  the connection owns a catalog, a UDF registry, the serving layer, and the
  engine registry the session resolves ``engine=`` names against.
* ``connect("repro://host:port/?tenant=...")`` — a DSN: the connection
  speaks the length-prefixed wire protocol of :mod:`repro.net`
  against a live server; the catalog, UDFs, and scheduling live
  server-side and this process only holds a socket.

Either way what crosses the local/remote boundary goes through one
:class:`~repro.api.transport.Transport`, and what is built from its verbs
(``execute``, ``create_table``, ``load_csv``, ``load_document``) is written
once here, so cursors, schema mutations, and transactions behave
identically over both forms (capability differences — no Python UDFs or
prebuilt :class:`Query` objects over the wire — raise
:class:`~repro.errors.InterfaceError`; see ``docs/api.md``).

Transactions cover *schema mutations*: ``create_table`` / ``add_table`` /
``load_csv`` / ``drop_table`` / ``register_udf`` apply immediately (queries
in the same session see them), and ``rollback()`` restores the catalog and
UDF registry to their state at the last ``commit()``.  Query execution is
read-only and unaffected by transaction boundaries.  ``autocommit=True``
turns every mutation into its own committed transaction.  On a
remote connection the transaction verbs act on the server's shared session
(see ``docs/serving.md``).

Use-after-close raises :class:`~repro.errors.InterfaceError` (a
:class:`~repro.errors.ReproError` subclass) from every connection and
cursor method, and ``close()`` is idempotent — both per PEP 249.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any, TypeVar

from repro.api.cursor import Cursor
from repro.api.registry import DEFAULT_REGISTRY, EngineContext, EngineRegistry
from repro.api.settings import SETTINGS, resolve_settings
from repro.api.transport import LocalTransport, Transport
from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.errors import InterfaceError, OperationalError, ReproError
from repro.engine.statement_cache import StatementCache
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryResult
from repro.storage import loader
from repro.storage.catalog import Catalog
from repro.storage.table import Table

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.serving.server import QueryServer

_T = TypeVar("_T")

#: PEP 249 module globals.
apilevel = "2.0"
#: Threads may share the module but not connections (the server is a
#: cooperative single-threaded scheduler by design).
threadsafety = 1
#: Default parameter style; ``:name`` (``named``) is accepted as well.
paramstyle = "qmark"


def connect(
    config: SkinnerConfig | str = DEFAULT_CONFIG,
    *,
    registry: EngineRegistry | None = None,
    autocommit: bool = False,
    tenant: str | None = None,
    timeout: float | None = None,
    workers: int | None = None,
    data_dir: str | Path | None = None,
    engine: str | None = None,
) -> Connection:
    """Open a connection — to a fresh in-memory database, or to a server.

    The first argument is either a :class:`~repro.config.SkinnerConfig`
    (in-process database, the historical form) or a DSN string
    ``repro://host:port/?tenant=name&timeout=seconds&workers=N`` selecting
    the remote transport.  ``tenant``, ``timeout``, and ``workers`` keyword
    arguments override the DSN's query parameters; for an in-process
    connection ``tenant`` tags this connection's submissions in the serving
    layer's quota accounting and ``timeout`` is ignored (there is no wire
    to time out).  ``registry`` and ``autocommit`` apply to in-process
    connections only (a remote server resolves engines and commits against
    its own state).

    ``workers`` (default intra-query parallelism), ``data_dir`` (durable
    storage root; ``None`` everywhere keeps the in-memory catalog) and
    ``engine`` (default engine for executions that name none) are the
    *connection settings* of :mod:`repro.api.settings` (``docs/api.md``):
    each resolves keyword > environment variable > DSN parameter > config
    field, and a bad value or an unknown engine raises
    :class:`~repro.errors.InterfaceError` here, at connect time.  Remotely
    they travel in the handshake; the server checks the engine against
    *its* registry and refuses a ``data_dir`` other than its own.

    >>> import repro.api as db_api
    >>> conn = db_api.connect()
    >>> conn.create_table("r", {"id": [1, 2], "x": [10, 20]})  # doctest: +ELLIPSIS
    Table(...)
    >>> cur = conn.cursor()
    >>> cur.execute("SELECT r.x FROM r WHERE r.id = ?", (2,))  # doctest: +ELLIPSIS
    <repro.api.cursor.Cursor ...>
    >>> cur.fetchall()
    [(20,)]
    """
    keywords = {"workers": workers, "data_dir": data_dir, "engine": engine}
    if isinstance(config, str):
        from repro.net.client import RemoteTransport, parse_dsn

        host, port, options = parse_dsn(config)
        transport = RemoteTransport(
            host,
            port,
            tenant=tenant if tenant is not None else (options.get("tenant") or "default"),
            timeout=timeout if timeout is not None else options.get("timeout"),
            settings=resolve_settings(keywords, dsn=options),
        )
        return Connection(transport=transport)
    resolved = resolve_settings(keywords, config=config)
    config = config.with_overrides(
        **{setting.config_field: resolved[setting.name] for setting in SETTINGS}
    )
    (registry if registry is not None else DEFAULT_REGISTRY).resolve(config.default_engine)
    return Connection(
        config,
        registry=registry,
        autocommit=autocommit,
        tenant=tenant if tenant is not None else "default",
    )


def _build_buffer_manager(config: SkinnerConfig):
    """The storage backend a local connection's catalog runs on.

    ``config.data_dir`` selects durable storage; ``None`` (the default)
    returns ``None`` so :class:`~repro.storage.catalog.Catalog` builds its
    historical in-memory backend.  Recovery runs inside the catalog's
    constructor, so a corrupt or version-mismatched directory fails the
    ``connect()`` call itself.
    """
    if config.data_dir is None:
        return None
    from repro.storage.durable import DurableBufferManager

    return DurableBufferManager(config.data_dir, pool_bytes=config.buffer_pool_bytes)


class Connection:
    """A session: schema + UDFs + serving layer, behind one transport.

    Parameters
    ----------
    config:
        Default :class:`~repro.config.SkinnerConfig` for executions on this
        connection (including the ``serving_*`` sizing knobs).  Unused when
        ``transport`` is given (the server's own config applies).
    registry:
        Engine registry for resolving ``engine=`` names; defaults to the
        process-wide registry, so engines added via
        :func:`repro.api.register_engine` are available on every connection.
    autocommit:
        When true, schema mutations commit immediately and ``rollback()``
        is a no-op.
    tenant:
        Tenant identity for the serving layer's quota accounting.
    transport:
        A remote :class:`~repro.api.transport.Transport`; when given, the
        connection holds no local catalog/UDFs/server and every operation
        crosses the wire.  Use :func:`connect` with a DSN rather than
        constructing one directly.
    """

    def __init__(
        self,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        registry: EngineRegistry | None = None,
        autocommit: bool = False,
        tenant: str = "default",
        transport: Transport | None = None,
    ) -> None:
        self._remote = transport is not None
        if transport is not None:
            self.catalog = None
            self.udfs = None
            self.config = None
            self.registry = None
            self.autocommit = False
            self._transport: Transport = transport
        else:
            self.catalog = Catalog(_build_buffer_manager(config))
            self.udfs = UdfRegistry()
            self.config = config
            self.autocommit = autocommit
            self.registry = registry if registry is not None else DEFAULT_REGISTRY
            self._transport = LocalTransport(self, tenant=tenant)
        self._server: QueryServer | None = None
        #: DSN of the :class:`~repro.net.server.ReproServer` serving this
        #: connection while it runs (``None`` otherwise); local statements
        #: are refused meanwhile (:class:`~repro.api.transport.LocalTransport`).
        self.served_at: str | None = None
        self._closed = False
        # Opaque catalog snapshot token of the open transaction (a table
        # mapping in-memory, a WAL offset with durable storage) — None
        # outside transactions.
        self._txn_tables: Any | None = None
        self._txn_udfs: dict[str, Any] | None = None
        self._cursors: list[Cursor] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    @property
    def is_remote(self) -> bool:
        """Whether operations cross a process boundary (DSN connection)."""
        return self._remote

    @property
    def transport(self) -> Transport:
        """The transport every operation on this connection routes through."""
        return self._transport

    @property
    def tenant(self) -> str:
        """Tenant identity this connection's submissions are accounted to."""
        return self._transport.tenant

    @property
    def default_engine(self) -> str:
        """Engine used when a query names none explicitly.

        The ``engine`` connection setting (:meth:`info`): locally the
        config's ``default_engine`` after :func:`connect`'s resolution,
        remotely the name the server acknowledged in the handshake.
        """
        return self._settings()["engine"]

    def _settings(self) -> dict[str, Any]:
        """Effective value of every connection setting, by setting name."""
        if self._remote:
            return dict(self._transport.settings)
        return {s.name: getattr(self.config, s.config_field) for s in SETTINGS}

    def close(self) -> None:
        """Close the connection: roll back pending schema changes, close
        cursors, release the transport.  Idempotent (PEP 249)."""
        if self._closed:
            return
        try:
            self.rollback()
            for cursor in list(self._cursors):
                cursor.close()
        except OperationalError:
            pass  # a dead wire must not keep the handle open client-side
        finally:
            self._closed = True
            try:
                self._transport.close()
            except OperationalError:
                pass
            if self.catalog is not None:
                # Release external-DBMS mirrors (scratch sqlite files)
                # before the catalog itself.
                from repro.external.engines import close_adapters

                close_adapters(self.catalog)
                self.catalog.close()
                # The connection owns its catalog: a closed handle must not
                # pin the parses, filters and join maps built on it.
                self.catalog.statement_cache = None

    def __enter__(self) -> Connection:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # PEP 249 context managers commit on success, roll back on error.
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def _check_local(self, operation: str) -> None:
        if self._remote:
            raise InterfaceError(
                f"{operation} is not available on a remote connection "
                "(the catalog and engines live server-side)"
            )

    # ------------------------------------------------------------------
    # transactions over schema mutations
    # ------------------------------------------------------------------
    def _mutate(self, change: Callable[[], _T]) -> _T:
        """Run one schema or UDF change inside the transaction bracket.

        Locally the first mutation opens an implicit transaction (PEP 249),
        and on autocommit connections the change is its own committed
        transaction — without that commit durable storage would roll it
        back on reopen.  A remote server brackets the change on its own
        connection.
        """
        self._check_open()
        if self._remote:
            return change()
        if not self.autocommit and self._txn_tables is None:
            self._txn_tables = self.catalog.snapshot()
            self._txn_udfs = self.udfs.snapshot()
        outcome = change()
        if self.autocommit:
            self.catalog.commit()
        return outcome

    def commit(self) -> None:
        """Make schema mutations since the last commit permanent."""
        self._check_open()
        self._transport.commit()

    def rollback(self) -> None:
        """Undo schema mutations since the last commit."""
        if self._closed:
            return
        self._transport.rollback()

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------
    def create_table(
        self, name: str, columns: Mapping[str, Sequence[Any]], *, replace: bool = False
    ) -> Table:
        """Create a table from a column name to value-list mapping."""
        return self._mutate(
            lambda: self._transport.add_table(Table(name, columns), replace=replace)
        )

    def add_table(self, table: Table, *, replace: bool = False) -> None:
        """Register an existing :class:`Table`."""
        self._mutate(lambda: self._transport.add_table(table, replace=replace))

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        self._mutate(lambda: self._transport.drop_table(name))

    def load_csv(
        self,
        path: str | Path,
        table_name: str | None = None,
        *,
        replace: bool = False,
    ) -> Table:
        """Load a CSV file into a new table (``replace=True`` to reload).

        The file is always read client-side; over a remote transport the
        parsed columns are shipped to the server.
        """
        return self._ingest(path, table_name, loader.load_csv, replace=replace)

    def load_document(
        self,
        path: str | Path,
        table_name: str | None = None,
        *,
        format: str | None = None,
        replace: bool = False,
    ) -> Table:
        """Shred an XML or JSON document into a relational node table.

        The document is parsed client-side and shredded into one row per
        node (pre/post order, last descendant, parent, depth, kind/tag,
        typed value columns — see ``docs/docstore.md``); XPath-style axis queries over the
        table are built with :mod:`repro.docstore.axes`.  ``format`` is
        ``"xml"`` or ``"json"``, inferred from the file suffix when
        ``None``.  Like :meth:`load_csv`, re-loading identical bytes into a
        durable catalog is a warm-start no-op, and the parsed columns ship
        over the wire on remote connections.
        """
        from repro.docstore.shred import shred_document

        return self._ingest(
            path, table_name,
            lambda file, name: Table(name, shred_document(file, format=format)),
            replace=replace,
        )

    def _ingest(
        self,
        path: str | Path,
        table_name: str | None,
        parse: Callable[[Path, str], Table],
        *,
        replace: bool,
    ) -> Table:
        """Parse a file client-side and register the table it yields.

        Idempotent ingest on durable catalogs: when the catalog already
        holds the table and remembers the same source-file fingerprint, the
        load is a no-op — this is what lets a warm start on a data_dir
        answer its first query without re-parsing any source file.  Only
        the durable backend remembers fingerprints, so an in-memory catalog
        keeps the strict contract (reloading an existing table requires
        ``replace=True``): nothing persists, so a duplicate load is a
        schema mistake, not a warm start.
        """
        self._check_open()
        path = Path(path)
        name = table_name or path.stem
        if self._remote:
            table = parse(path, name)
            return self._mutate(lambda: self._transport.add_table(table, replace=replace))
        catalog = self.catalog
        fingerprint = loader.file_fingerprint(path)
        if catalog.has_table(name) and catalog.ingest_fingerprint(name) == fingerprint:
            return catalog.table(name)
        table = parse(path, name)

        def register() -> Table:
            registered = self._transport.add_table(table, replace=replace)
            catalog.record_ingest(name, fingerprint)
            return registered

        return self._mutate(register)

    def register_udf(
        self,
        name: str,
        function: Callable[..., Any],
        *,
        cost: int = 1,
        selectivity_hint: float = 0.33,
        replace: bool = False,
    ) -> None:
        """Register a user-defined function callable from SQL.

        Local connections only: Python callables cannot be shipped over
        the wire (a remote connection raises
        :class:`~repro.errors.InterfaceError`; register them on the
        server's own connection).
        """
        self._check_open()
        self._check_local("registering a Python UDF")
        self._mutate(lambda: self.udfs.register(
            name, function, cost=cost, selectivity_hint=selectivity_hint, replace=replace
        ))

    # ------------------------------------------------------------------
    # statistics (used by the traditional baselines only)
    # ------------------------------------------------------------------
    def statistics(self) -> StatisticsCatalog:
        """The optimizer statistics of the catalog as it stands."""
        self._check_open()
        self._check_local("statistics()")
        return StatisticsCatalog.of(self.catalog)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def server(self) -> QueryServer:
        """The serving layer over this connection (created lazily)."""
        self._check_open()
        self._check_local("server")
        if self._server is None:
            from repro.serving.server import QueryServer

            self._server = QueryServer(
                self.catalog, self.udfs, self.config, registry=self.registry
            )
        return self._server

    def cursor(self) -> Cursor:
        """A new cursor over this connection (PEP 249)."""
        self._check_open()
        cursor = Cursor(self)
        self._cursors.append(cursor)
        return cursor

    def parse(
        self,
        sql: str,
        params: Sequence[Any] | Mapping[str, Any] | None = None,
    ) -> Query:
        """Parse SQL text (with optional bound parameters) into a query.

        The parse is the catalog's
        :class:`~repro.engine.statement_cache.StatementCache` entry for this
        text and these parameters while the tables it names are unchanged.
        """
        self._check_open()
        self._check_local("parse()")
        return StatementCache.of(self.catalog).parse(sql, params)

    def stats(self) -> dict[str, Any]:
        """Serving-layer metrics: queue depths, tenant shares, cache hits.

        Works over both transports — remotely this is the wire protocol's
        metrics/health verb.
        """
        self._check_open()
        return self._transport.stats()

    def info(self) -> dict[str, Any]:
        """Connection facts: transport kind, tenant, and the settings.

        Every row of :data:`repro.api.settings.SETTINGS` (``workers``,
        ``data_dir``, ``engine``) is echoed under its name with its
        effective value: locally the resolved config field, remotely what
        the server granted.  ``engines`` lists the resolvable engine names
        (local connections only — a remote server owns its registry).
        ``caches`` echoes the serving layer's result- and join-order-cache
        counters (hits/misses/invalidations): live values once this
        connection's server exists, zeroed counters before the first
        execution, and ``None`` remotely (read :meth:`stats` for the
        server-side numbers).
        """
        self._check_open()
        info = {"remote": self._remote, "tenant": self.tenant, **self._settings()}
        if self._remote:
            return {**info, "engines": None, "autocommit": False, "caches": None}
        assert self.registry is not None
        if self._server is not None:
            caches = {
                "result": self._server.result_cache.counters(),
                "order": self._server.order_cache.counters(),
            }
        else:  # no execution yet — report zeroed counters, don't boot serving
            zeroed = {"entries": 0, "hits": 0, "misses": 0, "invalidations": 0}
            caches = {"result": dict(zeroed), "order": dict(zeroed)}
        return {
            **info,
            "engines": self.registry.names(),
            "autocommit": self.autocommit,
            "caches": caches,
        }

    def execute(
        self,
        query: str | Query,
        *,
        engine: str | None = None,
        config: SkinnerConfig | None = None,
        use_result_cache: bool = True,
        params: Sequence[Any] | Mapping[str, Any] | None = None,
    ) -> QueryResult:
        """Execute a query through the serving layer and return the result.

        This is the whole-result convenience path (cursors stream); it
        resolves the engine through the serving side's registry and
        benefits from the serving caches and the join-order warm start.
        ``engine=None`` selects the connection's :attr:`default_engine`.
        """
        self._check_open()
        handle = self._transport.submit(
            query,
            params,
            engine=engine if engine is not None else self.default_engine,
            config=config,
            use_result_cache=use_result_cache,
            stream=False,
        )
        try:
            return self._transport.result(handle.ticket)
        finally:
            # One-shot callers never poll afterwards; dropping the session
            # keeps a long-lived server's memory bounded by its caches.
            try:
                self._transport.release(handle.ticket)
            except OperationalError:
                pass  # the wire died after the result round trip

    def execute_direct(
        self,
        query: str | Query,
        *,
        engine: str | None = None,
        config: SkinnerConfig | None = None,
        params: Sequence[Any] | Mapping[str, Any] | None = None,
    ) -> QueryResult:
        """Execute on a directly constructed engine (no serving layer).

        The engine-direct reference the equivalence tests and benchmarks
        compare the serving path against, and the way to bypass admission
        control and the caches; engines are
        resolved through the same registry as :meth:`execute`, so both
        paths reject an unknown engine with the identical error.  Local
        connections only — a remote server always serves through its
        scheduler.
        """
        self._check_open()
        self._check_local("execute_direct()")
        parsed = self._resolve_query(query, params)
        spec = self.registry.resolve(engine if engine is not None else self.default_engine)
        context = EngineContext(self.catalog, self.udfs, config or self.config)
        return spec.execute(context, parsed)

    def _resolve_query(
        self,
        query: str | Query,
        params: Sequence[Any] | Mapping[str, Any] | None,
    ) -> Query:
        """Parse SQL text with bound params; pass prebuilt queries through.

        Parameters alongside a prebuilt :class:`Query` are rejected (the
        query's literal values are already baked in) — silently ignoring
        them would drop the caller's bindings without a trace.
        """
        if isinstance(query, str):
            # What parse() checks first, its callers have: an open, local
            # connection.
            return StatementCache.of(self.catalog).parse(query, params)
        if params:
            raise ReproError(
                "parameters require SQL text; a prebuilt Query has its "
                "values baked in"
            )
        return query

    def _forget_cursor(self, cursor: Cursor) -> None:
        if cursor in self._cursors:
            self._cursors.remove(cursor)
