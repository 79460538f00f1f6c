"""The catalog: the set of tables known to a database instance."""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.errors import CatalogError, SchemaError
from repro.storage.buffer import BufferManager, InMemoryBufferManager
from repro.storage.table import Table


class Catalog:
    """Registry of tables.

    Every table has a *version* (:meth:`version`), drawn from one counter
    that only counts up: registering, replacing or dropping a table and
    restoring a snapshot give the tables they touch versions no table of
    this catalog had before, so ``(name, version)`` names one table state
    for good, and a dropped and recreated table never matches what was
    built on its predecessor.  Whatever is derived from a table's rows is
    keyed on that pair.

    The catalog deliberately *computes* nothing from its tables.  Optimizer
    statistics are collected by
    :meth:`repro.optimizer.statistics.StatisticsCatalog.of` for the
    traditional optimizer baselines and Skinner-H only, never for the pure
    Skinner strategies (SkinnerDB "maintains no data statistics", paper §1),
    and the parses, filtered positions and join maps statements reuse are
    kept by :meth:`repro.engine.statement_cache.StatementCache.of`; the
    catalog merely gives each of them a slot (:attr:`cached_statistics`,
    :attr:`statement_cache`).

    *Where* tables physically live — RAM arrays or memory-mapped files
    under a ``data_dir`` — is the buffer manager's business: the catalog
    forwards every state transition (registration, drops, transaction
    marks, commits) to it and keeps only the name-to-table mapping.  With
    a durable backend, :meth:`bootstrap`-recovered tables appear here on
    construction and :meth:`commit` makes mutations survive the process.
    """

    def __init__(self, buffer_manager: BufferManager | None = None) -> None:
        self._buffer = buffer_manager if buffer_manager is not None else InMemoryBufferManager()
        self._tables: dict[str, Table] = self._buffer.bootstrap()
        #: The newest version given to any table, dropped ones included: it
        #: moves with every change to the set of tables or their rows.
        self.latest_version = 0
        self._versions: dict[str, int] = {}
        for name in self._tables:
            self._bump(name)
        #: Owned by ``StatisticsCatalog.of``.
        self.cached_statistics: Any = None
        #: Owned by ``StatementCache.of``.
        self.statement_cache: Any = None

    @property
    def buffer_manager(self) -> BufferManager:
        """The storage backend serving this catalog's tables."""
        return self._buffer

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def add_table(self, table: Table, *, replace: bool = False) -> None:
        """Register a table; raises if the name exists unless ``replace``,
        and for a table with no columns (``SELECT *`` names at least one)."""
        if not table.column_names:
            raise SchemaError(f"table {table.name!r} has no columns")
        if table.name in self._tables and not replace:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = self._buffer.register_table(table, replace=replace)
        self._bump(table.name)

    def drop_table(self, name: str) -> None:
        """Remove a table."""
        if name not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        self._buffer.drop_table(name)
        del self._tables[name]
        self._bump(name)
        del self._versions[name]

    def table(self, name: str) -> Table:
        """Return a table by name."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def version(self, name: str) -> int:
        """The version of a table: it moves whenever the table is replaced,
        dropped and recreated, or put back to other rows by a rollback."""
        try:
            return self._versions[name]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def _bump(self, name: str) -> None:
        self.latest_version += 1
        self._versions[name] = self.latest_version

    def has_table(self, name: str) -> bool:
        """Whether a table with this name is registered."""
        return name in self._tables

    def table_names(self) -> list[str]:
        """All registered table names."""
        return list(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    # ------------------------------------------------------------------
    # ingest fingerprints (idempotent load_csv)
    # ------------------------------------------------------------------
    def record_ingest(self, name: str, fingerprint: str) -> None:
        """Remember the source-file fingerprint behind an ingested table."""
        self._buffer.record_ingest(name, fingerprint)

    def ingest_fingerprint(self, name: str) -> str | None:
        """The recorded ingest fingerprint of a table, if any."""
        return self._buffer.ingest_fingerprint(name)

    # ------------------------------------------------------------------
    # snapshots (schema transactions)
    # ------------------------------------------------------------------
    def snapshot(self) -> Any:
        """An opaque restorable mark of the current schema state.

        The in-memory backend returns a shallow copy of the name-to-table
        mapping (tables are immutable, so that captures the full state);
        the durable backend returns a write-ahead-log byte offset, so no
        state is copied at all.  The PEP 249 connection takes one at the
        first mutation of a transaction and rolls back to it via
        :meth:`restore`.
        """
        return self._buffer.snapshot(self._tables)

    def restore(self, snapshot: Any) -> None:
        """Reset the catalog to a previously taken :meth:`snapshot`.

        A table whose :class:`Table` object the restore leaves in place keeps
        its version, so rolling back a write to one table keeps what was
        derived from its untouched siblings.  Every other table, and every
        table the restore drops, moves.  The durable backend re-opens every
        table on restore, so there every table gets a new version.
        """
        before = self._tables
        self._tables = self._buffer.restore(snapshot)
        for name in dict.fromkeys([*before, *self._tables]):
            if self._tables.get(name) is not before.get(name):
                self._bump(name)
        self._versions = {name: self._versions[name] for name in self._tables}

    def commit(self) -> None:
        """Make every mutation since the last commit durable."""
        self._buffer.commit()

    def close(self) -> None:
        """Release the storage backend (checkpoint + close handles)."""
        self._buffer.close()
