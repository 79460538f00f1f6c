"""Buffer managers: the storage substrate behind the catalog.

Every engine in the repository reads base-table columns through
:class:`~repro.storage.column.Column` objects registered in a
:class:`~repro.storage.catalog.Catalog`.  The catalog in turn delegates
*where those columns physically live* to a :class:`BufferManager`:

* :class:`InMemoryBufferManager` — the historical behavior and the A/B
  reference: columns are plain in-process numpy arrays, nothing survives
  the process, snapshots are shallow dictionary copies.
* :class:`~repro.storage.durable.DurableBufferManager` — each table
  generation persists as one memory-mapped segment file under a
  ``data_dir`` with a JSON catalog and a write-ahead log; column views into
  the mapping are served lazily through a bounded :class:`PageCache`, and
  snapshots/restores are WAL marks instead of copies.

The execution layers never see the difference: rows and meter charges are
byte-identical across backends (property-tested in
``tests/test_storage_durability.py``), which is what makes the substrate
swappable without the engines noticing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.storage.table import Table


class PageCache:
    """A bounded LRU cache of materialized column arrays.

    The durable backend serves every physical-array access through one of
    these: a hit returns the view already made, a miss makes one over the
    table's mapped segment (and may evict least-recently-used entries to
    stay under the byte capacity).  A mapping is address space; the pool
    bounds and counts the views, whose pages are what gets touched.
    Eviction statistics are exposed for tests and capacity tuning — an
    eviction storm on a hot query means ``buffer_pool_bytes`` is too small
    for the working set.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self._capacity = max(0, int(capacity_bytes))
        self._entries: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, loader: Callable[[], np.ndarray]) -> np.ndarray:
        """The cached array for ``key``, loading (and caching) on a miss."""
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        array = loader()
        self._entries[key] = array
        self._bytes += int(array.nbytes)
        self._evict()
        return array

    def _evict(self) -> None:
        while self._bytes > self._capacity and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= int(evicted.nbytes)
            self.evictions += 1

    def invalidate(self, key: Hashable) -> None:
        """Drop ``key``'s entry and every entry keyed ``(key, ...)`` — the
        views into one segment, once its file is unlinked."""
        for held in [
            held for held in self._entries
            if held == key or (isinstance(held, tuple) and held[0] == key)
        ]:
            self._bytes -= int(self._entries.pop(held).nbytes)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()
        self._bytes = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters and current occupancy."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "cached_bytes": self._bytes,
            "capacity_bytes": self._capacity,
        }


class BufferManager(ABC):
    """Where a catalog's tables physically live.

    The catalog forwards every state transition here — registration, drops,
    ingest fingerprints, transaction boundaries — and keeps only the
    name-to-:class:`~repro.storage.table.Table` mapping itself.  A backend
    may rewrite registered tables (the durable one re-wraps columns as lazy
    views of a mapped file), which is why :meth:`register_table` returns the
    table the catalog must actually expose.
    """

    #: Whether tables survive the process.
    durable: bool = False

    @abstractmethod
    def bootstrap(self) -> dict[str, Table]:
        """Open (and, if durable, recover) the stored tables."""

    @abstractmethod
    def register_table(self, table: Table, *, replace: bool = False) -> Table:
        """Persist a table's columns; returns the table to register."""

    @abstractmethod
    def drop_table(self, name: str) -> None:
        """Record a table drop."""

    @abstractmethod
    def record_ingest(self, name: str, fingerprint: str) -> None:
        """Remember the source fingerprint of an ingested table."""

    @abstractmethod
    def ingest_fingerprint(self, name: str) -> str | None:
        """The recorded ingest fingerprint of a table, if any."""

    @abstractmethod
    def snapshot(self, tables: dict[str, Table]) -> Any:
        """An opaque restorable mark of the current schema state."""

    @abstractmethod
    def restore(self, token: Any) -> dict[str, Table]:
        """Roll state back to a :meth:`snapshot` mark; returns the tables."""

    @abstractmethod
    def commit(self) -> None:
        """Make every mutation since the last commit durable."""

    def cache_stats(self) -> dict[str, int] | None:
        """Page-cache statistics (``None`` for backends without one)."""
        return None

    def close(self) -> None:
        """Release backend resources (checkpoint, close handles)."""


class InMemoryBufferManager(BufferManager):
    """The historical RAM-resident backend (and the A/B reference).

    Tables are whatever :class:`~repro.storage.table.Table` objects the
    caller registered; snapshots are shallow copies (tables are immutable,
    so a copied name map captures the full state); commits are no-ops
    because nothing outlives the process.  Ingest fingerprints are not
    kept: no file load can be a warm start when nothing persisted.
    """

    durable = False

    def bootstrap(self) -> dict[str, Table]:
        return {}

    def register_table(self, table: Table, *, replace: bool = False) -> Table:
        return table

    def drop_table(self, name: str) -> None:
        pass

    def record_ingest(self, name: str, fingerprint: str) -> None:
        pass

    def ingest_fingerprint(self, name: str) -> str | None:
        return None

    def snapshot(self, tables: dict[str, Table]) -> Any:
        return dict(tables)

    def restore(self, token: Any) -> dict[str, Table]:
        return dict(token)

    def commit(self) -> None:
        pass
