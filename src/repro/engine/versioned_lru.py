"""One versioned, byte-bounded LRU for every cache of derived values.

SkinnerDB keeps no statistics (paper §1).  Across statements it reuses what
pre-processing built (filtered tables and join maps, §4.5) and, when
serving, results and learned join orders.  Each is derived from some
tables' rows, which :meth:`Catalog.version
<repro.storage.catalog.Catalog.version>` names for good, so each lives in a
:class:`VersionedLru` under one rule: an entry keeps its tables' versions
from when it was put in and is stale once they moved.  No lookup returns a
stale entry: the first operation after the catalog's ``latest_version`` (or
the UDF registry's version, for a cache given one) moved drops them all at
once.  An entry is charged once, when put, its array bytes plus
:data:`ENTRY_BYTES`; the bytes held never exceed :data:`MAX_BYTES`, least
recently used out first, and a value larger than that evicts nothing.

Like the serving layer that drives it, the class takes no locks.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any, NamedTuple

from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog

#: Bytes one cache holds, entry charges included.
MAX_BYTES = 32 * 2**20

#: What every entry is charged beyond its arrays: tracemalloc measures a
#: parsed statement at 2-7 KB on the end-to-end workloads.
ENTRY_BYTES = 8 * 2**10


class Entry(NamedTuple):
    """``value``, derived from ``tables`` at ``versions``, charged ``nbytes``."""

    value: Any
    tables: tuple[str, ...]
    versions: tuple
    nbytes: int


class VersionedLru:
    """Values derived from ``catalog``'s tables, and from ``udfs``' functions
    where given, dropped once those move."""

    def __init__(self, catalog: Catalog, udfs: UdfRegistry | None = None) -> None:
        self._catalog = catalog
        self._udfs = udfs
        #: key -> entry, least recently used first.
        self._entries: OrderedDict[Hashable, Entry] = OrderedDict()
        #: The catalog's and the registry's versions at the last drop of
        #: stale entries (-1: none yet).
        self._latest = self._udf_version = -1
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        #: Stale entries dropped.
        self.invalidations = 0

    def __len__(self) -> int:
        self._sync()
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes charged for the entries held."""
        self._sync()
        return self._nbytes

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value kept under ``key``, now most recently used, or ``default``."""
        self._sync()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.value

    def put(self, key: Hashable, value: Any, tables: tuple[str, ...], nbytes: int = 0) -> None:
        """Keep ``value``, derived from the current rows of ``tables`` and
        holding ``nbytes`` of arrays, unless it alone exceeds the bound."""
        self._sync()
        old = self._entries.pop(key, None)
        if old is not None:
            self._nbytes -= old.nbytes
        nbytes += ENTRY_BYTES
        if nbytes > MAX_BYTES:
            return
        self._entries[key] = Entry(value, tables, self.versions(tables), nbytes)
        self._nbytes += nbytes
        while self._nbytes > MAX_BYTES:
            self._nbytes -= self._entries.popitem(last=False)[1].nbytes

    def counters(self) -> dict[str, int]:
        """Entry count plus lifetime hit, miss and invalidation counters."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    def versions(self, tables: tuple[str, ...]) -> tuple:
        """The UDF registry's version (0 without one), then each table's
        (``None`` if absent): what an entry over ``tables`` is derived from."""
        catalog = self._catalog
        udfs = self._udfs.version if self._udfs is not None else 0
        return (udfs, *(catalog.version(name) if catalog.has_table(name) else None
                        for name in tables))

    def _sync(self) -> None:
        """Drop every stale entry, once per move of the versions."""
        # Every operation comes here first: the common case reads two counters.
        catalog, udfs = self._catalog, self._udfs
        udf_version = udfs.version if udfs is not None else 0
        if catalog.latest_version == self._latest and udf_version == self._udf_version:
            return
        self._latest, self._udf_version = catalog.latest_version, udf_version
        stale = [key for key, entry in self._entries.items()
                 if self.versions(entry.tables) != entry.versions]
        for key in stale:
            self._nbytes -= self._entries.pop(key).nbytes
        self.invalidations += len(stale)
