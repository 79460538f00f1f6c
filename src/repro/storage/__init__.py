"""Column-store storage substrate.

This package provides the column store that every engine in the repository
(traditional executor, Skinner variants, Eddies, ...) runs on top of:

* :class:`~repro.storage.column.Column` — a typed, immutable column holding
  64-bit integers, floats, or dictionary-encoded strings.
* :class:`~repro.storage.table.Table` — a named collection of equal-length
  columns.
* :class:`~repro.storage.catalog.Catalog` — the set of tables known to a
  database instance.
* :class:`~repro.storage.buffer.BufferManager` — where those tables
  physically live: :class:`~repro.storage.buffer.InMemoryBufferManager`
  keeps the historical RAM-resident semantics, while
  :class:`~repro.storage.durable.DurableBufferManager` persists columns as
  memory-mapped files under a ``data_dir`` with a JSON catalog and a
  write-ahead log (see ``docs/storage.md``).
* :mod:`~repro.storage.loader` — CSV import/export helpers.
"""

from repro.storage.buffer import BufferManager, InMemoryBufferManager, PageCache
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.durable import DurableBufferManager
from repro.storage.loader import file_fingerprint, load_csv, parse_count, save_csv
from repro.storage.table import Table
from repro.storage.wal import WriteAheadLog

__all__ = [
    "BufferManager",
    "Catalog",
    "Column",
    "ColumnType",
    "DurableBufferManager",
    "InMemoryBufferManager",
    "PageCache",
    "Table",
    "WriteAheadLog",
    "file_fingerprint",
    "load_csv",
    "parse_count",
    "save_csv",
]
