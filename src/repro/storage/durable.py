"""The durable buffer manager: memory-mapped segments, catalog, and WAL.

On-disk layout under ``data_dir`` (full format in ``docs/storage.md``)::

    data_dir/
      catalog.json     # checkpoint: schemas, column locators, fingerprints
      wal.log          # record-structured WAL since the last checkpoint
      cols/
        <table>-<generation>.seg   # raw little-endian int64/float64 columns
                                   # end to end, then the dictionaries as JSON

A write is ordered segment ``write`` + fsync → WAL record → ``cols/`` fsync
→ commit record + fsync, and ``catalog.json`` is replaced atomically at
checkpoints — so a process killed at any instant reopens to exactly the
last committed transaction:

1. load ``catalog.json`` (the checkpoint state);
2. replay the WAL's committed prefix on top of it; discard any tail after
   the last commit record (an uncommitted transaction or a torn write);
3. checkpoint the recovered state, truncate the WAL, and delete segments
   no table references (payloads of torn transactions).

A segment is mapped once, when its :class:`Table` is built, and every reader
that holds the table holds the mapping — which is why a commit may unlink
the generations it replaced straight away.  The mapping is address space;
what the bounded :class:`~repro.storage.buffer.PageCache` holds and counts
are the column *views* into it, so the working set — not the dataset — must
fit the buffer pool, and a fresh process answers its first query without
re-parsing CSVs (ingest fingerprints make ``load_csv`` idempotent).
Snapshots for schema transactions are WAL byte offsets: rollback truncates
the log to the mark and rebuilds state by replaying it, instead of deep
copies.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import InterfaceError, SchemaError
from repro.storage.buffer import BufferManager, PageCache
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table
from repro.storage.wal import WriteAheadLog

#: On-disk format version; bumped on layout changes.  Opening a data_dir
#: written by a different version fails fast instead of misreading it.
FORMAT_VERSION = 2

_CATALOG_FILE = "catalog.json"
_WAL_FILE = "wal.log"
_COLS_DIR = "cols"

#: Default checkpoint threshold: commit() folds the WAL into catalog.json
#: once the log outgrows this, bounding replay work on the next open.
_CHECKPOINT_BYTES = 4 * 2**20

_DTYPE_OF_CTYPE = {
    ColumnType.INT: "<i8",
    ColumnType.FLOAT: "<f8",
    ColumnType.STRING: "<i8",  # dictionary codes
}


class DurableBufferManager(BufferManager):
    """Tables as mapped segment files + JSON catalog + write-ahead log.

    Parameters
    ----------
    data_dir:
        Root directory; created (with parents) when missing.
    pool_bytes:
        Byte capacity of the page cache serving physical arrays.
    checkpoint_bytes:
        WAL size above which a commit also checkpoints.
    """

    durable = True

    def __init__(
        self,
        data_dir: str | Path,
        *,
        pool_bytes: int = 256 * 2**20,
        checkpoint_bytes: int = _CHECKPOINT_BYTES,
    ) -> None:
        self._dir = Path(data_dir)
        self._cache = PageCache(pool_bytes)
        self._checkpoint_bytes = checkpoint_bytes
        self._wal = WriteAheadLog(self._dir / _WAL_FILE)
        self._state: dict[str, Any] = {}
        self._generation = 0
        #: Segments created or superseded since the last commit: what a
        #: commit or rollback may have left unreferenced.
        self._touched: set[str] = set()
        #: Facts about the last bootstrap, for tests and diagnostics.
        self.recovery_info: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # bootstrap / recovery
    # ------------------------------------------------------------------
    @property
    def data_dir(self) -> Path:
        return self._dir

    def bootstrap(self) -> dict[str, Table]:
        if self._dir.exists() and not self._dir.is_dir():
            raise InterfaceError(f"data_dir {str(self._dir)!r} is not a directory")
        (self._dir / _COLS_DIR).mkdir(parents=True, exist_ok=True)
        catalog_path = self._dir / _CATALOG_FILE
        if catalog_path.exists():
            try:
                state = json.loads(catalog_path.read_text())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise InterfaceError(
                    f"data_dir {str(self._dir)!r} has a corrupt catalog.json"
                ) from exc
            version = state.get("format_version")
            if version != FORMAT_VERSION:
                raise InterfaceError(
                    f"data_dir {str(self._dir)!r} has format version {version!r}; "
                    f"this build reads version {FORMAT_VERSION}"
                )
            self._state = state
        else:
            self._state = _empty_state()
        records, clean = self._wal.read_records()
        committed = WriteAheadLog.committed_prefix(records)
        for record in committed:
            self._apply(record)
        self.recovery_info = {
            "replayed_records": len(committed),
            "discarded_records": len(records) - self._commit_marker_count(records)
            - len(committed),
            "torn_tail": not clean,
        }
        self._generation = self._max_generation() + 1
        # Fold the recovered state into a fresh checkpoint: the WAL empties,
        # and payload files of discarded (uncommitted / torn) transactions
        # are deleted.  Idempotent, so a clean open just rewrites the same
        # catalog.json.
        self._checkpoint()
        return self._build_tables()

    @staticmethod
    def _commit_marker_count(records: list[tuple[int, dict[str, Any]]]) -> int:
        return sum(1 for _, record in records if record.get("op") == "commit")

    def _max_generation(self) -> int:
        generations = [
            int(meta.get("generation", 0)) for meta in self._state["tables"].values()
        ]
        return max(generations, default=int(self._state.get("next_generation", 1)) - 1)

    def _apply(self, record: dict[str, Any]) -> None:
        """Apply one WAL mutation record to the in-memory state."""
        op = record.get("op")
        if op in ("add_table", "drop_table"):
            old = self._state["tables"].get(record["name"])
            if old is not None:
                self._touched.add(old["file"])
        if op == "add_table":
            self._state["tables"][record["name"]] = record["meta"]
            self._touched.add(record["meta"]["file"])
        elif op == "drop_table":
            self._state["tables"].pop(record["name"], None)
            self._state["ingests"].pop(record["name"], None)
        elif op == "ingest":
            self._state["ingests"][record["name"]] = record["fingerprint"]
        # Unknown ops are ignored: forward-compatible replay within one
        # format version.

    # ------------------------------------------------------------------
    # table materialization (one mapping per table, lazy column views)
    # ------------------------------------------------------------------
    def _build_tables(self) -> dict[str, Table]:
        return {
            name: self._build_table(name, meta)
            for name, meta in self._state["tables"].items()
        }

    def _build_table(self, name: str, meta: dict[str, Any]) -> Table:
        path = str(self._dir / meta["file"])
        try:
            with open(path, "rb") as handle:
                mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            if len(mapping) < int(meta["bytes"]):
                raise ValueError(f"{len(mapping)} bytes")
        except (OSError, ValueError) as exc:  # ValueError: also an empty file
            raise InterfaceError(
                f"data_dir {str(self._dir)!r}: segment {meta['file']!r} of table {name!r} "
                f"is missing or shorter than the {meta['bytes']} bytes its catalog entry says"
            ) from exc
        return Table(name, {
            column_meta["name"]: self._build_column(path, mapping, column_meta)
            for column_meta in meta["columns"]
        })

    def _build_column(self, path: str, mapping: mmap.mmap, meta: dict[str, Any]) -> Column:
        length, offset = int(meta["length"]), int(meta["offset"])
        key = (path, offset)
        dtype = np.dtype(meta["dtype"])
        fetch = lambda: self._cache.get(  # noqa: E731 - closure over the mapping
            key, lambda: np.frombuffer(mapping, dtype, length, offset)
        )
        dictionary_fetch = None
        if meta["dictionary"]:
            start, size = meta["dictionary"]
            dictionary_fetch = lambda: json.loads(mapping[start:start + size])  # noqa: E731
        return Column.lazy(
            ColumnType(meta["ctype"]), length, fetch, dictionary_fetch=dictionary_fetch
        )

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def register_table(self, table: Table, *, replace: bool = False) -> Table:
        """Write the table as one segment file and log the registration.

        The returned table's columns are lazily materialized views into the
        mapped segment, served by the page cache — the caller's
        RAM-resident arrays become garbage once the caller drops them.
        """
        generation = self._generation
        self._generation += 1
        file = f"{_COLS_DIR}/{table.name}-{generation}.seg"
        parts: list[bytes | np.ndarray] = []
        columns_meta: list[dict[str, Any]] = []
        offset = 0
        for column_name in table.column_names:
            column = table.column(column_name)
            dtype = _DTYPE_OF_CTYPE[column.ctype]
            data = np.ascontiguousarray(column.data, dtype=dtype)
            parts.append(data)
            columns_meta.append({
                "name": column_name,
                "ctype": column.ctype.value,
                "dtype": dtype,
                "offset": offset,
                "length": len(column),
                "dictionary": None,
            })
            offset += data.nbytes  # 8-byte items: every column stays 8-aligned
        for column_meta in columns_meta:
            if column_meta["ctype"] == ColumnType.STRING.value:
                blob = json.dumps(table.column(column_meta["name"]).dictionary).encode()
                parts.append(blob + b"\n")
                column_meta["dictionary"] = [offset, len(blob)]
                offset += len(blob) + 1
        # An empty table still gets a byte: an empty file cannot be mapped.
        _write_segment(self._dir / file, parts if offset else [b"\n"])
        meta = {
            "generation": generation,
            "rows": table.num_rows,
            "file": file,
            "bytes": offset,
            "columns": columns_meta,
        }
        record = {"op": "add_table", "name": table.name, "replace": bool(replace),
                  "meta": meta}
        self._wal.append(record)
        self._apply(record)
        return self._build_table(table.name, meta)

    def drop_table(self, name: str) -> None:
        record = {"op": "drop_table", "name": name}
        self._wal.append(record)
        self._apply(record)

    def record_ingest(self, name: str, fingerprint: str) -> None:
        record = {"op": "ingest", "name": name, "fingerprint": fingerprint}
        self._wal.append(record)
        self._apply(record)

    def ingest_fingerprint(self, name: str) -> str | None:
        return self._state["ingests"].get(name)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def snapshot(self, tables: dict[str, Table]) -> Any:
        """A WAL byte-offset mark.

        Taken at the first mutation of a transaction, i.e. when every log
        record so far belongs to a committed transaction — rollback can
        therefore rebuild state by truncating to the mark and replaying
        everything that remains.
        """
        return ("wal", self._wal.size())

    def restore(self, token: Any) -> dict[str, Table]:
        kind, offset = token
        if kind != "wal":  # pragma: no cover - defensive
            raise SchemaError(f"not a durable snapshot token: {token!r}")
        self._wal.truncate(int(offset))
        catalog_path = self._dir / _CATALOG_FILE
        self._state = (
            json.loads(catalog_path.read_text())
            if catalog_path.exists()
            else _empty_state()
        )
        records, _ = self._wal.read_records()
        for _, record in records:
            self._apply(record)
        # Generations stay monotonic across rollbacks so a re-registered
        # table can never collide with an orphaned payload file that a
        # live column still maps.
        self._generation = max(self._generation, self._max_generation() + 1)
        self._remove_orphans()  # the rolled-back registrations
        return self._build_tables()

    def commit(self) -> None:
        """Fsync ``cols/`` (the new segments' directory entries), then a
        commit record, then unlink what the transaction left unreferenced:
        readers hold their mapping, rollback returns to this commit at most
        and recovery opens only the final state's files.  Checkpoint when
        the WAL has outgrown."""
        if self._wal.uncommitted_records == 0:
            return
        if self._touched:
            _fsync_dir(self._dir / _COLS_DIR)
        size = self._wal.commit()
        self._remove_orphans()
        if size >= self._checkpoint_bytes:
            self._checkpoint()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        """Fold the committed state into catalog.json and empty the WAL.

        Must only run at a commit boundary (no uncommitted WAL tail) —
        otherwise uncommitted mutations would be promoted into the
        checkpoint.  Orphaned segments (a torn transaction's, found by
        scanning ``cols/``) are deleted afterwards.
        """
        assert self._wal.uncommitted_records == 0, "checkpoint inside a transaction"
        self._state["format_version"] = FORMAT_VERSION
        self._state["next_generation"] = self._generation
        catalog_path = self._dir / _CATALOG_FILE
        tmp_path = catalog_path.with_suffix(".json.tmp")
        with open(tmp_path, "w") as handle:
            json.dump(self._state, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, catalog_path)
        _fsync_dir(self._dir)
        self._wal.reset()
        self._remove_orphans(scan=True)

    def _remove_orphans(self, *, scan: bool = False) -> None:
        """Unlink the segments no table references — among those this
        transaction touched, or with ``scan`` among all of ``cols/`` (a torn
        transaction's) — and forget what was touched."""
        candidates = self._touched
        if scan:
            candidates = {f"{_COLS_DIR}/{path.name}" for path in (self._dir / _COLS_DIR).iterdir()}
        referenced = {meta["file"] for meta in self._state["tables"].values()}
        for file in candidates - referenced:
            self._cache.invalidate(str(self._dir / file))
            (self._dir / file).unlink(missing_ok=True)
        self._touched.clear()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        return self._cache.stats()

    def close(self) -> None:
        """Checkpoint (when clean) and release handles.

        With an uncommitted WAL tail — a caller closing mid-transaction —
        the checkpoint is skipped: the next open discards the tail, which
        is exactly the rollback the unfinished transaction deserves.
        """
        if self._wal.uncommitted_records == 0:
            self._checkpoint()
        self._wal.close()
        self._cache.clear()


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------
def _empty_state() -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "next_generation": 1,
        "tables": {},
        "ingests": {},
    }


def _write_segment(path: Path, parts: list[bytes | np.ndarray]) -> None:
    """Write one segment file (fsynced — it precedes its WAL record)."""
    with open(path, "wb") as handle:
        handle.writelines(parts)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform specific
        pass
    finally:
        os.close(fd)
