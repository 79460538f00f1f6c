"""Unit tests for the durable storage core: WAL, page cache, buffer managers.

These pin the mechanics the higher-level durability properties rest on:
record framing and torn-tail detection in the write-ahead log, LRU
accounting in the page cache, and the recovery / checkpoint / rollback
protocol of :class:`DurableBufferManager` in isolation (no connection or
executor involved).
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pytest

from repro.errors import InterfaceError
from repro.storage.buffer import InMemoryBufferManager, PageCache
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.durable import FORMAT_VERSION, DurableBufferManager
from repro.storage.table import Table
from repro.storage.wal import COMMIT_OP, RECORD_HEADER, WriteAheadLog
from tests.conftest import matching_rows


class TestWriteAheadLog:
    def test_append_read_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append({"op": "add_table", "name": "t"})
        wal.append({"op": "ingest", "name": "t", "fingerprint": "abc"})
        wal.commit()
        records, clean = wal.read_records()
        assert clean
        assert [r["op"] for _, r in records] == ["add_table", "ingest", COMMIT_OP]
        # End offsets are strictly increasing and the last one is the size.
        offsets = [end for end, _ in records]
        assert offsets == sorted(set(offsets))
        assert offsets[-1] == wal.size()
        wal.close()

    def test_uncommitted_counter(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        assert wal.uncommitted_records == 0
        wal.append({"op": "add_table", "name": "a"})
        wal.append({"op": "add_table", "name": "b"})
        assert wal.uncommitted_records == 2
        wal.commit()
        assert wal.uncommitted_records == 0
        wal.close()

    def test_torn_header_detected(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"op": "add_table", "name": "t"})
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x03")  # torn header: fewer than 8 bytes
        records, clean = WriteAheadLog(path).read_records()
        assert not clean
        assert [r["op"] for _, r in records] == ["add_table"]

    def test_torn_payload_detected(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"op": "add_table", "name": "t"})
        wal.close()
        payload = b'{"op": "drop_table"}'
        with open(path, "ab") as handle:
            handle.write(RECORD_HEADER.pack(len(payload), zlib.crc32(payload)))
            handle.write(payload[:5])  # payload cut short
        records, clean = WriteAheadLog(path).read_records()
        assert not clean
        assert len(records) == 1

    def test_crc_mismatch_detected(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"op": "add_table", "name": "t"})
        end = wal.size()
        wal.append({"op": "drop_table", "name": "t"})
        wal.close()
        raw = bytearray(path.read_bytes())
        raw[end + RECORD_HEADER.size] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        records, clean = WriteAheadLog(path).read_records()
        assert not clean
        assert [r["op"] for _, r in records] == ["add_table"]

    def test_committed_prefix_stops_at_last_commit(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append({"op": "add_table", "name": "a"})
        wal.commit()
        wal.append({"op": "add_table", "name": "b"})
        wal.commit()
        wal.append({"op": "add_table", "name": "c"})  # uncommitted tail
        records, clean = wal.read_records()
        assert clean
        committed = WriteAheadLog.committed_prefix(records)
        assert [r["name"] for r in committed] == ["a", "b"]
        assert all(r["op"] != COMMIT_OP for r in committed)
        wal.close()

    def test_committed_prefix_empty_without_commit(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append({"op": "add_table", "name": "a"})
        records, _ = wal.read_records()
        assert WriteAheadLog.committed_prefix(records) == []
        wal.close()

    def test_truncate_rolls_back_to_mark(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append({"op": "add_table", "name": "keep"})
        mark = wal.size()
        wal.append({"op": "add_table", "name": "discard"})
        wal.truncate(mark)
        records, clean = wal.read_records()
        assert clean
        assert [r["name"] for _, r in records] == ["keep"]
        wal.close()

    def test_missing_file_reads_empty(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "nope.log")
        assert wal.size() == 0
        assert wal.read_records() == ([], True)


class TestPageCache:
    def _array(self, n: int) -> np.ndarray:
        return np.arange(n, dtype=np.int64)

    def test_hit_miss_counting(self):
        cache = PageCache(1 << 20)
        a = cache.get("k", lambda: self._array(4))
        b = cache.get("k", lambda: self._array(4))
        assert a is b
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_eviction_under_capacity_pressure(self):
        cache = PageCache(3 * 8 * 10)  # room for three 10-element int64 arrays
        for key in "abcd":
            cache.get(key, lambda: self._array(10))
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 3
        assert stats["cached_bytes"] <= stats["capacity_bytes"]
        # "a" was least recently used — reloading it is a miss.
        misses = cache.misses
        cache.get("a", lambda: self._array(10))
        assert cache.misses == misses + 1

    def test_lru_order_refreshed_on_hit(self):
        cache = PageCache(2 * 8 * 10)
        cache.get("a", lambda: self._array(10))
        cache.get("b", lambda: self._array(10))
        cache.get("a", lambda: self._array(10))  # refresh "a"
        cache.get("c", lambda: self._array(10))  # evicts "b", not "a"
        hits = cache.hits
        cache.get("a", lambda: self._array(10))
        assert cache.hits == hits + 1

    def test_keeps_at_least_one_entry(self):
        cache = PageCache(8)  # smaller than any array
        array = cache.get("big", lambda: self._array(100))
        assert cache.stats()["entries"] == 1
        assert cache.get("big", lambda: self._array(100)) is array

    def test_invalidate_drops_every_view_of_a_segment(self):
        cache = PageCache(1 << 20)
        for key in (("seg-1", 0), ("seg-1", 80), ("seg-2", 0)):
            cache.get(key, lambda: self._array(10))
        cache.invalidate("seg-1")
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["cached_bytes"] == 80
        hits = cache.hits
        cache.get(("seg-2", 0), lambda: self._array(10))
        assert cache.hits == hits + 1

    def test_invalidate_and_clear(self):
        cache = PageCache(1 << 20)
        cache.get("a", lambda: self._array(10))
        cache.invalidate("a")
        assert cache.stats()["entries"] == 0
        assert cache.stats()["cached_bytes"] == 0
        cache.get("a", lambda: self._array(10))
        cache.clear()
        assert cache.stats()["entries"] == 0
        assert cache.stats()["misses"] == 2  # statistics survive clear()


def _table() -> Table:
    return Table("t", {
        "id": [1, 2, 3],
        "name": ["x", "y", "x"],
        "score": [1.5, -2.0, 0.25],
    })


def _rows(table: Table) -> list[dict]:
    return [table.row(i) for i in range(table.num_rows)]


class TestDurableBufferManager:
    def test_round_trip_across_reopen(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        stored = manager.register_table(_table())
        manager.commit()
        manager.close()

        reopened = DurableBufferManager(tmp_path)
        tables = reopened.bootstrap()
        assert list(tables) == ["t"]
        assert _rows(tables["t"]) == _rows(stored)
        assert tables["t"].column("name").ctype is ColumnType.STRING
        assert reopened.recovery_info["torn_tail"] is False
        reopened.close()

    def test_uncommitted_mutations_discarded_on_reopen(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        manager.register_table(_table())
        manager.commit()
        manager.register_table(Table("uncommitted", {"a": [1]}))
        # No commit, no close: simulate the process dying here.
        manager._wal.close()

        reopened = DurableBufferManager(tmp_path)
        tables = reopened.bootstrap()
        assert list(tables) == ["t"]
        assert reopened.recovery_info["replayed_records"] == 1  # committed add
        assert reopened.recovery_info["discarded_records"] == 1
        reopened.close()

    def test_recovery_replays_committed_wal(self, tmp_path):
        manager = DurableBufferManager(tmp_path, checkpoint_bytes=1 << 30)
        manager.bootstrap()
        manager.register_table(_table())
        manager.record_ingest("t", "fp-1")
        manager.commit()  # fsynced commit record, but WAL below threshold
        manager._wal.close()  # no checkpointing close — WAL still holds it

        reopened = DurableBufferManager(tmp_path)
        tables = reopened.bootstrap()
        assert list(tables) == ["t"]
        assert reopened.ingest_fingerprint("t") == "fp-1"
        assert reopened.recovery_info["replayed_records"] == 2
        reopened.close()

    def test_checkpoint_removes_orphan_column_files(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        manager.register_table(_table())
        manager.commit()
        before = {p.name for p in (tmp_path / "cols").iterdir()}
        manager.register_table(_table(), replace=True)  # new generation
        manager.commit()
        manager.close()
        after = {p.name for p in (tmp_path / "cols").iterdir()}
        assert before.isdisjoint(after)  # old generation's files deleted
        assert len(after) == len(before)

    def test_commit_reclaims_the_generations_it_replaced(self, tmp_path):
        manager = DurableBufferManager(tmp_path, checkpoint_bytes=1 << 30)
        manager.bootstrap()
        first = manager.register_table(_table())
        manager.commit()
        first.column("id").values()  # a cached view of the first generation
        for _ in range(5):
            manager.register_table(_table(), replace=True)  # no checkpoint in between
            manager.commit()
            assert len(list((tmp_path / "cols").iterdir())) == 1
        assert manager.cache_stats()["entries"] == 0  # reclaimed views are dropped
        assert _rows(first) == _rows(_table())  # its holder still reads it
        manager.register_table(_table(), replace=True)
        manager.register_table(_table(), replace=True)
        manager.drop_table("t")
        assert len(list((tmp_path / "cols").iterdir())) == 3  # nothing before commit
        manager.commit()
        assert list((tmp_path / "cols").iterdir()) == []
        manager.close()

    def test_rollback_reclaims_its_own_segments_only(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        tables = {"t": manager.register_table(_table())}
        manager.commit()
        (kept,) = (tmp_path / "cols").iterdir()
        mark = manager.snapshot(tables)
        manager.register_table(_table(), replace=True)
        manager.register_table(Table("extra", {"a": [1]}))
        restored = manager.restore(mark)
        assert list((tmp_path / "cols").iterdir()) == [kept]
        assert _rows(restored["t"]) == _rows(_table())
        manager.close()

    def test_a_write_is_three_fsyncs_in_order(self, tmp_path, monkeypatch):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        manager.register_table(_table())
        manager.commit()
        # The segment, then its directory entry, then the commit record.
        assert synced == ["t-1.seg", "cols", "wal.log"]
        del synced[:]
        manager.record_ingest("t", "fp")  # no segment: no directory fsync
        manager.commit()
        assert synced == ["wal.log"]
        monkeypatch.undo()
        manager.close()

    def test_rollback_via_wal_mark(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        tables = manager.bootstrap()
        tables = {"t": manager.register_table(_table())}
        manager.commit()
        mark = manager.snapshot(tables)
        manager.register_table(Table("extra", {"a": [1, 2]}))
        manager.drop_table("t")
        restored = manager.restore(mark)
        assert list(restored) == ["t"]
        assert _rows(restored["t"]) == _rows(_table())
        manager.close()

    def test_generations_stay_monotonic_across_rollback(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        tables = {"t": manager.register_table(_table())}
        manager.commit()
        mark = manager.snapshot(tables)
        doomed = manager.register_table(Table("doomed", {"a": [7, 8, 9]}))
        doomed_file = manager._state["tables"]["doomed"]["file"]
        manager.restore(mark)
        manager.register_table(Table("doomed", {"a": [1]}))
        # The rolled-back registration's file must not be reused: the live
        # `doomed` column object still maps the old generation's file.
        assert manager._state["tables"]["doomed"]["file"] != doomed_file
        assert doomed.column("a").values() == [7, 8, 9]
        manager.close()

    def test_format_version_mismatch_raises(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        manager.close()
        catalog_path = tmp_path / "catalog.json"
        state = json.loads(catalog_path.read_text())
        state["format_version"] = FORMAT_VERSION + 1
        catalog_path.write_text(json.dumps(state))
        with pytest.raises(InterfaceError, match="format version"):
            DurableBufferManager(tmp_path).bootstrap()

    def test_corrupt_catalog_json_raises(self, tmp_path):
        (tmp_path / "catalog.json").write_text("{not json")
        with pytest.raises(InterfaceError, match="corrupt"):
            DurableBufferManager(tmp_path).bootstrap()

    def test_data_dir_that_is_a_file_raises(self, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        with pytest.raises(InterfaceError, match="not a directory"):
            DurableBufferManager(path).bootstrap()

    def test_cache_stats_exposed(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        table = manager.register_table(_table())
        table.column("id").values()
        table.column("id").values()
        stats = manager.cache_stats()
        assert stats is not None
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        manager.commit()
        manager.close()

    def test_string_dictionary_survives_reopen(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        manager.register_table(_table())
        manager.commit()
        manager.close()
        tables = DurableBufferManager(tmp_path).bootstrap()
        column = tables["t"].column("name")
        assert column.values() == ["x", "y", "x"]


class TestInMemoryBufferManager:
    def test_snapshot_restore_round_trip(self):
        manager = InMemoryBufferManager()
        tables = {"t": _table()}
        manager.record_ingest("t", "fp")
        token = manager.snapshot(tables)
        manager.record_ingest("u", "fp2")
        restored = manager.restore(token)
        assert restored == tables
        # Nothing persists in memory, so no fingerprint is kept to match.
        assert manager.ingest_fingerprint("t") is None

    def test_not_durable(self):
        manager = InMemoryBufferManager()
        assert manager.durable is False
        assert manager.cache_stats() is None


class TestCatalogBackends:
    """The catalog behaves identically over either backend."""

    @pytest.fixture(params=["memory", "durable"])
    def catalog(self, request, tmp_path):
        if request.param == "memory":
            yield Catalog()
        else:
            catalog = Catalog(DurableBufferManager(tmp_path))
            yield catalog
            catalog.close()

    def test_add_table_and_read(self, catalog):
        catalog.add_table(_table())
        assert _rows(catalog.table("t")) == _rows(_table())

    def test_snapshot_restore_drops_new_tables(self, catalog):
        catalog.add_table(_table())
        token = catalog.snapshot()
        catalog.add_table(Table("extra", {"a": [1]}))
        catalog.restore(token)
        assert catalog.table_names() == ["t"]

    def test_column_equality_across_backends(self, tmp_path):
        memory = Catalog()
        memory.add_table(_table())
        durable = Catalog(DurableBufferManager(tmp_path))
        durable.add_table(_table())
        for name in ("id", "name", "score"):
            mem_col = memory.table("t").column(name)
            dur_col = durable.table("t").column(name)
            assert mem_col.ctype is dur_col.ctype
            assert mem_col.values() == dur_col.values()
        durable.close()


class TestColumnHashEqConsistency:
    """Satellite: equal values must match as join keys, however their columns
    store them (regression)."""

    def test_string_columns_with_different_dictionary_orders(self):
        # Same logical values, built so dictionary insertion order differs.
        a = Column(["b", "a", "b"], ColumnType.STRING)
        b = Column.from_physical(
            np.array([0, 1, 0], dtype=np.int64)[::-1][::-1],
            ColumnType.STRING,
            dictionary=["b", "a"],
        )
        c = Column.from_physical(
            np.array([1, 0, 1], dtype=np.int64),
            ColumnType.STRING,
            dictionary=["a", "b"],
        )
        assert a.values() == b.values() == c.values()
        for keys in (a, b, c):
            for probes in (a, b, c):
                assert matching_rows(keys, probes) == [[0, 2], [1], [0, 2]]

    def test_signed_zero_floats(self):
        plus = Column([0.0, 1.0], ColumnType.FLOAT)
        minus = Column([-0.0, 1.0], ColumnType.FLOAT)
        assert matching_rows(plus, minus) == matching_rows(minus, plus) == [[0], [1]]

    def test_int_columns(self):
        a = Column([1, 2, 3], ColumnType.INT)
        b = Column.from_physical(np.array([1, 2, 3], dtype=np.int64), ColumnType.INT)
        assert matching_rows(a, b) == matching_rows(b, a) == [[0], [1], [2]]

    def test_unequal_columns_differ(self):
        assert matching_rows(Column([1, 2], ColumnType.INT),
                             Column([2, 1], ColumnType.INT)) == [[1], [0]]
        assert matching_rows(Column(["a"], ColumnType.STRING),
                             Column(["b"], ColumnType.STRING)) == [[]]
