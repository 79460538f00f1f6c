"""Durability acceptance tests: the storage backend never changes answers.

The central property mirrors ``test_parallel.py``: the buffer manager
changes *where* base tables physically live, never *what* queries compute.
A query on an in-memory catalog, on a durable (``data_dir``) catalog, and
on a durable catalog **reopened by a fresh connection** must produce
byte-identical rows and identical meter charges — including with
``workers=2``, where morsel workers receive the durable columns by value
in their payloads.

On top of the property, the new surface is pinned: what a resolved
``data_dir`` does (resolution and validation of the setting are
table-driven in ``tests/test_connection_settings.py``), the
handshake echo and mismatch refusal, warm-start
idempotent ``load_csv`` (no re-parse on matching fingerprints), and the
autocommit connection's durable mode.
"""

from __future__ import annotations

import multiprocessing
import random
import threading

import pytest

from repro import InterfaceError, SkinnerConfig, connect
from repro.errors import CatalogError
from repro.net.server import ServerThread
from repro.skinner import parallel
from repro.skinner.parallel import shutdown_workers
from repro.storage.buffer import PageCache
from benchmarks.paper.experiments_storage import counted_parses, save_csv
from repro.storage.table import Table

#: Mirrors the FAST config of test_api_cursor.py: quick convergence, no
#: warm start so served runs are solo-equivalent for charge comparisons.
FAST = SkinnerConfig(
    slice_budget=64,
    batches_per_table=3,
    base_timeout=200,
    serving_warm_start=False,
)


@pytest.fixture(scope="module", autouse=True)
def _pool_hygiene():
    """After the module: no worker processes."""
    yield
    shutdown_workers()
    assert multiprocessing.active_children() == []


def seed_rs_schema(conn):
    conn.create_table("r", {
        "id": [1, 2, 3, 4, 5, 6],
        "a": [10, 20, 10, 30, 20, 10],
        "name": ["ann", "bob", "cat", "dan", "eve", "fox"],
    })
    conn.create_table("s", {
        "rid": [1, 1, 2, 3, 5, 6, 6],
        "c": [7, 8, 9, 7, 8, 9, 7],
    })
    conn.commit()


def _random_query(rng: random.Random) -> str:
    """A randomized SPJ(+postprocessing) query over the r/s fixtures."""
    shape = rng.randrange(3)
    if shape == 0:
        where = rng.choice(["", " WHERE r.a > ?"])
        sql = f"SELECT r.id, r.a FROM r{where}"
        return sql.replace("?", str(rng.choice([5, 15, 25])))
    if shape == 1:
        predicates = ["r.id = s.rid"]
        if rng.random() < 0.5:
            predicates.append(f"s.c > {rng.choice([6, 7, 8])}")
        if rng.random() < 0.5:
            predicates.append(f"r.a < {rng.choice([15, 25, 35])}")
        select = rng.choice(["r.name, s.c", "r.id, r.a, s.c", "s.c"])
        return f"SELECT {select} FROM r, s WHERE {' AND '.join(predicates)}"
    return (
        "SELECT r.a, COUNT(*) AS n FROM r, s WHERE r.id = s.rid "
        "GROUP BY r.a ORDER BY r.a"
    )


def _run(conn, sql):
    """Sorted row tuples + meter charges of one direct execution."""
    result = conn.execute_direct(sql)
    names = result.table.column_names
    rows = sorted(tuple(row[name] for name in names) for row in result.table.rows())
    return rows, result.metrics.work


class TestPropertyBackendByteIdentical:
    """Property: in-memory, durable, and durable-after-reopen agree."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_three_backends_agree(self, seed, tmp_path):
        rng = random.Random(seed)
        queries = [_random_query(rng) for _ in range(4)]

        memory = connect(FAST)
        seed_rs_schema(memory)
        references = [_run(memory, sql) for sql in queries]
        memory.close()

        durable = connect(FAST, data_dir=tmp_path / "db")
        seed_rs_schema(durable)
        for sql, (rows, work) in zip(queries, references):
            assert _run(durable, sql) == (rows, work), sql
        durable.close()

        # A fresh process-equivalent: new connection, tables from disk only.
        reopened = connect(FAST, data_dir=tmp_path / "db")
        assert sorted(reopened.catalog.table_names()) == ["r", "s"]
        for sql, (rows, work) in zip(queries, references):
            assert _run(reopened, sql) == (rows, work), sql
        reopened.close()

    @pytest.mark.parametrize("seed", [14, 15])
    def test_workers_two_over_durable_matches_in_memory(self, seed, tmp_path, monkeypatch):
        # workers=2 on a durable catalog pickles columns read through the
        # page cache; in memory it pickles the arrays themselves.  Rows and
        # charges must not notice.
        monkeypatch.setattr(parallel, "MORSELS", 4)
        monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 2)
        rng = random.Random(seed)
        sql = _random_query(rng)

        memory = connect(FAST, workers=2)
        seed_rs_schema(memory)
        reference = _run(memory, sql)
        memory.close()

        durable = connect(FAST, workers=2, data_dir=tmp_path / "db")
        seed_rs_schema(durable)
        assert _run(durable, sql) == reference, sql
        durable.close()

        reopened = connect(FAST, workers=2, data_dir=tmp_path / "db")
        assert _run(reopened, sql) == reference, sql
        reopened.close()

    def test_page_cache_is_read_on_the_coordinator_thread_only(self, tmp_path, monkeypatch):
        # The pool pickles call arguments on its feeder thread; the page
        # cache is unlocked, so the coordinator must pickle durable tables
        # before it hands them over.
        monkeypatch.setattr(parallel, "MORSELS", 4)
        monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 2)
        threads = []
        original_get = PageCache.get

        def recording_get(self, key, loader):
            threads.append(threading.current_thread())
            return original_get(self, key, loader)

        monkeypatch.setattr(PageCache, "get", recording_get)
        shutdown_workers()  # a cold pool: morsels queue behind its start-up
        durable = connect(FAST, workers=2, data_dir=tmp_path / "db")
        try:
            seed_rs_schema(durable)
            result = durable.execute_direct(
                "SELECT r.name, s.c FROM r, s WHERE r.id = s.rid"
            )
        finally:
            durable.close()
        assert result.metrics.extra["parallel_morsels"] > 1
        assert not result.metrics.extra["pool_broken"]
        assert threads
        assert set(threads) == {threading.main_thread()}


class TestConnectDataDir:
    """What a resolved ``data_dir`` does (its resolution and shape checks are
    table-driven in ``tests/test_connection_settings.py``)."""

    def test_kwarg_selects_durable(self, tmp_path):
        conn = connect(FAST, data_dir=tmp_path / "db")
        try:
            assert conn.catalog.buffer_manager.durable
            assert conn.info()["data_dir"] == str(tmp_path / "db")
        finally:
            conn.close()

    def test_default_is_in_memory(self):
        conn = connect(FAST)
        try:
            assert not conn.catalog.buffer_manager.durable
            assert conn.info()["data_dir"] is None
        finally:
            conn.close()

    def test_existing_file_path_raises(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        with pytest.raises(InterfaceError, match="not a directory"):
            connect(FAST, data_dir=path)

    def test_invalid_env_raises_with_env_name(self, tmp_path, monkeypatch):
        path = tmp_path / "file"
        path.write_text("")
        monkeypatch.setenv("REPRO_DATA_DIR", str(path))
        with pytest.raises(InterfaceError, match="REPRO_DATA_DIR"):
            connect(FAST)


class TestRemoteDataDir:
    """DSN ``?data_dir=`` and the handshake echo / mismatch refusal."""

    def test_handshake_echoes_server_data_dir(self, tmp_path):
        data_dir = tmp_path / "db"
        live = ServerThread(connect(FAST, data_dir=data_dir)).start()
        try:
            seed_rs_schema(live.connection)
            remote = connect(live.dsn)
            try:
                assert remote.info()["data_dir"] == str(data_dir)
                result = remote.execute("SELECT r.id, r.a FROM r",
                                        use_result_cache=False)
                assert len(result.rows) == 6
            finally:
                remote.close()
        finally:
            live.stop()

    def test_matching_requested_data_dir_accepted(self, tmp_path):
        data_dir = tmp_path / "db"
        live = ServerThread(connect(FAST, data_dir=data_dir)).start()
        try:
            remote = connect(f"{live.dsn}?data_dir={data_dir}")
            try:
                assert remote.info()["data_dir"] == str(data_dir)
            finally:
                remote.close()
        finally:
            live.stop()

    def test_mismatched_data_dir_refused(self, tmp_path):
        live = ServerThread(connect(FAST, data_dir=tmp_path / "db")).start()
        try:
            with pytest.raises(InterfaceError, match="data_dir"):
                connect(f"{live.dsn}?data_dir={tmp_path / 'other'}")
        finally:
            live.stop()

    def test_data_dir_request_against_in_memory_server_refused(self, tmp_path):
        live = ServerThread(config=FAST).start()
        try:
            with pytest.raises(InterfaceError, match="data_dir"):
                connect(f"{live.dsn}?data_dir={tmp_path / 'db'}")
        finally:
            live.stop()


class TestWarmStartIngest:
    """Idempotent load_csv: matching fingerprints skip the re-parse."""

    @pytest.fixture()
    def csv_path(self, tmp_path):
        path = tmp_path / "people.csv"
        save_csv(Table("people", {
            "id": [1, 2, 3, 4],
            "name": ["ann", "bob", "cat", "dan"],
            "score": [1.5, 2.0, 2.5, 3.0],
        }), path)
        return path

    def test_reopen_skips_parse_on_matching_fingerprint(self, csv_path, tmp_path):
        cold = connect(FAST, data_dir=tmp_path / "db")
        cold.load_csv(csv_path)
        cold.commit()
        cold.close()

        warm = connect(FAST, data_dir=tmp_path / "db")
        try:
            with counted_parses() as parsed:
                table = warm.load_csv(csv_path)  # no replace=True needed
            assert parsed == []  # served from storage
            assert table.num_rows == 4
            assert table.column("name").values() == ["ann", "bob", "cat", "dan"]
        finally:
            warm.close()

    def test_changed_file_is_reparsed(self, csv_path, tmp_path):
        cold = connect(FAST, data_dir=tmp_path / "db")
        cold.load_csv(csv_path)
        cold.commit()
        cold.close()

        save_csv(Table("people", {"id": [9], "name": ["zed"], "score": [0.5]},),
                 csv_path)
        warm = connect(FAST, data_dir=tmp_path / "db")
        try:
            with counted_parses() as parsed:
                table = warm.load_csv(csv_path, replace=True)
            assert parsed == [csv_path]
            assert table.column("name").values() == ["zed"]
        finally:
            warm.close()

    def test_in_memory_keeps_strict_replace_contract(self, csv_path):
        conn = connect(FAST)
        try:
            conn.load_csv(csv_path)
            with pytest.raises(CatalogError):
                conn.load_csv(csv_path)  # identical file, still an error
        finally:
            conn.close()


class TestDurableAutocommit:
    def test_autocommit_data_dir_round_trip(self, tmp_path):
        conn = connect(FAST, data_dir=tmp_path / "db", autocommit=True)
        conn.create_table("r", {"id": [1, 2, 3], "x": [10, 20, 30]})
        result = conn.execute("SELECT r.x FROM r WHERE r.id = 2")
        assert [row["x"] for row in result.rows] == [20]
        conn.close()

        # Autocommit mutations each commit, so a reopen sees the table.
        reopened = connect(FAST, data_dir=tmp_path / "db", autocommit=True)
        result = reopened.execute("SELECT r.x FROM r WHERE r.id = 2")
        assert [row["x"] for row in result.rows] == [20]
        reopened.close()

    def test_cache_stats_in_info(self, tmp_path):
        conn = connect(FAST, data_dir=tmp_path / "db")
        try:
            seed_rs_schema(conn)
            conn.execute_direct("SELECT r.id, r.a FROM r")
            stats = conn.catalog.buffer_manager.cache_stats()
            assert stats is not None and stats["misses"] >= 1
        finally:
            conn.close()
