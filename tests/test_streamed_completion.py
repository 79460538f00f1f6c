"""A streamed statement is post-processed once: its rows, as they stream.

Completion charges what post-processing charges and builds the canonical
table only for whoever reads it — ``Cursor.result()``, a later result-cache
hit, the remote ``result`` verb.  Pinned here:

* a streamed statement nobody asks the table of never post-processes its
  whole result and never sorts it; ``poll``, ``rowcount`` and
  ``cursor.metrics`` leave the table unbuilt;
* the table, once read, is the eager path's (``Connection.execute``), and so
  is every metric but the wall times — locally, over ``repro://``, after a
  result-cache hit, for a ``LIMIT`` the join fell short of, and after a
  durable write replaced the statement's table;
* the result cache charges a pending result at least the built table's bytes;
* a table with no columns is refused, so no ``SELECT *`` projects nothing.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import connect
from repro.config import SkinnerConfig
from repro.engine import relation as relation_module
from repro.engine import task as task_module
from repro.engine import versioned_lru
from repro.serving.cache import result_bytes
from tests.test_postprocess_columnar import assert_tables_identical

FAST = SkinnerConfig(slice_budget=32, batches_per_table=3, base_timeout=150)

#: Projections only: each streams, and completes through the pending table.
STREAMED = (
    "SELECT f.k, f.g, f.v FROM fact f WHERE f.v < 300",
    "SELECT f.v, h.v FROM fact f, fact2 h WHERE f.k = h.k AND f.v < 500",
    "SELECT f.v, h.v, d.name FROM fact f, fact2 h, dim d "
    "WHERE f.k = h.k AND f.g = d.g AND f.v < 60",
    "SELECT * FROM fact f, dim d WHERE f.g = d.g AND f.v < 40",
    "SELECT twice(f.v) AS w, d.name FROM fact f, dim d WHERE f.g = d.g AND f.v < 80",
    # The join finishes long before the limit fills: no push-down.
    "SELECT f.v, h.v FROM fact f, fact2 h WHERE f.k = h.k AND f.v < 100 LIMIT 100000",
)


def _columns(rows: int = 400, seed: int = 7) -> dict[str, dict[str, list]]:
    rng = np.random.default_rng(seed)
    columns = {
        name: {
            "k": rng.integers(0, rows // 3, rows).tolist(),
            "g": rng.integers(0, 8, rows).tolist(),
            "v": rng.integers(0, 1000, rows).tolist(),
        }
        for name in ("fact", "fact2")
    }
    columns["dim"] = {"g": [row % 8 for row in range(24)],
                      "name": [f"g{row % 8}-{row}" for row in range(24)]}
    return columns


def _seed(conn, columns=None) -> None:
    for name, data in (columns or _columns()).items():
        conn.create_table(name, data)
    conn.register_udf("twice", lambda value: 2 * value)
    conn.commit()


def _open(**settings):
    conn = connect(FAST, workers=1, **settings)
    _seed(conn)
    return conn


def _work_fields(metrics) -> dict:
    """Every metrics field but the wall-clock ones."""
    fields = dataclasses.asdict(metrics)
    del fields["wall_time_seconds"]
    fields["extra"] = {key: value for key, value in fields["extra"].items()
                       if not key.endswith("wall_seconds")}
    return fields


def _eager(sql: str):
    """The statement on a fresh connection, completion-time delivery."""
    conn = _open()
    try:
        return conn.execute(sql, use_result_cache=False)
    finally:
        conn.close()


def _stream(conn, sql: str, **options):
    cursor = conn.cursor()
    cursor.execute(sql, **options)
    rows = cursor.fetchall()
    return cursor, rows


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("sql", STREAMED)
def test_an_unread_streamed_statement_is_never_post_processed_whole(sql, monkeypatch):
    post_processed = _counting(monkeypatch, task_module, "post_process")
    sorted_ = _counting(monkeypatch, relation_module, "_lexicographic_order")
    conn = _open()
    try:
        cursor, rows = _stream(conn, sql, use_result_cache=False)
        session = conn.server.session(cursor.ticket)
        assert session.stream.incremental and session.result.pending
        assert cursor.rowcount == len(rows) > 0
        assert conn.server.poll(cursor.ticket)["result_rows"] == len(rows)
        assert cursor.metrics.result_rows == len(rows)
        assert session.result.pending  # poll, rowcount, metrics: nothing built
        assert post_processed == [] and sorted_ == []
    finally:
        conn.close()


@pytest.mark.parametrize("sql", STREAMED)
def test_the_table_once_read_is_the_eager_one(sql):
    eager = _eager(sql)
    conn = _open()
    try:
        cursor, rows = _stream(conn, sql, use_result_cache=False)
        result = cursor.result()
        assert result.pending
        assert _work_fields(result.metrics) == _work_fields(eager.metrics)
        assert_tables_identical(eager.table, result.table)
        assert not result.pending
        assert sorted(rows) == sorted(eager.table.row_tuples())
    finally:
        conn.close()


@pytest.mark.parametrize("sql", STREAMED[1:3])
def test_a_result_cache_hit_builds_the_eager_table(sql):
    eager = _eager(sql)
    conn = _open()
    try:
        first, _ = _stream(conn, sql)
        stored = first.result()
        assert stored.pending
        second, rows = _stream(conn, sql)
        hit = second.result()
        assert hit.metrics.extra["result_cache"] == "hit"
        assert_tables_identical(eager.table, hit.table)
        assert rows == eager.table.row_tuples()  # a hit streams the canonical order
        assert _work_fields(stored.metrics) == _work_fields(eager.metrics)
        assert not stored.pending  # the hit built the cached entry's table
    finally:
        conn.close()


def test_over_the_wire_the_result_is_the_eager_one():
    """The remote ``result`` verb builds the table the eager path returns;
    the metrics are a local cursor's running the same sequence (a statement
    on a join graph seen before starts warm)."""
    from repro.net.server import ServerThread

    local = _open()
    with ServerThread(config=FAST) as live:
        _seed(live.connection)
        remote = connect(live.dsn, workers=1)
        try:
            for sql in STREAMED:
                cursor, rows = _stream(remote, sql, use_result_cache=False)
                assert cursor.rowcount == len(rows)
                result = cursor.result()
                twin, _ = _stream(local, sql, use_result_cache=False)
                assert _work_fields(result.metrics) == _work_fields(twin.result().metrics)
                assert_tables_identical(_eager(sql).table, result.table)
        finally:
            remote.close()
            local.close()


def test_a_durable_write_before_the_read_leaves_the_table_as_it_was(tmp_path):
    sql = STREAMED[2]
    eager = _eager(sql)
    conn = _open(data_dir=tmp_path / "db")
    try:
        cursor, _ = _stream(conn, sql, use_result_cache=False)
        replaced = _columns(seed=99)
        conn.create_table("fact", replaced["fact"], replace=True)
        conn.create_table("dim", replaced["dim"], replace=True)
        conn.commit()
        result = cursor.result()
        assert result.pending
        assert_tables_identical(eager.table, result.table)
        assert _work_fields(result.metrics) == _work_fields(eager.metrics)
    finally:
        conn.close()


@pytest.mark.parametrize("sql", STREAMED)
def test_the_cache_charge_at_put_bounds_the_built_table(sql):
    conn = _open()
    try:
        before = conn.server.stats()["cache_bytes"]["result"]
        cursor, _ = _stream(conn, sql)
        charged = conn.server.stats()["cache_bytes"]["result"] - before
        result = cursor.result()
        assert result.pending and charged == result_bytes(result) + versioned_lru.ENTRY_BYTES
        built = result.table
        assert result_bytes(result) == sum(
            built.column(name).data.nbytes for name in built.column_names)
        assert charged - versioned_lru.ENTRY_BYTES >= result_bytes(result)
        assert conn.server.stats()["cache_bytes"]["result"] - before == charged
    finally:
        conn.close()


def test_a_blocking_statement_still_builds_its_table_at_completion():
    conn = _open()
    try:
        cursor, rows = _stream(
            conn, "SELECT f.g, COUNT(*) AS n FROM fact f GROUP BY f.g", use_result_cache=False)
        assert not conn.server.session(cursor.ticket).result.pending
        assert cursor.result().table.row_tuples() == rows
    finally:
        conn.close()


def test_a_table_with_no_columns_is_refused(tmp_path):
    """``SELECT *`` names at least one column of every table, so the stream
    and the built table always project the same rows: a table with no
    columns is refused by name, locally, over ``repro://`` and on a durable
    catalog, before anything is stored."""
    from repro.errors import SchemaError
    from repro.net.server import ServerThread

    data_dir = tmp_path / "db"
    local, durable = _open(), _open(data_dir=data_dir)
    try:
        stored = sorted((path, path.stat().st_size) for path in data_dir.rglob("*"))
        for conn in (local, durable):
            with pytest.raises(SchemaError, match="'e' has no columns"):
                conn.create_table("e", {})
            assert not conn.catalog.has_table("e")
            assert conn.execute("SELECT * FROM dim d").table.num_rows == 24
        assert sorted((path, path.stat().st_size) for path in data_dir.rglob("*")) == stored
    finally:
        local.close()
        durable.close()
    with ServerThread(config=FAST) as live:
        remote = connect(live.dsn, workers=1)
        try:
            with pytest.raises(SchemaError, match="'e' has no columns"):
                remote.create_table("e", {})
            assert not live.connection.catalog.has_table("e")
        finally:
            remote.close()
