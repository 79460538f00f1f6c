"""Every cache over the catalog answers to table versions.

A serving result-cache or join-order-cache entry keeps the versions of the
tables its statement read and the UDF registry's version, taken when the
statement's task snapshotted its tables; the sqlite mirror keeps the
version it last copied.  Pinned here, on an in-memory and a durable
catalog:

* a write to one table leaves a cached result and the learned orders over
  other tables hitting;
* a write to a table, or a UDF re-registration, that lands while a
  streamed statement is half fetched never reaches a later submission;
* a dropped and recreated table misses, even with the same rows.

And, in memory only (the durable backend re-opens every table on restore,
so there a rollback renumbers them all): rolling back a write to one table
keeps its siblings' versions, statement-cache entries and mirror files.
"""

from __future__ import annotations

import os

import pytest

from repro import SkinnerConfig, connect
from repro.engine.statement_cache import StatementCache
from repro.external import sqlite_adapter_for
from tests.conftest import counting_groupings, statement_versions

WARM = SkinnerConfig(slice_budget=32, batches_per_table=3, base_timeout=150,
                     serving_warm_start=True)

JOIN_SQL = "SELECT COUNT(*) AS n FROM t, s WHERE t.k = s.k AND t.x > {floor}"
STREAM_SQL = "SELECT t.x, s.y FROM t, s WHERE t.k = s.k AND keep(t.x)"


def _seed(conn) -> None:
    conn.create_table("t", {"k": [i % 4 for i in range(60)], "x": list(range(60))})
    conn.create_table("s", {"k": [0, 1, 2, 3, 1], "y": [5, 6, 7, 8, 9]})
    conn.create_table("u", {"z": [1, 2]})
    conn.register_udf("keep", lambda x: x >= 0)
    conn.commit()


@pytest.fixture(params=["memory", "durable"])
def conn(request, tmp_path):
    backend = {"data_dir": tmp_path / "db"} if request.param == "durable" else {}
    conn = connect(WARM, **backend)
    _seed(conn)
    yield conn
    conn.close()


def _hit(result) -> bool:
    return result.metrics.extra.get("result_cache") == "hit"


def test_a_write_to_another_table_keeps_results_and_priors(conn):
    first = conn.execute(JOIN_SQL.format(floor=1))
    conn.create_table("u", {"z": [3]}, replace=True)
    conn.commit()
    again = conn.execute(JOIN_SQL.format(floor=1))
    assert _hit(again) and again.rows == first.rows
    conn.execute(JOIN_SQL.format(floor=2))  # same join graph: warm-started
    stats = conn.stats()
    assert stats["order_cache"]["hits"] == 1
    assert stats["result_cache"]["invalidations"] == 0
    assert stats["order_cache"]["invalidations"] == 0


@pytest.mark.parametrize("change", ["write", "udf"])
def test_a_change_mid_stream_never_reaches_a_later_submission(conn, change):
    def direct_rows():
        return sorted(conn.execute_direct(STREAM_SQL, engine="skinner-c").table.row_tuples())

    server = conn.server
    before = direct_rows()
    ticket = server.submit(conn.parse(STREAM_SQL), engine="skinner-c", stream=True)
    server.fetch_batch(ticket, 2)  # activates on the rows before the change
    assert not server.session(ticket).done
    if change == "write":
        conn.create_table("t", {"k": [0, 1], "x": [100, 200]}, replace=True)
    else:
        conn.register_udf("keep", lambda x: x >= 50, replace=True)
    conn.commit()
    after = direct_rows()
    assert after and after != before
    assert sorted(server.result(ticket).table.row_tuples()) == before  # its snapshot
    assert server.stats()["result_cache"]["entries"] == 0  # not stored
    again = server.submit(conn.parse(STREAM_SQL), engine="skinner-c")
    assert not server.session(again).cache_hit
    assert sorted(server.result(again).table.row_tuples()) == after


def test_a_dropped_and_recreated_table_misses(conn):
    first = conn.execute(JOIN_SQL.format(floor=1))
    rows = conn.catalog.table("s").column("y").values()
    conn.drop_table("s")
    conn.create_table("s", {"k": [0, 1, 2, 3, 1], "y": rows})
    conn.commit()
    again = conn.execute(JOIN_SQL.format(floor=1))
    assert not _hit(again) and again.rows == first.rows
    stats = conn.stats()
    assert stats["order_cache"]["hits"] == 0
    assert stats["result_cache"]["invalidations"] == 1
    assert stats["order_cache"]["invalidations"] == 1


def test_a_rollback_keeps_what_untouched_tables_built():
    conn = connect(WARM)
    try:
        _seed(conn)
        sql = JOIN_SQL.format(floor=1)
        conn.execute_direct(sql, engine="skinner-c")
        conn.execute_direct(sql, engine="skinner_g_sqlite")
        catalog = conn.catalog
        versions = {name: catalog.version(name) for name in ("t", "s")}
        mirror = sqlite_adapter_for(catalog).table_path("t")
        mtime = os.stat(mirror).st_mtime_ns
        conn.create_table("u", {"z": [3]}, replace=True)
        conn.rollback()
        assert {name: catalog.version(name) for name in ("t", "s")} == versions
        with counting_groupings() as grouped:
            conn.execute_direct(sql, engine="skinner-c")
        assert grouped == [0]  # the join maps over t and s were kept
        assert statement_versions(StatementCache.of(catalog))["t"] == versions["t"]
        conn.execute_direct(sql, engine="skinner_g_sqlite")
        assert os.stat(mirror).st_mtime_ns == mtime  # not re-mirrored
    finally:
        conn.close()
