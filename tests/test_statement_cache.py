"""The statement cache: reuse that never shows in an answer or a charge.

A statement on tables an earlier statement parsed, filtered and indexed, at
the same table versions, reuses what that one built
(:mod:`repro.engine.statement_cache`).  Pinned here:

* a warm statement returns the rows and charges the work of a cold one, on
  every path that pre-processes, in memory and on a durable catalog — a
  budget included;
* no write, rollback, drop or re-registered UDF lets an old answer through,
  and no entry built on an old table version outlives the next lookup;
* different parameters never share a parse;
* the byte bound holds under a flood of distinct predicates;
* statistics are re-collected for the tables whose version moved only;
* a closed connection refuses the entry points that would reach the cache.

The suite also runs with ``REPRO_PARALLEL_WORKERS=2``, where the learned
Skinner-C statements here go through the morsel coordinator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SkinnerConfig, connect
from repro.engine import statement_cache, versioned_lru
from repro.engine.statement_cache import StatementCache
from repro.engine.versioned_lru import ENTRY_BYTES
from repro.errors import CatalogError, InterfaceError
from repro.optimizer import statistics
from repro.query.parser import parse_query
from repro.skinner.preprocessor import preprocess
from repro.skinner.skinner_c import SkinnerC
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from benchmarks.paper.baselines import EddyEngine
from tests.conftest import lru_items, statement_versions

FAST = SkinnerConfig(
    slice_budget=32, batches_per_table=3, base_timeout=150, serving_warm_start=False
)

JOIN_SQL = (
    "SELECT COUNT(*) AS n, SUM(f.v) AS s FROM f, d "
    "WHERE f.k = d.k AND f.v < 700 AND d.w >= 2"
)
ROWS_SQL = (
    "SELECT d.w AS w, f.v AS v FROM f, d "
    "WHERE f.k = d.k AND f.v < 300 AND d.w != 1 ORDER BY v, w"
)
COUNT_SQL = "SELECT COUNT(*) AS n FROM t WHERE t.x > 1"


def _seed(conn) -> None:
    rng = np.random.default_rng(3)
    conn.create_table("f", {"k": rng.integers(0, 50, 600).tolist(),
                            "v": rng.integers(0, 1000, 600).tolist()})
    conn.create_table("d", {"k": list(range(50)), "w": [k % 5 for k in range(50)]})
    conn.commit()


@pytest.fixture(params=["memory", "durable"])
def backend(request, tmp_path):
    """``connect`` keywords of an in-memory or a durable catalog."""
    return {"data_dir": tmp_path / "db"} if request.param == "durable" else {}


@pytest.fixture
def conn(backend):
    conn = connect(FAST, **backend)
    _seed(conn)
    yield conn
    conn.close()


def _count(conn, sql: str = COUNT_SQL) -> int:
    return conn.execute_direct(sql, engine="skinner-c").rows[0]["n"]


def _table_bytes(result) -> list[tuple[str, str, bytes]]:
    table = result.table
    return [(name, table.column(name).data.dtype.str, table.column(name).data.tobytes())
            for name in table.column_names]


def _learned(conn, sql):
    return conn.execute_direct(sql, engine="skinner-c")


def _forced(conn, sql):
    return SkinnerC(conn.catalog, conn.udfs, conn.config).execute_with_order(
        conn.parse(sql), ("d", "f"))


def _eddy(conn, sql):
    return conn.execute_direct(sql, engine="eddy")


@pytest.fixture
def filters(monkeypatch) -> list[str]:
    """The alias of every filter pass the statement cache runs."""
    ran: list[str] = []
    real = statement_cache.filter_table

    def counted(table, alias, *args, **kwargs):
        ran.append(alias)
        return real(table, alias, *args, **kwargs)

    monkeypatch.setattr(statement_cache, "filter_table", counted)
    return ran


class TestWarmEqualsCold:
    @pytest.mark.parametrize("run", [_learned, _forced, _eddy],
                             ids=["skinner-c", "forced-order", "eddy"])
    @pytest.mark.parametrize("sql", [JOIN_SQL, ROWS_SQL], ids=["aggregate", "rows"])
    def test_rows_and_work_are_identical(self, conn, filters, run, sql, baseline_engines):
        cold = run(conn, sql)
        assert sorted(filters) == ["d", "f"]
        warm = run(conn, sql)
        assert sorted(filters) == ["d", "f"], "the warm statement filtered again"
        assert warm.rows == cold.rows
        assert _table_bytes(warm) == _table_bytes(cold)
        assert warm.metrics.work == cold.metrics.work

    def test_cached_positions_are_read_only(self, conn):
        prepared = preprocess(conn.catalog, conn.parse(JOIN_SQL))
        again = preprocess(conn.catalog, conn.parse(JOIN_SQL))
        for alias in ("f", "d"):
            assert again.filtered[alias] is prepared.filtered[alias]
            assert not prepared.filtered[alias].flags.writeable
            assert again.join_maps[(alias, "k")] is prepared.join_maps[(alias, "k")]

    def test_a_budget_runs_out_where_it_would_cold(self, backend, tmp_path, baseline_engines):
        """Replayed charges hit a work budget at the very charge the filter
        itself would have, inside pre-processing and after it."""
        def fresh(name: str):
            db = connect(FAST, **({"data_dir": tmp_path / name} if backend else {}))
            _seed(db)
            return db

        for budget in (1, 400, 650, 1300, 5_000):
            cold_conn, warm_conn = fresh(f"cold{budget}"), fresh(f"warm{budget}")
            _eddy(warm_conn, JOIN_SQL)  # fills the cache
            cold, warm = (
                EddyEngine(db.catalog, db.udfs).execute(db.parse(JOIN_SQL), work_budget=budget)
                for db in (cold_conn, warm_conn)
            )
            assert warm.metrics.work == cold.metrics.work
            assert warm.metrics.extra["timed_out"] == cold.metrics.extra["timed_out"]
            cold_conn.close()
            warm_conn.close()


class TestWritesLeaveNothingStale:
    def _assert_current(self, conn) -> None:
        held = statement_versions(StatementCache.of(conn.catalog))
        assert held
        assert held == {name: conn.catalog.version(name) for name in held}

    def test_replace(self, backend):
        conn = connect(FAST, autocommit=True, **backend)
        conn.create_table("t", {"x": [1, 2, 3]})
        assert _count(conn) == 2
        entries = len(StatementCache.of(conn.catalog).lru)
        for values in ([5, 6, 7, 8], [0, 1], [9] * 5):
            conn.create_table("t", {"x": values}, replace=True)
            assert _count(conn) == sum(value > 1 for value in values)
            self._assert_current(conn)
            assert len(StatementCache.of(conn.catalog).lru) == entries
        conn.close()

    def test_rollback(self, backend):
        conn = connect(FAST, **backend)
        conn.create_table("t", {"x": [1, 2, 3]})
        conn.commit()
        assert _count(conn) == 2
        conn.create_table("t", {"x": [5, 6, 7, 8]}, replace=True)
        assert _count(conn) == 4
        conn.rollback()
        assert _count(conn) == 2
        self._assert_current(conn)
        conn.close()

    def test_drop_and_recreate(self, backend):
        conn = connect(FAST, autocommit=True, **backend)
        conn.create_table("t", {"x": [1, 2, 3]})
        assert _count(conn) == 2
        first = conn.catalog.version("t")
        conn.drop_table("t")
        conn.create_table("t", {"x": [4, 5, 6]})
        assert conn.catalog.version("t") > first
        assert _count(conn) == 3
        self._assert_current(conn)
        conn.close()

    def test_a_dropped_table_leaves_with_the_next_lookup(self):
        conn = connect(FAST)
        conn.create_table("t", {"x": [1, 2, 3]})
        conn.create_table("u", {"y": [1]})
        assert _count(conn) == 2
        conn.drop_table("t")
        conn.parse("SELECT u.y FROM u")
        assert "t" not in statement_versions(StatementCache.of(conn.catalog))
        conn.close()

    def test_a_reregistered_udf_changes_the_answer(self, backend):
        conn = connect(FAST, **backend)
        conn.create_table("t", {"x": [1, 2, 3, 4, 5, 6]})
        sql = "SELECT COUNT(*) AS n FROM t WHERE keep(t.x)"
        conn.register_udf("keep", lambda x: x > 2)
        assert _count(conn, sql) == 4
        conn.register_udf("keep", lambda x: x > 4, replace=True)
        assert _count(conn, sql) == 2
        conn.close()


class TestParameters:
    SQL = "SELECT COUNT(*) AS n FROM t WHERE t.x = ?"
    VALUES = [2**53 + 1, 5, 7]

    @staticmethod
    def _answer(conn, sql, params) -> int:
        return conn.execute_direct(sql, engine="skinner-c", params=params).rows[0]["n"]

    def test_different_parameters_never_share_an_entry(self):
        """``2**53`` and ``2.0**53`` are equal as Python values but not as
        filters over an int64 column: each must get its own parse and its own
        filtered positions."""
        conn = connect(FAST)
        conn.create_table("t", {"x": self.VALUES})
        for params in [(5,), (7,), (float(2**53),), (2**53,), (5.0,), [5], (True,)]:
            fresh = connect(FAST)
            fresh.create_table("t", {"x": self.VALUES})
            assert self._answer(conn, self.SQL, params) == self._answer(fresh, self.SQL, params)
            fresh.close()
        assert conn.parse(self.SQL, (5,)) is conn.parse(self.SQL, (5,))
        assert conn.parse(self.SQL, (5,)) is not conn.parse(self.SQL, (5.0,))
        assert conn.parse(self.SQL, (5,)) is not conn.parse(self.SQL, (7,))
        named = "SELECT COUNT(*) AS n FROM t WHERE t.x = :v"
        assert self._answer(conn, named, {"v": 5}) == 1
        assert self._answer(conn, named, {"v": 6}) == 0
        conn.close()

    def test_unhashable_parameters_skip_the_cache(self):
        conn = connect(FAST)
        conn.create_table("t", {"x": self.VALUES})
        params = [np.int64(5)], [np.array(5)]
        assert conn.parse(self.SQL, params[0]) is conn.parse(self.SQL, params[0])
        assert conn.parse(self.SQL, params[1]) is not conn.parse(self.SQL, params[1])
        conn.close()

    def test_the_server_parses_through_the_same_cache(self):
        conn = connect(FAST)
        conn.create_table("t", {"x": self.VALUES})
        sql = "SELECT COUNT(*) AS n FROM t WHERE t.x > 4"
        ticket = conn.server.submit(sql)
        assert conn.server.session(ticket).query is conn.parse(sql)
        conn.close()


def test_the_byte_bound_holds_under_a_flood_of_predicates(monkeypatch):
    bound = 40_000
    monkeypatch.setattr(versioned_lru, "MAX_BYTES", bound)
    conn = connect(FAST, workers=1)
    keys = [row % 40 for row in range(1_500)]
    conn.create_table("f", {"k": keys, "v": list(range(1_500))})
    conn.create_table("d", {"k": list(range(40))})
    cache = StatementCache.of(conn.catalog)
    kept = []
    keep = StatementCache.keep
    monkeypatch.setattr(StatementCache, "keep", lambda self, key, value, charges: (
        kept.append(value), keep(self, key, value, charges)))
    first_sql = "SELECT COUNT(*) AS n FROM f, d WHERE f.k = d.k AND f.v < 0"
    first = conn.parse(first_sql)
    held = []
    for cut in range(0, 1_500, 30):
        sql = f"SELECT COUNT(*) AS n FROM f, d WHERE f.k = d.k AND f.v < {cut}"
        assert _count(conn, sql) == cut
        assert 0 < cache.nbytes <= bound, cut
        # The statement's prepared entry, charged at once for the edges and
        # columns its tasks may gather, stays exactly when it alone fits the
        # bound.
        prepared = kept[-1]
        assert len(kept) == cut // 30 + 1
        query = parse_query(sql, conn.catalog)
        assert prepared.key == query.prepared_key
        entries = dict(lru_items(cache.lru))
        held.append(prepared.key in entries)
        assert held[-1] == (prepared.nbytes + ENTRY_BYTES <= bound), cut
        if not held[-1]:
            # Refused before it evicted anything: the maps the statement
            # built are still held, f's under its own filter.
            maps = {(key[1][1], key[1][4]) for key in entries if key[0] == "map"}
            assert maps == {("f", tuple(query.unary_predicates("f"))), ("d", ())}, cut
    assert held[0] and not held[-1]
    assert conn.parse(first_sql) is not first, "the oldest parse outlived the bound"
    conn.close()


def test_statistics_are_recollected_for_the_replaced_table_only(monkeypatch):
    collected: list[str] = []
    real = statistics._collect_table

    def counted(table, sample_limit):
        collected.append(table.name)
        return real(table, sample_limit)

    monkeypatch.setattr(statistics, "_collect_table", counted)
    conn = connect(FAST)
    for name in ("a", "b", "c"):
        conn.create_table(name, {"x": [1, 2, 3]})
    first = conn.statistics()
    assert sorted(collected) == ["a", "b", "c"]
    collected.clear()
    conn.create_table("b", {"x": [4, 5]}, replace=True)
    second = conn.statistics()
    assert collected == ["b"]
    assert second.table("a") is first.table("a") and second.table("c") is first.table("c")
    assert second.table("b").row_count == 2
    assert conn.statistics() is second and collected == ["b"]
    conn.close()


def test_versions_never_come_back():
    catalog = Catalog()
    catalog.add_table(Table("t", {"x": [1]}))
    seen = [catalog.version("t")]
    mark = catalog.snapshot()
    catalog.add_table(Table("t", {"x": [2]}), replace=True)
    seen.append(catalog.version("t"))
    catalog.drop_table("t")
    with pytest.raises(CatalogError):
        catalog.version("t")
    assert catalog.latest_version > seen[-1]
    catalog.add_table(Table("t", {"x": [3]}))
    seen.append(catalog.version("t"))
    catalog.restore(mark)
    seen.append(catalog.version("t"))
    assert seen == sorted(set(seen))
    assert catalog.table("t").column("x").values() == [1]


@pytest.mark.parametrize("use", [
    lambda conn: conn.parse("SELECT t.x FROM t"),
    lambda conn: conn.statistics(),
    lambda conn: conn.server,
], ids=["parse", "statistics", "server"])
def test_a_closed_connection_refuses(use):
    conn = connect(FAST)
    conn.create_table("t", {"x": [1]})
    conn.close()
    with pytest.raises(InterfaceError):
        use(conn)
