"""Tests for ``Connection.execute`` (SQL in, results out, every engine)."""

import contextlib

import pytest

from repro import ENGINE_NAMES, Connection, ReproError, SkinnerConfig, connect
from repro.api import EngineContext
from repro.errors import CatalogError
from repro.net.server import ServerThread
from repro.optimizer.statistics import StatisticsCatalog
from repro.storage.table import Table
from tests.conftest import reference_join_count

FAST = SkinnerConfig(slice_budget=64, batches_per_table=3, base_timeout=200)


@pytest.fixture
def db() -> Connection:
    db = connect(FAST, autocommit=True)
    db.create_table("dept", {
        "did": [1, 2, 3],
        "dname": ["eng", "ops", "hr"],
    })
    db.create_table("emp", {
        "eid": [1, 2, 3, 4, 5, 6],
        "did": [1, 1, 2, 3, 2, 1],
        "salary": [100, 120, 90, 80, 95, 130],
    })
    return db


class TestSchemaManagement:
    def test_create_and_query_table(self, db):
        result = db.execute("SELECT COUNT(*) AS n FROM emp")
        assert result.rows[0]["n"] == 6

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table("emp", {"x": [1]})
        db.create_table("emp", {"x": [1]}, replace=True)

    def test_add_existing_table_object(self, db):
        db.add_table(Table("extra", {"a": [1, 2]}))
        assert db.execute("SELECT COUNT(*) AS n FROM extra").rows[0]["n"] == 2

    def test_load_csv(self, db, tmp_path):
        path = tmp_path / "cities.csv"
        path.write_text("city,pop\nrome,3\noslo,1\n")
        db.load_csv(path)
        assert db.execute("SELECT COUNT(*) AS n FROM cities").rows[0]["n"] == 2

    def test_statistics_cached_and_refreshed(self, db):
        first = db.statistics()
        assert db.statistics() is first
        db.create_table("later", {"x": [1]})
        assert db.statistics() is not first

    def test_statistics_follow_their_own_catalog_state(self, monkeypatch, baseline_engines):
        """One collection per catalog state, read through one accessor by the
        connection, the engine context and the engines — never another
        catalog's, never an earlier state's."""
        conn, other = connect(FAST), connect(FAST)
        conn.create_table("t", {"x": [1, 2, 3]})
        conn.commit()
        other.create_table("t", {"x": [7]})
        committed = conn.statistics()
        assert committed is StatisticsCatalog.of(conn.catalog)
        assert committed is EngineContext(conn.catalog, None, FAST).statistics()
        assert committed.table("t").row_count == 3
        # A second connection on another catalog: same table name, own rows.
        assert other.statistics().table("t").row_count == 1
        assert conn.statistics() is committed
        # Every schema mutation shows, replace and drop included.
        conn.create_table("t", {"x": [1, 2, 3, 4]}, replace=True)
        conn.create_table("u", {"y": [1]})
        grown = conn.statistics()
        assert grown.table("t").row_count == 4 and grown.table("u").row_count == 1
        conn.drop_table("u")
        assert conn.statistics().table("u") is None
        # A rollback() returns to the committed state, not to a stale cache.
        conn.rollback()
        assert conn.statistics().table("t").row_count == 3
        assert other.statistics().table("t").row_count == 1
        # What the engines plan with is what the accessor holds.
        calls = []
        collect = StatisticsCatalog.collect.__func__
        monkeypatch.setattr(StatisticsCatalog, "collect", classmethod(
            lambda cls, catalog: calls.append(catalog) or collect(cls, catalog)))
        conn.create_table("t", {"x": [5, 6]}, replace=True)
        for engine in ("traditional", "skinner-h", "reoptimizer"):
            rows = conn.execute("SELECT COUNT(*) AS n FROM t", engine=engine).rows
            assert rows == [{"n": 2}]
            conn.execute_direct("SELECT COUNT(*) AS n FROM t", engine=engine)
        other.execute("SELECT COUNT(*) AS n FROM t", engine="traditional")
        assert calls == [conn.catalog]  # other's statistics were already held
        conn.close()
        other.close()


class TestQueryExecution:
    JOIN_SQL = (
        "SELECT d.dname AS dname, SUM(e.salary) AS total FROM emp e, dept d "
        "WHERE e.did = d.did GROUP BY d.dname ORDER BY d.dname"
    )

    def test_every_engine_answers_the_join(self, db, baseline_engines):
        expected = {"eng": 350, "hr": 80, "ops": 185}
        for engine in ENGINE_NAMES:
            result = db.execute(self.JOIN_SQL, engine=engine)
            totals = {row["dname"]: row["total"] for row in result.rows}
            assert totals == expected, engine

    def test_unknown_engine_rejected(self, db):
        with pytest.raises(ReproError):
            db.execute("SELECT * FROM emp", engine="sqlite")

    def test_query_object_accepted(self, db):
        query = db.parse("SELECT e.salary FROM emp e WHERE e.salary > 100")
        assert len(db.execute(query).rows) == 2

    def test_metrics_describe_is_readable(self, db):
        result = db.execute("SELECT COUNT(*) AS n FROM emp", engine="skinner-c")
        text = result.metrics.describe()
        assert "skinner-c" in text

    def test_order_by_and_limit_via_sql(self, db):
        result = db.execute(
            "SELECT e.eid, e.salary FROM emp e ORDER BY e.salary DESC LIMIT 2"
        )
        assert [row["salary"] for row in result.rows] == [130, 120]

    def test_distinct_via_sql(self, db):
        result = db.execute("SELECT DISTINCT e.did FROM emp e")
        assert sorted(row["did"] for row in result.rows) == [1, 2, 3]


class TestServingLayerRouting:
    """execute routes through the QueryServer; execute_direct bypasses it."""

    JOIN_SQL = TestQueryExecution.JOIN_SQL

    def test_execute_goes_through_server(self, db):
        db.execute(self.JOIN_SQL)
        assert db.server.stats()["completed"] == 1

    def test_direct_path_matches_server_path_per_engine(self, db, baseline_engines):
        for engine in ENGINE_NAMES:
            served = db.execute(self.JOIN_SQL, engine=engine, use_result_cache=False)
            direct = db.execute_direct(self.JOIN_SQL, engine=engine)
            assert served.rows == direct.rows, engine
            assert served.metrics.work == direct.metrics.work, engine

    def test_repeated_execute_hits_result_cache(self, db):
        first = db.execute(self.JOIN_SQL)
        second = db.execute(self.JOIN_SQL)
        assert second.rows == first.rows
        assert second.metrics.extra.get("result_cache") == "hit"
        assert first.metrics.extra.get("result_cache") is None

    def test_schema_change_invalidates_result_cache(self, db):
        db.execute("SELECT COUNT(*) AS n FROM emp")
        db.create_table("emp", {"eid": [1], "did": [1], "salary": [7]}, replace=True)
        result = db.execute("SELECT COUNT(*) AS n FROM emp")
        assert result.rows[0]["n"] == 1
        assert result.metrics.extra.get("result_cache") is None

    def test_udf_registration_invalidates_result_cache(self, db):
        db.register_udf("cheap", lambda s: s < 100)
        sql = "SELECT COUNT(*) AS n FROM emp e WHERE cheap(e.salary)"
        assert db.execute(sql).rows[0]["n"] == 3
        db.register_udf("cheap", lambda s: s < 95, replace=True)
        result = db.execute(sql)
        assert result.rows[0]["n"] == 2
        assert result.metrics.extra.get("result_cache") is None

    def test_cache_opt_out_recomputes(self, db):
        db.execute(self.JOIN_SQL)
        fresh = db.execute(self.JOIN_SQL, use_result_cache=False)
        assert fresh.metrics.extra.get("result_cache") is None

    @pytest.mark.parametrize("where", ["in-process", "repro://"])
    def test_execute_books_work_to_the_connection_tenant(self, where):
        """One ``execute`` is the connection tenant's work, in process as
        over the wire — not the ``"default"`` tenant's."""
        with contextlib.ExitStack() as stack:
            if where == "in-process":
                conn = connect(FAST, tenant="alice")
            else:
                live = stack.enter_context(ServerThread(config=FAST))
                conn = connect(live.dsn, tenant="alice")
            stack.callback(conn.close)
            conn.create_table("emp", {"eid": [1, 2, 3], "salary": [100, 120, 90]})
            conn.commit()
            result = conn.execute("SELECT COUNT(*) AS n FROM emp", use_result_cache=False)
            assert result.rows == [{"n": 3}]
            tenants = conn.stats()["tenants"]
            assert "default" not in tenants
            assert tenants["alice"]["work"] == result.metrics.work.total > 0


class TestUdfs:
    def test_register_and_use_in_sql(self, db):
        db.register_udf("well_paid", lambda s: s >= 100)
        result = db.execute("SELECT COUNT(*) AS n FROM emp e WHERE well_paid(e.salary)")
        assert result.rows[0]["n"] == 3

    def test_udf_join_predicate_all_engines(self, db, baseline_engines):
        calls = []

        def register_counted(name, function):
            def counted(*args):
                calls.append(name)
                return function(*args)

            db.register_udf(name, counted, cost=3)

        register_counted("match_dept", lambda a, b: a == b)
        # Truthy and falsy values that are not bools: "x" keeps a row, "" and 0 drop it.
        register_counted("pair_tag", lambda a, b: "x" if (a + b) % 2 else ("" if a < b else 0))
        register_counted("next_did", lambda did: did + 1)
        register_counted("half", lambda salary: salary / 2)
        head = "SELECT COUNT(*) AS n FROM emp e, dept d WHERE "
        predicates = [
            "match_dept(e.did, d.did)",
            "pair_tag(e.did, d.did)",
            "next_did(e.did) > d.did",
            "e.did = d.did AND half(e.salary) >= 50",
        ]
        for predicate in predicates:
            sql = head + predicate
            expected = reference_join_count(db.catalog, db.parse(sql), db.udfs)
            for engine in ENGINE_NAMES:
                calls.clear()
                result = db.execute(sql, engine=engine, use_result_cache=False)
                assert result.rows[0]["n"] == expected, (predicate, engine)
                if engine in ("traditional", "skinner-c"):
                    # No work budget cuts these engines off between the
                    # charge for an evaluation and the call.
                    assert len(calls) == result.metrics.work.udf_invocations / 3 > 0, (
                        predicate, engine)
            if predicate.startswith("match_dept"):
                assert expected == 6

    def test_duplicate_udf_rejected(self, db):
        db.register_udf("f", lambda: 1)
        with pytest.raises(CatalogError):
            db.register_udf("f", lambda: 2)
        db.register_udf("f", lambda: 2, replace=True)
