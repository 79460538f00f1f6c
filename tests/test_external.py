"""Tests for the external-DBMS execution backends (:mod:`repro.external`).

The acceptance properties of the sqlite reference adapter:

* ``skinner_g_sqlite`` / ``skinner_h_sqlite`` return **byte-identical
  rows** to their internal-executor counterparts on randomized queries —
  joins, unary predicate mixes, string dictionaries, NaN floats, and
  function expressions;
* every meter charge comes from the deterministic work-unit clock (sqlite
  progress-handler ticks + delivered rows), so repeated runs report
  identical :class:`~repro.engine.meter.WorkBreakdown` and simulated time;
* the engines resolve through every front door — cursor, connection, serving,
  and ``repro://`` — and obey the ``connect(engine=...)`` >
  ``REPRO_ENGINE`` > DSN ``?engine=`` resolution chain;
* Skinner-H asks its host for nothing the traditional plan does not need
  (one statement on a round-0 win, each filter once after a timeout), the
  mirror's join-column indexes live and die with their table's file, and
  what a statement costs does not depend on which statements ran before;
* mirrors are version-gated (transactions and rollback re-mirror) and
  bound to one catalog, UDF queries fall back to the internal executor
  with a :class:`RuntimeWarning`, and scratch mirror databases are deleted
  when the owning connection closes.
"""

import hashlib
import os
import random
import sqlite3
import warnings

import pytest

from repro import InterfaceError, SkinnerConfig, connect
from repro.errors import UnsupportedQueryError
from repro.external import (
    ExternalGenericEngine,
    SqliteAdapter,
    sqlite_adapter_for,
)
from repro.external.emitter import SqlEmitter, index_name
from repro.net.server import ServerThread
from repro.query.expressions import ColumnRef, FunctionCall, Literal
from repro.query.predicates import (
    Predicate,
    column_compare_literal,
    column_equals_column,
)
from repro.query.query import SelectItem
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.skinner_h import SkinnerH
from benchmarks.paper.queries import make_query
from tests.conftest import udf_predicate

FAST = SkinnerConfig(
    slice_budget=64,
    batches_per_table=3,
    base_timeout=200,
    serving_warm_start=False,
)

TAGS = ["red", "green", "blue", "gold", "grey"]


def seed_random_tables(conn, rng, *, with_nan=False):
    """Two joinable tables with int, string, and float columns."""
    n = rng.randint(8, 16)
    conn.create_table(
        "t0",
        {
            "id": [rng.randint(0, 5) for _ in range(n)],
            "val": [rng.randint(-4, 9) for _ in range(n)],
            "tag": [rng.choice(TAGS) for _ in range(n)],
        },
        replace=True,
    )
    m = rng.randint(8, 16)
    conn.create_table(
        "t1",
        {
            "id": [rng.randint(0, 5) for _ in range(m)],
            "score": [
                float("nan")
                if with_nan and rng.random() < 0.2
                else round(rng.uniform(-2.0, 8.0), 3)
                for _ in range(m)
            ],
        },
        replace=True,
    )
    conn.commit()


def random_join_query(rng):
    """A two-table join with a random mix of unary predicates."""
    predicates = [column_equals_column("a", "id", "b", "id")]
    pool = [
        column_compare_literal(
            "a", "val", rng.choice(["<", "<=", ">", ">=", "!=", "="]), rng.randint(-2, 6)
        ),
        column_compare_literal("a", "tag", "=", rng.choice(TAGS[:3])),
        column_compare_literal("b", "score", ">", round(rng.uniform(-1.0, 4.0), 2)),
        Predicate(
            FunctionCall("add", (ColumnRef("a", "val"), Literal(1))),
            ">=",
            Literal(rng.randint(-1, 5)),
        ),
    ]
    predicates.extend(rng.sample(pool, rng.randint(1, 3)))
    return make_query(
        [("a", "t0"), ("b", "t1")],
        predicates=predicates,
        select_items=[
            SelectItem(expression=ColumnRef("a", "id"), alias="id"),
            SelectItem(expression=ColumnRef("a", "val"), alias="val"),
            SelectItem(expression=ColumnRef("a", "tag"), alias="tag"),
            SelectItem(expression=ColumnRef("b", "score"), alias="score"),
        ],
    )


def rows_of(result):
    """Result rows as comparable tuples (NaN mapped to a sentinel that
    compares equal to itself, unlike ``float('nan')``)."""

    def norm(value):
        if isinstance(value, float) and value != value:
            return "<NaN>"
        return value

    return [tuple(norm(value) for value in row.values()) for row in result.rows]


class TestSqliteEquivalence:
    """Byte-identical rows between internal and sqlite-backed Skinner-G/H."""

    @pytest.mark.parametrize("seed", range(6))
    def test_skinner_g_rows_identical_on_random_queries(self, seed):
        rng = random.Random(seed)
        conn = connect(FAST)
        try:
            seed_random_tables(conn, rng, with_nan=True)
            for _ in range(3):
                query = random_join_query(rng)
                internal = conn.execute_direct(query, engine="skinner-g")
                external = conn.execute_direct(query, engine="skinner_g_sqlite")
                assert rows_of(external) == rows_of(internal)
        finally:
            conn.close()

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_skinner_h_rows_identical_on_random_queries(self, seed):
        # NaN-free data: skinner-h's statistics collection histograms every
        # float column and does not tolerate all-NaN ranges.
        rng = random.Random(seed)
        conn = connect(FAST)
        try:
            seed_random_tables(conn, rng, with_nan=False)
            query = random_join_query(rng)
            internal = conn.execute_direct(query, engine="skinner-h")
            external = conn.execute_direct(query, engine="skinner_h_sqlite")
            assert rows_of(external) == rows_of(internal)
        finally:
            conn.close()

    def test_charges_are_deterministic_across_runs(self):
        rng = random.Random(11)
        readings = []
        for _ in range(2):
            conn = connect(FAST)
            try:
                seed_random_tables(conn, random.Random(11), with_nan=True)
                query = random_join_query(rng)
                rng = random.Random(11)  # reset so both runs build one query
                query = random_join_query(rng)
                result = conn.execute_direct(query, engine="skinner_g_sqlite")
                readings.append((rows_of(result), result.metrics.work))
            finally:
                conn.close()
        assert readings[0] == readings[1]

    @pytest.mark.parametrize("external_engine, internal_engine",
                             [("skinner_g_sqlite", "skinner-g"),
                              ("skinner_h_sqlite", "skinner-h")])
    def test_udf_query_falls_back_with_warning(self, external_engine, internal_engine):
        """The provider warns once per statement and hands it to the plan
        executor, which charges what the internal engine charges."""
        conn = connect(FAST)
        try:
            seed_random_tables(conn, random.Random(2))
            conn.register_udf("same_parity", lambda a, b: a % 2 == b % 2)
            query = make_query(
                [("a", "t0"), ("b", "t1")],
                predicates=[
                    column_equals_column("a", "id", "b", "id"),
                    udf_predicate("same_parity", ("a", "val"), ("b", "id")),
                ],
                select_items=[
                    SelectItem(expression=ColumnRef("a", "val"), alias="val"),
                    SelectItem(expression=ColumnRef("b", "id"), alias="id"),
                ],
            )
            internal = conn.execute_direct(query, engine=internal_engine)
            for _ in range(2):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    external = conn.execute_direct(query, engine=external_engine)
                assert [warning.category for warning in caught] == [RuntimeWarning]
                assert "falling back" in str(caught[0].message)
                assert rows_of(external) == rows_of(internal)
                assert external.metrics.work == internal.metrics.work
        finally:
            conn.close()

    def test_streaming_cursor_matches_direct_rows(self):
        conn = connect(FAST)
        try:
            seed_random_tables(conn, random.Random(4))
            query = random_join_query(random.Random(4))
            direct = conn.execute_direct(query, engine="skinner_g_sqlite")
            with conn.cursor() as cursor:
                cursor.execute(query, engine="skinner_g_sqlite")
                streamed = []
                while True:
                    batch = cursor.fetchmany(3)
                    if not batch:
                        break
                    streamed.extend(batch)
            assert sorted(streamed) == sorted(rows_of(direct))
        finally:
            conn.close()


class RecordingAdapter(SqliteAdapter):
    """A sqlite adapter that keeps every statement it ran and what it read."""

    def __init__(self):
        super().__init__()
        self.statements = []

    def run_batch(self, sql, params=(), budget=None):
        outcome = super().run_batch(sql, params, budget)
        self.statements.append((sql, tuple(params), budget, outcome.ticks, outcome.delivered))
        return outcome


def engine_on(adapter, engine_class, catalog, config):
    """Skinner-G or Skinner-H whose every query runs on ``adapter``."""

    def provider(catalog, query, udfs):
        return ExternalGenericEngine(catalog, query, adapter)

    return engine_class(catalog, None, config, generic_engine=provider, backend_label="sqlite")


def is_filter(statement):
    """Pre-processing statements are the only ones the emitter orders."""
    return "ORDER BY" in statement[0]


def history_workload(conn):
    """Three tables and six statements whose columns overlap: between them
    they index ``id``, ``k`` and ``val``/``w`` of tables that other
    statements filter on those very columns or join without an equality, so
    a statement run last finds indexes it never asked for — and an unhinted
    sqlite would use them."""
    rng = random.Random(99)
    for name, extra in (("t0", "val"), ("t1", "score"), ("t2", "w")):
        conn.create_table(name, {
            "id": [rng.randint(0, 99) for _ in range(400)],
            "k": [rng.randint(0, 39) for _ in range(400)],
            extra: [rng.randint(-4, 9) for _ in range(400)],
        }, replace=True)
    conn.commit()
    select = [SelectItem(expression=ColumnRef("a", "id"), alias="id")]
    statements = [
        ([("a", "t0"), ("b", "t1")],
         [column_equals_column("a", "id", "b", "id"),
          column_compare_literal("a", "k", "=", 3)]),
        ([("a", "t0"), ("b", "t1"), ("c", "t2")],
         [column_equals_column("a", "k", "b", "k"),
          column_equals_column("b", "id", "c", "id"),
          column_compare_literal("a", "val", ">", 5)]),
        ([("a", "t0"), ("c", "t2")],
         [column_equals_column("a", "val", "c", "w"),
          column_compare_literal("a", "id", "<", 4),
          column_compare_literal("c", "k", "<", 9)]),
        ([("a", "t0"), ("b", "t1")],
         [column_equals_column("a", "id", "b", "id"),
          column_equals_column("a", "k", "b", "k")]),
        ([("a", "t0"), ("c", "t2")],
         [column_equals_column("a", "id", "c", "id"),
          Predicate(ColumnRef("a", "val"), ">", ColumnRef("c", "w")),
          column_compare_literal("c", "k", "=", 2)]),
        ([("a", "t0"), ("b", "t1")],
         [Predicate(ColumnRef("a", "val"), "<", ColumnRef("b", "score")),
          column_compare_literal("a", "id", "=", 7),
          column_compare_literal("b", "k", "=", 3)]),
    ]
    return [make_query(tables, predicates=predicates, select_items=select)
            for tables, predicates in statements]


class TestHostStatements:
    """What the hybrid asks of its host, and what a statement costs there."""

    def test_round_zero_win_is_one_host_statement(self):
        conn = connect(FAST)
        adapter = RecordingAdapter()
        try:
            seed_random_tables(conn, random.Random(7))
            query = random_join_query(random.Random(7))
            hybrid = engine_on(adapter, SkinnerH, conn.catalog,
                               FAST.with_overrides(base_timeout=10_000))
            result = hybrid.execute(query)
            extra = dict(result.metrics.extra)
            assert extra.pop("timed_out") is False and extra.pop("episode_wall_seconds") > 0
            assert extra == {
                "winner": "traditional", "rounds": 1, "plan": result.metrics.final_join_order}
            assert result.metrics.time_slices == 0 and result.metrics.uct_nodes == 0
            assert len(adapter.statements) == 1
            assert not is_filter(adapter.statements[0])
            assert rows_of(result) == rows_of(conn.execute_direct(query, engine="skinner-h"))
        finally:
            adapter.close()
            conn.close()

    def test_timed_out_round_zero_filters_each_alias_once(self):
        conn = connect(FAST)
        adapter = RecordingAdapter()
        try:
            seed_random_tables(conn, random.Random(7))
            query = random_join_query(random.Random(7))
            hybrid = engine_on(adapter, SkinnerH, conn.catalog,
                               FAST.with_overrides(base_timeout=1))
            result = hybrid.execute(query)
            assert result.metrics.extra["rounds"] > 1
            assert adapter.statements[0][2] == 1 and not is_filter(adapter.statements[0])
            filters = [statement[0] for statement in adapter.statements if is_filter(statement)]
            assert len(filters) == len(set(filters)) == len(query.aliases)
            assert rows_of(result) == rows_of(conn.execute_direct(query, engine="skinner-h"))
        finally:
            adapter.close()
            conn.close()

    @pytest.mark.parametrize("engine_class", [SkinnerG, SkinnerH])
    def test_cost_is_independent_of_history(self, engine_class):
        """Same statement, same mirror content: same ticks, rows and meter
        charges on a fresh mirror and on one that every other statement of
        the workload has already run on (and left its indexes in)."""
        config = FAST.with_overrides(base_timeout=40)
        conn = connect(FAST)
        try:
            queries = history_workload(conn)
            for position, query in enumerate(queries):
                fresh, seasoned = RecordingAdapter(), RecordingAdapter()
                try:
                    alone = engine_on(fresh, engine_class, conn.catalog, config).execute(query)
                    others = engine_on(seasoned, SkinnerG, conn.catalog, config)
                    for other in queries[:position] + queries[position + 1:]:
                        others.execute(other)
                    del seasoned.statements[:]
                    last = engine_on(seasoned, engine_class, conn.catalog, config).execute(query)
                    assert seasoned.statements == fresh.statements
                    assert last.metrics.work == alone.metrics.work
                    assert rows_of(last) == rows_of(alone)
                finally:
                    fresh.close()
                    seasoned.close()
        finally:
            conn.close()

    def test_forced_join_reads_inner_aliases_through_the_mirror_index(self):
        conn = connect(FAST)
        adapter = SqliteAdapter()
        try:
            query = history_workload(conn)[1]
            engine = ExternalGenericEngine(conn.catalog, query, adapter)
            emitter = SqlEmitter(conn.catalog, query)
            for order in (("a", "b", "c"), ("c", "b", "a"), ("b", "a", "c")):
                sql, params = emitter.join_sql(order, {order[0]: (0, 19), order[1]: (5, None)})
                plan = [row[3] for row in
                        adapter._require_conn().execute("EXPLAIN QUERY PLAN " + sql, params)]
                assert len(plan) == 3 and not any("AUTOMATIC" in step for step in plan)
                assert plan[0].startswith(f"SEARCH {order[0]} USING INTEGER PRIMARY KEY")
                for alias, step in zip(order[1:], plan[1:]):
                    assert step.startswith(f"SEARCH {alias} USING")
                    assert "INDEX _repro_ix_" in step
            meter, relation = engine.execute_plan(("c", "b", "a"), 10**9)
            assert relation is not None and meter.total > 0
        finally:
            adapter.close()
            conn.close()


class TestMirrorLifecycle:
    def test_rollback_triggers_re_mirror(self):
        conn = connect(FAST)
        try:
            conn.create_table("t", {"x": [1, 2, 3]})
            conn.commit()
            query = make_query(
                [("t", "t")],
                select_items=[SelectItem(expression=ColumnRef("t", "x"), alias="x")],
            )
            before = rows_of(conn.execute_direct(query, engine="skinner_g_sqlite"))
            assert sorted(before) == [(1,), (2,), (3,)]
            conn.create_table("t", {"x": [7, 8]}, replace=True)
            replaced = rows_of(conn.execute_direct(query, engine="skinner_g_sqlite"))
            assert sorted(replaced) == [(7,), (8,)]
            conn.rollback()
            restored = rows_of(conn.execute_direct(query, engine="skinner_g_sqlite"))
            assert sorted(restored) == [(1,), (2,), (3,)]
        finally:
            conn.close()

    def test_sibling_commit_leaves_untouched_mirror_file_alone(self):
        """Delta re-mirroring: a commit to one table must not rewrite the
        per-table mirror file of an untouched sibling (mtime and bytes both
        stable), while the touched table's file does change."""
        import hashlib

        def sha(path):
            with open(path, "rb") as handle:
                return hashlib.sha256(handle.read()).hexdigest()

        conn = connect(FAST)
        try:
            conn.create_table("a", {"x": [1, 2, 3]})
            conn.create_table("b", {"y": [1, 2]})
            conn.commit()
            query = make_query(
                [("a", "a"), ("b", "b")],
                predicates=[column_equals_column("a", "x", "b", "y")],
                select_items=[SelectItem(expression=ColumnRef("a", "x"), alias="x")],
            )
            assert sorted(rows_of(conn.execute_direct(query, engine="skinner_g_sqlite"))) \
                == [(1,), (2,)]
            adapter = sqlite_adapter_for(conn.catalog)
            a_path, b_path = adapter.table_path("a"), adapter.table_path("b")
            b_mtime, b_sha = os.stat(b_path).st_mtime_ns, sha(b_path)
            a_sha = sha(a_path)
            conn.create_table("a", {"x": [2, 9]}, replace=True)
            conn.commit()
            assert sorted(rows_of(conn.execute_direct(query, engine="skinner_g_sqlite"))) \
                == [(2,)]
            assert adapter.table_path("b") == b_path  # path is stable too
            assert os.stat(b_path).st_mtime_ns == b_mtime
            assert sha(b_path) == b_sha
            assert sha(a_path) != a_sha
        finally:
            conn.close()

    def test_index_lives_and_dies_with_its_table_file(self):
        """A sibling's commit leaves a table's index byte-for-byte alone; a
        re-mirror (replace, then rollback) drops it and the next statement
        that joins on the column builds it again."""

        def sha(path):
            with open(path, "rb") as handle:
                return hashlib.sha256(handle.read()).hexdigest()

        def indexes(path):
            reader = sqlite3.connect(path)
            try:
                return [name for (name,) in reader.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'")]
            finally:
                reader.close()

        conn = connect(FAST)
        try:
            conn.create_table("a", {"x": [1, 2, 3]})
            conn.create_table("b", {"y": [1, 2]})
            conn.commit()
            query = make_query(
                [("a", "a"), ("b", "b")],
                predicates=[column_equals_column("a", "x", "b", "y")],
                select_items=[SelectItem(expression=ColumnRef("a", "x"), alias="x")],
            )

            def run():
                return sorted(rows_of(conn.execute_direct(query, engine="skinner_h_sqlite")))

            assert run() == [(1,), (2,)]
            adapter = sqlite_adapter_for(conn.catalog)
            a_path, b_path = adapter.table_path("a"), adapter.table_path("b")
            assert indexes(a_path) == [index_name("a", "x")]
            assert indexes(b_path) == [index_name("b", "y")]
            b_sha = sha(b_path)
            conn.create_table("a", {"x": [2, 9]}, replace=True)
            assert run() == [(2,)]  # INDEXED BY would fail on a missing index
            assert indexes(a_path) == [index_name("a", "x")]
            conn.rollback()
            assert run() == [(1,), (2,)]
            assert indexes(a_path) == [index_name("a", "x")]
            assert sha(b_path) == b_sha
        finally:
            conn.close()

    def test_one_adapter_serves_one_catalog(self):
        """Versions are numbered per catalog: both connections' ``t`` sit at
        the same version, so a shared adapter would serve one's mirror for
        the other's rows.  The second catalog is refused instead."""
        first, second = connect(FAST), connect(FAST)
        adapter = SqliteAdapter()
        try:
            first.create_table("t", {"x": [1, 2, 3]})
            second.create_table("t", {"x": [7, 8]})
            assert first.catalog.version("t") == second.catalog.version("t")
            adapter.mirror(first.catalog, ["t"])
            adapter.mirror(first.catalog, ["t"])  # its own catalog again
            with pytest.raises(InterfaceError, match="another catalog"):
                adapter.mirror(second.catalog, ["t"])
        finally:
            adapter.close()
            first.close()
            second.close()

    def test_mirror_file_removed_on_connection_close(self):
        conn = connect(FAST)
        conn.create_table("t", {"x": [1, 2]})
        query = make_query(
            [("t", "t")],
            select_items=[SelectItem(expression=ColumnRef("t", "x"), alias="x")],
        )
        conn.execute_direct(query, engine="skinner_g_sqlite")
        path = sqlite_adapter_for(conn.catalog).path
        assert os.path.exists(path)
        conn.close()
        assert not os.path.exists(path)

    def test_adapter_close_is_idempotent(self):
        adapter = SqliteAdapter()
        adapter._require_conn()
        path = adapter.path
        adapter.close()
        adapter.close()
        assert not os.path.exists(path)


class TestEmitterRejections:
    def test_bare_udf_predicate_is_unsupported(self, tiny_catalog):
        query = make_query(
            [("o", "orders")],
            predicates=[udf_predicate("is_big", ("o", "amount"))],
            select_items=[SelectItem(expression=ColumnRef("o", "amount"), alias="a")],
        )
        with pytest.raises(UnsupportedQueryError):
            SqlEmitter(tiny_catalog, query)

    def test_mixed_string_numeric_comparison_is_unsupported(self, tiny_catalog):
        query = make_query(
            [("c", "customers")],
            predicates=[column_compare_literal("c", "country", "<", 5)],
            select_items=[SelectItem(expression=ColumnRef("c", "cid"), alias="cid")],
        )
        with pytest.raises(UnsupportedQueryError):
            SqlEmitter(tiny_catalog, query)


class TestEngineSelection:
    """What a resolved ``engine`` does (its resolution and shape checks are
    table-driven in ``tests/test_connection_settings.py``)."""

    def test_unknown_engine_rejected_at_connect(self):
        with pytest.raises(InterfaceError, match="unknown engine"):
            connect(FAST, engine="no-such-engine")

    def test_cursor_inherits_connection_default(self):
        conn = connect(FAST, engine="skinner-g")
        try:
            with conn.cursor() as cursor:
                assert cursor.engine == "skinner-g"
        finally:
            conn.close()

    def test_connection_execute_runs_external_engine(self):
        conn = connect(FAST, autocommit=True)
        try:
            conn.create_table("t", {"x": [3, 1, 2]})
            result = conn.execute("SELECT t.x FROM t", engine="skinner_g_sqlite")
            assert sorted(row["x"] for row in result.rows) == [1, 2, 3]
        finally:
            conn.close()


class TestRemoteSelection:
    """Engine parity across the repro:// wire."""

    def test_dsn_engine_selects_server_side_default(self):
        with ServerThread(config=FAST) as live:
            live.connection.create_table("t", {"x": [1, 2, 3]})
            live.connection.commit()
            conn = connect(f"{live.dsn}?engine=skinner_g_sqlite")
            try:
                assert conn.default_engine == "skinner_g_sqlite"
                assert conn.info()["engine"] == "skinner_g_sqlite"
                result = conn.execute("SELECT t.x FROM t")
                assert sorted(row["x"] for row in result.rows) == [1, 2, 3]
            finally:
                conn.close()

    def test_unknown_engine_rejected_in_handshake(self):
        with ServerThread(config=FAST) as live:
            with pytest.raises(InterfaceError, match="unknown engine"):
                connect(live.dsn, engine="no-such-engine")
