"""Tests for the PEP 249 connection/cursor API and streaming fetches.

The property tests check the acceptance criteria of the API redesign: rows
obtained through ``fetchmany``-streaming, ``fetchall``, ``conn.execute``, and
``conn.execute_direct`` are byte-identical on randomized queries across all
registered engines — including under concurrent cursor interleaving and
mid-stream ``Cursor.close()`` (which must not leak admission slots) — and
streamed queries are charged exactly like unstreamed ones.
"""

import random

import pytest

import repro.api
from repro import ReproError, SkinnerConfig, connect
from repro.errors import CatalogError, ParseError
from repro.serving.session import SessionState
from repro.skinner import parallel

#: Small budgets so learning engines converge quickly on the tiny fixtures;
#: warm start off so served runs are solo-equivalent (the property tests
#: compare against directly executed references).
FAST = SkinnerConfig(
    slice_budget=64,
    batches_per_table=3,
    base_timeout=200,
    serving_warm_start=False,
)


def make_connection(**overrides):
    conn = connect(FAST.with_overrides(**overrides) if overrides else FAST)
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
    return conn


def table_rows(result):
    """A QueryResult's rows as tuples in column order (cursor-comparable)."""
    names = result.table.column_names
    return [tuple(row[name] for name in names) for row in result.rows]


class TestPep249Surface:
    def test_module_globals(self):
        assert repro.api.apilevel == "2.0"
        assert repro.api.paramstyle == "qmark"
        assert repro.api.threadsafety in (0, 1, 2, 3)

    def test_description_before_fetching(self):
        cursor = make_connection().cursor()
        cursor.execute("SELECT r.a AS alpha, r.name FROM r")
        assert [entry[0] for entry in cursor.description] == ["alpha", "name"]
        assert all(len(entry) == 7 for entry in cursor.description)

    def test_description_star_expansion(self):
        cursor = make_connection().cursor()
        cursor.execute("SELECT * FROM s")
        assert [entry[0] for entry in cursor.description] == ["s_rid", "s_c"]

    def test_fetchone_exhausts_to_none(self):
        cursor = make_connection().cursor()
        cursor.execute("SELECT r.id FROM r WHERE r.a = 30")
        assert cursor.fetchone() == (4,)
        assert cursor.fetchone() is None

    def test_fetchmany_respects_arraysize(self):
        cursor = make_connection().cursor()
        cursor.arraysize = 4
        cursor.execute("SELECT r.id FROM r")
        first = cursor.fetchmany()
        assert 0 < len(first) <= 4

    def test_iteration_protocol(self):
        cursor = make_connection().cursor()
        cursor.execute("SELECT r.id FROM r WHERE r.a = 10")
        assert sorted(cursor) == [(1,), (3,), (6,)]

    def test_rowcount_known_after_completion(self):
        cursor = make_connection().cursor()
        cursor.execute("SELECT r.id FROM r")
        cursor.fetchall()
        assert cursor.rowcount == 6

    def test_execute_returns_cursor_for_chaining(self):
        cursor = make_connection().cursor()
        assert cursor.execute("SELECT r.id FROM r") is cursor

    def test_fetch_without_execute_raises(self):
        cursor = make_connection().cursor()
        with pytest.raises(ReproError, match="no query"):
            cursor.fetchall()

    def test_closed_cursor_raises(self):
        cursor = make_connection().cursor()
        cursor.close()
        with pytest.raises(ReproError, match="cursor is closed"):
            cursor.execute("SELECT r.id FROM r")

    def test_closed_connection_raises(self):
        conn = make_connection()
        conn.close()
        with pytest.raises(ReproError, match="connection is closed"):
            conn.cursor()

    def test_context_managers(self):
        with make_connection() as conn:
            with conn.cursor() as cursor:
                cursor.execute("SELECT COUNT(*) AS n FROM r")
                assert cursor.fetchone() == (6,)
            assert cursor.closed
        assert conn.closed

    def test_ordered_query_delivers_in_order(self):
        cursor = make_connection().cursor()
        cursor.execute("SELECT r.id FROM r ORDER BY r.id DESC LIMIT 3")
        assert cursor.fetchall() == [(6,), (5,), (4,)]


class TestParameterBinding:
    def test_qmark_parameters(self):
        cursor = make_connection().cursor()
        cursor.execute("SELECT r.id FROM r WHERE r.a = ? AND r.id > ?", (10, 1))
        assert sorted(cursor.fetchall()) == [(3,), (6,)]

    def test_named_parameters(self):
        cursor = make_connection().cursor()
        cursor.execute(
            "SELECT r.id FROM r WHERE r.name = :who", {"who": "eve"}
        )
        assert cursor.fetchall() == [(5,)]

    def test_string_parameters_are_not_interpolated(self):
        cursor = make_connection().cursor()
        cursor.execute("SELECT r.id FROM r WHERE r.name = ?", ("o' brien",))
        assert cursor.fetchall() == []

    def test_parameter_count_mismatch(self):
        cursor = make_connection().cursor()
        with pytest.raises(ParseError, match="positional parameter"):
            cursor.execute("SELECT r.id FROM r WHERE r.a = ?", (1, 2))

    def test_missing_parameters(self):
        cursor = make_connection().cursor()
        with pytest.raises(ParseError, match="no parameters were given"):
            cursor.execute("SELECT r.id FROM r WHERE r.a = ?")

    def test_missing_named_parameter(self):
        cursor = make_connection().cursor()
        with pytest.raises(ParseError, match="missing named parameter"):
            cursor.execute("SELECT r.id FROM r WHERE r.a = :a", {"b": 1})

    def test_mixed_styles_rejected(self):
        cursor = make_connection().cursor()
        with pytest.raises(ParseError, match="mix"):
            cursor.execute("SELECT r.id FROM r WHERE r.a = ? AND r.id = :i", (1,))

    def test_superfluous_parameters_rejected(self):
        cursor = make_connection().cursor()
        with pytest.raises(ParseError, match="no parameter placeholders"):
            cursor.execute("SELECT r.id FROM r", (1,))

    def test_executemany(self):
        cursor = make_connection().cursor()
        cursor.executemany(
            "SELECT r.id FROM r WHERE r.a = ?", [(10,), (20,), (30,)]
        )
        # PEP 249: result sets of executemany are discarded; the cursor
        # stays usable for the next execute.
        cursor.execute("SELECT COUNT(*) AS n FROM r")
        assert cursor.fetchone() == (6,)

    def test_connection_execute_accepts_params(self):
        conn = connect(FAST, autocommit=True)
        conn.create_table("r", {"id": [1, 2], "a": [5, 7]})
        result = conn.execute("SELECT r.id FROM r WHERE r.a = ?", params=(7,))
        assert table_rows(result) == [(2,)]


class TestSchemaTransactions:
    def test_rollback_restores_tables(self):
        conn = make_connection()
        conn.create_table("tmp", {"x": [1]})
        assert conn.catalog.has_table("tmp")
        conn.rollback()
        assert not conn.catalog.has_table("tmp")
        assert conn.catalog.has_table("r")

    def test_rollback_restores_replaced_table(self):
        conn = make_connection()
        conn.create_table("r", {"id": [99]}, replace=True)
        conn.rollback()
        cursor = conn.cursor()
        cursor.execute("SELECT COUNT(*) AS n FROM r")
        assert cursor.fetchone() == (6,)

    def test_commit_makes_changes_permanent(self):
        conn = make_connection()
        conn.create_table("tmp", {"x": [1]})
        conn.commit()
        conn.rollback()
        assert conn.catalog.has_table("tmp")

    def test_rollback_restores_udfs(self):
        conn = make_connection()
        conn.register_udf("double", lambda v: v * 2)
        assert conn.udfs.has("double")
        conn.rollback()
        assert not conn.udfs.has("double")

    def test_close_rolls_back(self):
        conn = make_connection()
        conn.create_table("tmp", {"x": [1]})
        conn.close()
        assert not conn.catalog.has_table("tmp")

    def test_context_manager_commits_on_success(self):
        with make_connection() as conn:
            conn.create_table("tmp", {"x": [1]})
        assert conn.catalog.has_table("tmp")

    def test_autocommit_commits_every_mutation(self):
        conn = connect(FAST, autocommit=True)
        conn.create_table("t", {"x": [1]})
        conn.rollback()  # no open transaction: a no-op
        assert conn.catalog.has_table("t")


class TestLoadCsvReplace:
    """Satellite: ``load_csv`` gains ``replace=`` for parity with
    ``create_table`` / ``add_table``."""

    def _write_csv(self, tmp_path, rows):
        path = tmp_path / "cities.csv"
        path.write_text("city,pop\n" + "\n".join(rows) + "\n")
        return path

    def test_connection_reload_requires_replace(self, tmp_path):
        conn = connect(FAST)
        path = self._write_csv(tmp_path, ["rome,3", "oslo,1"])
        conn.load_csv(path)
        with pytest.raises(CatalogError):
            conn.load_csv(path)
        path = self._write_csv(tmp_path, ["rome,4"])
        conn.load_csv(path, replace=True)
        assert conn.execute("SELECT COUNT(*) AS n FROM cities").rows[0]["n"] == 1


class TestStreaming:
    """Acceptance: fetchmany returns its first batch strictly before query
    completion, measured on the deterministic work-unit clock."""

    @staticmethod
    def _big_connection(rows=3000, seed=11, **overrides):
        rng = random.Random(seed)
        conn = connect(FAST.with_overrides(slice_budget=500, **overrides))
        keys = max(1, rows // 3)
        conn.create_table("a", {
            "k": [rng.randrange(keys) for _ in range(rows)],
            "v": [rng.randrange(100) for _ in range(rows)],
        })
        conn.create_table("b", {
            "k": [rng.randrange(keys) for _ in range(rows)],
            "w": [rng.randrange(100) for _ in range(rows)],
        })
        conn.commit()
        return conn

    SQL = "SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.v < 10"

    def test_first_batch_strictly_before_completion(self):
        conn = self._big_connection()
        cursor = conn.cursor()
        cursor.execute(self.SQL, use_result_cache=False)
        first = cursor.fetchmany(5)
        assert first, "streaming produced no first batch"
        session = conn.server.session(cursor.ticket)
        assert session.stream is not None and session.stream.incremental
        assert session.state is SessionState.RUNNING, (
            "first batch must arrive while the query is still running"
        )
        first_at = session.stream.first_rows_at_work
        rest = cursor.fetchall()
        completed_at = session.completed_at_work
        assert first_at is not None and completed_at is not None
        assert first_at < completed_at
        reference = conn.execute_direct(self.SQL)
        assert sorted(first + rest) == sorted(table_rows(reference))

    def test_streamed_charges_identical_to_unstreamed(self):
        conn = self._big_connection()
        cursor = conn.cursor()
        cursor.execute(self.SQL, use_result_cache=False)
        cursor.fetchmany(5)
        streamed = cursor.result().metrics
        direct = conn.execute_direct(self.SQL).metrics
        assert streamed.work == direct.work

    def test_blocking_queries_deliver_at_completion(self):
        conn = self._big_connection()
        cursor = conn.cursor()
        cursor.execute(
            "SELECT a.v, COUNT(*) AS n FROM a, b WHERE a.k = b.k GROUP BY a.v",
            use_result_cache=False,
        )
        rows = cursor.fetchall()
        session = conn.server.session(cursor.ticket)
        assert session.stream is not None and not session.stream.incremental
        reference = conn.execute_direct(
            "SELECT a.v, COUNT(*) AS n FROM a, b WHERE a.k = b.k GROUP BY a.v"
        )
        assert rows == table_rows(reference)

    def test_cache_hit_streams_completed_result(self):
        conn = self._big_connection()
        warm = conn.cursor()
        warm.execute(self.SQL)
        expected = warm.fetchall()
        cached = conn.cursor()
        cached.execute(self.SQL)
        session = conn.server.session(cached._ticket)
        assert session.cache_hit
        assert sorted(cached.fetchall()) == sorted(expected)

    def test_mid_stream_close_releases_admission_slot(self):
        conn = self._big_connection(serving_max_inflight=1)
        hog = conn.cursor()
        hog.execute(self.SQL, use_result_cache=False)
        assert hog.fetchmany(3)  # running, holding the only slot
        waiting = conn.cursor()
        waiting.execute("SELECT COUNT(*) AS n FROM a", use_result_cache=False)
        assert conn.server.stats()["queued"] == 1
        hog.close()  # mid-stream: must hand the slot to the queued query
        assert waiting.fetchone()[0] == 3000
        stats = conn.server.stats()
        assert stats["inflight"] == 0 and stats["queued"] == 0


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


class TestPropertyByteIdentical:
    """Property: fetchmany-streamed rows, fetchall, conn.execute, and
    conn.execute_direct agree on randomized queries across all registered
    engines (same rows, same meter charges)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_four_paths_agree_across_engines(self, seed, baseline_engines):
        rng = random.Random(seed)
        for _ in range(3):
            sql = _random_query(rng)
            for engine in repro.api.DEFAULT_REGISTRY.names():
                conn = make_connection()
                streaming = conn.cursor()
                streaming.execute(sql, engine=engine, use_result_cache=False)
                streamed = []
                while True:
                    batch = streaming.fetchmany(3)
                    if not batch:
                        break
                    streamed.extend(batch)
                charges = streaming.result().metrics.work

                whole = conn.cursor()
                whole.execute(sql, engine=engine, use_result_cache=False)
                fetched = whole.fetchall()

                served = conn.execute(sql, engine=engine, use_result_cache=False)
                direct = conn.execute_direct(sql, engine=engine)

                key = (sql, engine)
                assert sorted(streamed) == sorted(table_rows(direct)), key
                assert sorted(fetched) == sorted(table_rows(direct)), key
                assert sorted(table_rows(served)) == sorted(table_rows(direct)), key
                assert charges == direct.metrics.work, key
                assert served.metrics.work == direct.metrics.work, key

    @pytest.mark.parametrize("seed", [4, 5])
    def test_concurrent_interleaving_agrees(self, seed):
        rng = random.Random(seed)
        conn = make_connection()
        engines = ["skinner-c", "skinner-g", "traditional"]
        plans = [(engine, _random_query(rng)) for engine in engines]
        cursors = []
        for engine, sql in plans:
            cursor = conn.cursor()
            cursor.execute(sql, engine=engine, use_result_cache=False)
            cursors.append(cursor)
        collected = [[] for _ in cursors]
        exhausted = [False] * len(cursors)
        while not all(exhausted):
            for index, cursor in enumerate(cursors):
                if exhausted[index]:
                    continue
                batch = cursor.fetchmany(2)
                if batch:
                    collected[index].extend(batch)
                else:
                    exhausted[index] = True
        for (engine, sql), rows, cursor in zip(plans, collected, cursors):
            direct = conn.execute_direct(sql, engine=engine)
            assert sorted(rows) == sorted(table_rows(direct)), (engine, sql)
            assert cursor.result().metrics.work == direct.metrics.work, (engine, sql)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_mid_stream_close_under_interleaving(self, seed):
        rng = random.Random(seed)
        conn = make_connection(serving_max_inflight=2)
        sqls = [_random_query(rng) for _ in range(4)]
        cursors = []
        for sql in sqls:
            cursor = conn.cursor()
            cursor.execute(sql, use_result_cache=False)
            cursors.append(cursor)
        cursors[0].fetchmany(1)
        cursors[0].close()  # mid-stream
        cursors[2].close()  # possibly still queued
        for sql, cursor in zip(sqls, cursors):
            if cursor.closed:
                continue
            direct = conn.execute_direct(sql)
            assert sorted(cursor.fetchall()) == sorted(table_rows(direct)), sql
        stats = conn.server.stats()
        assert stats["inflight"] == 0 and stats["queued"] == 0


class TestFetchEdgeCases:
    """Regressions: fetch on sessions that have no stream buffer yet."""

    def test_fetch_on_queued_session_drives_the_scheduler(self):
        # With one admission slot, the second cursor's session is QUEUED
        # (no stream buffer yet); fetching from it must drive the scheduler
        # until it is admitted and produces rows — not raise.
        conn = make_connection(serving_max_inflight=1)
        hog = conn.cursor()
        hog.execute("SELECT r.name, s.c FROM r, s WHERE r.id = s.rid",
                    use_result_cache=False)
        waiting = conn.cursor()
        waiting.execute("SELECT COUNT(*) AS n FROM r", use_result_cache=False)
        assert conn.server.session(waiting.ticket).state is SessionState.QUEUED
        assert waiting.fetchone() == (6,)
        assert sorted(hog.fetchall()) == sorted(
            table_rows(conn.execute_direct(
                "SELECT r.name, s.c FROM r, s WHERE r.id = s.rid"))
        )

    def test_fetch_surfaces_task_construction_failure(self):
        # A streaming session that fails before activation completes (here:
        # a UDF raising during pre-processing) has no stream buffer; fetch
        # must raise the real error, not a bogus stream=True complaint.
        conn = make_connection()

        def broken(value):
            raise RuntimeError("udf exploded")

        conn.register_udf("broken", broken)
        cursor = conn.cursor()
        cursor.execute("SELECT r.id FROM r WHERE broken(r.a)",
                       use_result_cache=False)
        with pytest.raises(RuntimeError, match="udf exploded"):
            cursor.fetchall()

    def test_fetch_without_stream_submission_rejected(self):
        conn = make_connection()
        ticket = conn.server.submit("SELECT r.id FROM r")
        with pytest.raises(ReproError, match="stream=True"):
            conn.server.fetch_batch(ticket)


class TestPrebuiltQueryParameters:
    """Regression: parameters next to a prebuilt Query must not be dropped."""

    def test_cursor_rejects_params_with_query_object(self):
        conn = make_connection()
        query = conn.parse("SELECT r.id FROM r")
        with pytest.raises(ReproError, match="prebuilt Query"):
            conn.cursor().execute(query, (1,))

    def test_connection_paths_reject_params_with_query_object(self):
        conn = make_connection()
        query = conn.parse("SELECT r.id FROM r")
        with pytest.raises(ReproError, match="prebuilt Query"):
            conn.execute(query, params=(1,))
        with pytest.raises(ReproError, match="prebuilt Query"):
            conn.execute_direct(query, params=(1,))

    def test_query_object_without_params_still_works(self):
        conn = make_connection()
        query = conn.parse("SELECT COUNT(*) AS n FROM r")
        cursor = conn.cursor()
        cursor.execute(query)
        assert cursor.fetchone() == (6,)


class TestFingerprintCollisions:
    """Regression: a bound string containing quote/SQL text must never share
    a result-cache fingerprint with a structurally different query."""

    def test_injection_shaped_parameter_does_not_poison_the_cache(self):
        conn = make_connection()
        bound = conn.execute(
            "SELECT r.id FROM r WHERE r.name = ?",
            params=("ann' AND r.name = 'bob",),
        )
        assert bound.rows == []
        literal = conn.execute("SELECT r.id FROM r WHERE r.name = 'ann'")
        assert literal.metrics.extra.get("result_cache") is None
        assert table_rows(literal) == [(1,)]

    def test_escaped_display_reparses_to_same_literal(self):
        conn = make_connection()
        query = conn.parse("SELECT r.id FROM r WHERE r.name = ?",
                           params=("o' brien",))
        reparsed = conn.parse(query.display())
        assert reparsed.predicates[0].right == query.predicates[0].right


class TestEngineUnregisteredMidFlight:
    """Regression: an engine vanishing between submission and activation
    fails its own session, not whichever session's step() promoted it."""

    def test_promotion_failure_hits_the_right_session(self):
        from repro.api import DEFAULT_REGISTRY, register_engine

        traditional = DEFAULT_REGISTRY.resolve("traditional")
        register_engine(name="toy2", factory=traditional.factory,
                        task_class=traditional.task_class)
        try:
            conn = make_connection(serving_max_inflight=1)
            first = conn.server.submit(
                "SELECT r.name, s.c FROM r, s WHERE r.id = s.rid",
                use_result_cache=False,
            )
            second = conn.server.submit("SELECT r.id FROM r", engine="toy2",
                                        use_result_cache=False)
            DEFAULT_REGISTRY.unregister("toy2")
            # The first query must complete normally; the second must fail
            # with the unknown-engine error once it gets promoted.
            result = conn.server.result(first)
            assert result.table.num_rows > 0
            with pytest.raises(ReproError, match="unknown engine 'toy2'"):
                conn.server.result(second)
            stats = conn.server.stats()
            assert stats["inflight"] == 0 and stats["queued"] == 0
        finally:
            DEFAULT_REGISTRY.unregister("toy2")


class TestLimitPushdown:
    """LIMIT on a streamable query stops scheduling once the cursor's row
    budget is filled and releases the admission slot early."""

    SQL = "SELECT a.v, b.w FROM a, b WHERE a.k = b.k LIMIT 4"

    @staticmethod
    def _conn(**overrides):
        return TestStreaming._big_connection(**overrides)

    def test_limited_query_completes_early_with_less_work(self):
        conn = self._conn()
        limited = conn.cursor()
        limited.execute(self.SQL, use_result_cache=False)
        rows = limited.fetchall()
        assert len(rows) == 4
        session = conn.server.session(limited.ticket)
        assert session.state is SessionState.FINISHED
        assert session.result.metrics.extra.get("limit_pushdown") is True
        # The full (unlimited) join costs strictly more work.
        full = conn.cursor()
        full.execute(self.SQL.replace(" LIMIT 4", ""), use_result_cache=False)
        full.fetchall()
        limited_work = session.result.metrics.work.total
        full_work = conn.server.session(full.ticket).result.metrics.work.total
        assert 0 < limited_work < full_work

    @pytest.mark.parametrize("workers", [1, 2])
    def test_limited_metrics_report_the_ledger(self, workers, monkeypatch):
        """A query abandoned at its LIMIT reports all the work it was
        charged, the morsel pilot's included, and the fields of a full run."""
        monkeypatch.setattr(parallel, "MORSELS", 4)
        monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 8)
        conn = self._conn(parallel_workers=workers)
        try:
            limited = conn.cursor()
            limited.execute(self.SQL, use_result_cache=False)
            assert len(limited.fetchall()) == 4
            metrics = conn.server.session(limited.ticket).result.metrics
            assert metrics.extra.get("limit_pushdown") is True
            assert metrics.work.total == conn.server.ledger.total(limited.ticket)
            assert metrics.time_slices >= 1
            full = conn.execute_direct(self.SQL.replace(" LIMIT 4", "")).metrics
            assert metrics.extra.keys() - {"limit_pushdown"} == full.extra.keys()
        finally:
            conn.close()

    def test_limited_rows_are_a_subset_of_the_full_result(self):
        conn = self._conn()
        limited = conn.cursor()
        limited.execute(self.SQL, use_result_cache=False)
        rows = limited.fetchall()
        reference = set(table_rows(conn.execute_direct(
            self.SQL.replace(" LIMIT 4", ""))))
        assert len(rows) == 4 and all(row in reference for row in rows)
        assert limited.rowcount == 4

    def test_limit_completion_releases_admission_slot_without_close(self):
        conn = self._conn(serving_max_inflight=1)
        limited = conn.cursor()
        limited.execute(self.SQL, use_result_cache=False)
        waiting = conn.cursor()
        waiting.execute("SELECT COUNT(*) AS n FROM a", use_result_cache=False)
        assert conn.server.stats()["queued"] == 1
        assert len(limited.fetchall()) == 4
        # The limited cursor stays open; completing the limit alone must
        # have handed the slot onward.
        assert waiting.fetchone() == (3000,)
        stats = conn.server.stats()
        assert stats["inflight"] == 0 and stats["queued"] == 0

    def test_limited_results_never_enter_the_result_cache(self):
        # A pushed-down LIMIT returns *a* valid prefix, not the canonical
        # completion-ordered one — caching it would leak that choice into
        # later submissions.
        conn = self._conn()
        first = conn.cursor()
        first.execute(self.SQL)
        first.fetchall()
        again = conn.cursor()
        again.execute(self.SQL)
        again.fetchall()
        assert not conn.server.session(again.ticket).cache_hit

    def test_blocking_limit_still_delivers_canonical_order(self):
        conn = self._conn()
        cursor = conn.cursor()
        sql = "SELECT a.v FROM a WHERE a.v < 50 ORDER BY a.v LIMIT 5"
        cursor.execute(sql, use_result_cache=False)
        session = conn.server.session(cursor.ticket)
        assert cursor.fetchall() == table_rows(conn.execute_direct(sql))
        assert not session.stream.incremental
        assert session.result.metrics.extra.get("limit_pushdown") is None

    def test_repeated_output_names_are_named_like_a_full_run(self):
        # "SELECT a.v, b.v" names its columns v and v_1 in a full run; the
        # push-down's early result table must name them identically instead
        # of mispairing rows and names.
        conn = self._conn()
        conn.create_table("b2", {"k": [0, 1, 2], "v": [7, 8, 9]})
        conn.commit()
        sql = "SELECT a.v, b2.v FROM a, b2 WHERE a.k = b2.k"
        limited = conn.cursor()
        limited.execute(sql + " LIMIT 3", use_result_cache=False)
        rows = limited.fetchall()
        session = conn.server.session(limited.ticket)
        assert session.result.metrics.extra.get("limit_pushdown") is True
        assert len(rows) == 3 and all(len(row) == 2 for row in rows)
        assert session.result.table.column_names == ["v", "v_1"]
        full = conn.cursor()
        full.execute(sql, use_result_cache=False)
        assert rows == full.fetchall()[:3]


class TestPep249Errors:
    """Use-after-close raises InterfaceError (a ReproError subclass, so
    pre-existing except-clauses keep working); close() is idempotent."""

    def test_interface_error_is_a_repro_error(self):
        from repro import InterfaceError
        assert issubclass(InterfaceError, ReproError)

    def test_connection_close_is_idempotent(self):
        conn = make_connection()
        conn.close()
        conn.close()
        assert conn.closed

    def test_all_cursor_methods_raise_interface_error_after_close(self):
        from repro import InterfaceError
        conn = make_connection()
        cursor = conn.cursor()
        cursor.execute("SELECT r.id FROM r")
        cursor.close()
        cursor.close()  # idempotent too
        for call in (
            lambda: cursor.execute("SELECT r.id FROM r"),
            cursor.fetchone,
            cursor.fetchmany,
            cursor.fetchall,
            cursor.result,
            lambda: cursor.metrics,
        ):
            with pytest.raises(InterfaceError, match="cursor is closed"):
                call()

    def test_connection_methods_raise_interface_error_after_close(self):
        from repro import InterfaceError
        conn = make_connection()
        conn.close()
        for call in (
            conn.cursor,
            lambda: conn.execute("SELECT r.id FROM r"),
            lambda: conn.execute_direct("SELECT r.id FROM r"),
            lambda: conn.create_table("x", {"a": [1]}),
            lambda: conn.drop_table("r"),
            conn.commit,
            conn.stats,
        ):
            with pytest.raises(InterfaceError, match="connection is closed"):
                call()

    def test_fetch_before_execute_raises_interface_error(self):
        from repro import InterfaceError
        cursor = make_connection().cursor()
        with pytest.raises(InterfaceError, match="no query has been executed"):
            cursor.fetchall()


class TestExecuteDirect:
    def test_execute_direct_is_not_deprecated(self):
        import warnings
        conn = make_connection()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = conn.execute_direct("SELECT COUNT(*) AS n FROM r")
        assert result.rows == [{"n": 6}]


class TestRepeatedOutputNames:
    """Two select items named alike are two columns on every engine and path:
    the repeat is suffixed with its position (``id``, ``id_1``), and each
    row carries one value per ``description`` entry."""

    CASES = [
        ("SELECT a.id, b.id FROM a, b WHERE a.k = b.k",
         ["id", "id_1"], {(1, 10), (2, 20)}),
        ("SELECT COUNT(*), COUNT(*) FROM a, b WHERE a.k = b.k",
         ["count(*)", "count(*)_1"], {(2, 2)}),
        ("SELECT a.id AS y, a.k AS y FROM a WHERE a.k < 9",
         ["y", "y_1"], {(1, 7), (2, 8)}),
    ]

    @staticmethod
    def _conn(target=FAST):
        conn = connect(target)
        conn.create_table("a", {"id": [1, 2, 3], "k": [7, 8, 9]})
        conn.create_table("b", {"id": [10, 20, 30], "k": [7, 8, 0]})
        conn.commit()
        return conn

    @staticmethod
    def _fetched(cursor, sql, engine, names):
        cursor.execute(sql, engine=engine, use_result_cache=False)
        assert [column[0] for column in cursor.description] == names, engine
        rows = []
        while batch := cursor.fetchmany(1):
            rows.extend(batch)
        assert all(len(row) == len(cursor.description) for row in rows), engine
        return set(rows)

    @pytest.mark.parametrize("sql, names, expected", CASES, ids=["ids", "counts", "aliases"])
    def test_every_engine_returns_both_columns(self, sql, names, expected, baseline_engines):
        from repro.net.server import ServerThread

        conn = self._conn()
        with ServerThread(config=FAST) as live:
            remote = self._conn(live.dsn)
            try:
                for engine in repro.api.DEFAULT_REGISTRY.names():
                    result = conn.execute(sql, engine=engine, use_result_cache=False)
                    assert result.table.column_names == names, engine
                    assert {tuple(row.values()) for row in result.rows} == expected, engine
                    assert self._fetched(conn.cursor(), sql, engine, names) == expected
                    assert self._fetched(remote.cursor(), sql, engine, names) == expected
            finally:
                remote.close()
        conn.close()
