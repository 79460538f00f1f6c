"""Property tests for writes interleaved with serving (the churn contract).

The documented snapshot semantics: an engine task snapshots its input
tables when its session **activates** (its first scheduling grant), not
when rows are fetched.  Three consequences are pinned here:

* a commit that lands *before* a submission is always visible to it;
* a commit that lands *mid-stream* never changes the rows of an
  already-activated query — and the table versions its session read keep
  that query's (correct-for-its-snapshot, stale-for-everyone-else) result
  out of the result cache, so a post-mutation submission re-executes;
* however submits, fetches, and commits interleave, admission slots are
  never leaked: after draining, ``inflight`` and ``queued`` are zero and
  every query returned exactly its activation-time rows.

Plus the observability satellite: per-tenant cache hit/miss counters in
``tenant_stats()`` and their echo in ``Connection.info()``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SkinnerConfig, connect

FAST = SkinnerConfig(
    slice_budget=32,
    batches_per_table=3,
    base_timeout=150,
    serving_warm_start=False,
    serving_max_inflight=2,
)

SQL = "SELECT t.x FROM t WHERE t.x >= 0"


def rows_of(result):
    table = result.table
    columns = [table.column(name).values() for name in table.column_names]
    return list(zip(*columns))


def fresh_conn(values):
    conn = connect(FAST)
    conn.create_table("t", {"x": list(values)})
    conn.commit()
    return conn


class TestVisibility:
    def test_commit_before_submit_is_visible(self):
        conn = fresh_conn([1, 2, 3])
        try:
            assert sorted(rows_of(conn.execute(SQL))) == [(1,), (2,), (3,)]
            conn.create_table("t", {"x": [7, 8]}, replace=True)
            conn.commit()
            assert sorted(rows_of(conn.execute(SQL))) == [(7,), (8,)]
        finally:
            conn.close()

    def test_mid_stream_commit_keeps_the_activation_snapshot(self):
        conn = fresh_conn(list(range(12)))
        try:
            server = conn.server
            ticket = server.submit(conn.parse(SQL), engine="skinner-c",
                                   stream=True)
            streamed = server.fetch_batch(ticket, 2).row_tuples()  # activates pre-mutation
            conn.create_table("t", {"x": [100, 200]}, replace=True)
            conn.commit()
            while True:
                chunk = server.fetch_batch(ticket, 4).row_tuples()
                if not chunk:
                    break
                streamed.extend(chunk)
            # the activation-time snapshot, not the committed state
            assert sorted(streamed) == [(x,) for x in range(12)]
            assert sorted(rows_of(server.result(ticket))) == \
                [(x,) for x in range(12)]
        finally:
            conn.close()

    def test_table_versions_keep_stale_results_out_of_the_cache(self):
        conn = fresh_conn(list(range(12)))
        try:
            server = conn.server
            ticket = server.submit(conn.parse(SQL), engine="skinner-c",
                                   stream=True)
            server.fetch_batch(ticket, 2).row_tuples()
            conn.create_table("t", {"x": [100, 200]}, replace=True)
            conn.commit()
            server.result(ticket)  # completes after its table's version moved
            # the stale result was discarded instead of cached
            assert server.stats()["result_cache"]["entries"] == 0
            again = server.submit(conn.parse(SQL), engine="skinner-c")
            assert sorted(rows_of(server.result(again))) == [(100,), (200,)]
            session = server.session(again)
            assert not session.cache_hit
        finally:
            conn.close()


class TestInterleavingProperty:
    """Random interleavings of submit/fetch/commit against a model.

    Each submission is activated immediately (one ``fetch`` after
    ``submit``), so its expected rows are the model's state at that
    point; later mutations must never change them, admission must never
    exceed its bound, and nothing may stay inflight after the drain.
    """

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.sampled_from(["submit", "fetch", "mutate", "drain"]),
                    min_size=1, max_size=14))
    def test_interleavings_preserve_snapshots_and_slots(self, ops):
        values = list(range(8))
        conn = fresh_conn(values)
        try:
            server = conn.server
            pending = []  # (ticket, expected sorted rows, streamed so far)
            version = 0

            def finish(entry):
                ticket, expected, streamed = entry
                while True:
                    chunk = server.fetch_batch(ticket, 3).row_tuples()
                    if not chunk:
                        break
                    streamed.extend(chunk)
                assert sorted(streamed) == expected
                assert sorted(rows_of(server.result(ticket))) == expected

            for op in ops:
                if op == "submit":
                    ticket = server.submit(
                        conn.parse(SQL), engine="skinner-c", stream=True,
                        use_result_cache=False,
                    )
                    streamed = list(server.fetch_batch(ticket, 1).row_tuples())  # force activation
                    pending.append(
                        (ticket, sorted((x,) for x in values), streamed)
                    )
                elif op == "fetch" and pending:
                    pending[0][2].extend(server.fetch_batch(pending[0][0], 2).row_tuples())
                elif op == "mutate":
                    version += 1
                    values = [100 * version + i for i in range(6 + version % 3)]
                    conn.create_table("t", {"x": list(values)}, replace=True)
                    conn.commit()
                elif op == "drain" and pending:
                    finish(pending.pop(0))
                stats = server.stats()
                assert stats["inflight"] <= FAST.serving_max_inflight
            for entry in pending:
                finish(entry)
            stats = server.stats()
            assert stats["inflight"] == 0 and stats["queued"] == 0
        finally:
            conn.close()


class TestWarmStartsAcrossWrites:
    """A write leaves the learned join orders in place as a hint for the
    next statement on the same join graph: inserts, updates and deletes
    interleaved with warm-started Skinner-C reads never change a row."""

    READS = tuple(
        "SELECT a.k, b.v, c.w FROM a, b, c WHERE a.k = b.k AND b.v = c.v" + where
        for where in ("", " AND a.x > 2", " AND c.w < 40"))

    @staticmethod
    def churn(ops, seed=0):
        """Run ``ops`` (``insert``/``update``/``delete`` on a drawn table,
        or ``read``); every read's rows equal ``traditional``'s.  Returns
        the warm-start kinds the reads reported."""
        rng = random.Random(seed)
        tables = {
            "a": {"k": [i % 5 for i in range(12)], "x": list(range(12))},
            "b": {"k": [i % 5 for i in range(8)], "v": [i % 3 for i in range(8)]},
            "c": {"v": [i % 3 for i in range(6)], "w": [10 * i for i in range(6)]},
        }
        conn = connect(FAST.with_overrides(slice_budget=4, serving_warm_start=True))
        kinds = []
        try:
            for name, columns in tables.items():
                conn.create_table(name, columns)
            conn.commit()
            for op in ops:
                if op == "read":
                    for sql in TestWarmStartsAcrossWrites.READS:
                        learned = conn.execute(sql, engine="skinner-c", use_result_cache=False)
                        expected = conn.execute(sql, engine="traditional",
                                                use_result_cache=False)
                        assert sorted(rows_of(learned)) == sorted(rows_of(expected)), sql
                        kinds.append(learned.metrics.extra.get("warm_start"))
                    continue
                name = rng.choice(sorted(tables))
                columns = tables[name]
                rows = len(next(iter(columns.values())))
                if op == "insert":
                    for values in columns.values():
                        values.append(rng.choice(values))
                elif op == "update":
                    values = columns[rng.choice(sorted(columns))]
                    values[rng.randrange(rows)] = rng.choice(values) + rng.randrange(2)
                elif rows > 1:  # delete
                    doomed = rng.randrange(rows)
                    for values in columns.values():
                        del values[doomed]
                conn.create_table(name, columns, replace=True)
                conn.commit()
        finally:
            conn.close()
        return kinds

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.sampled_from(["insert", "update", "delete", "read"]),
                    min_size=2, max_size=12),
           st.integers(0, 2**16))
    def test_interleaved_writes_never_change_a_warm_started_read(self, ops, seed):
        self.churn(ops, seed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_write_turns_the_next_read_into_a_stale_warm_start(self, seed):
        ops = ["read", "read"] + ["insert", "read", "update", "read", "delete", "read"] * 2
        kinds = self.churn(ops, seed)
        reads = len(self.READS)
        # The first read of each graph learns cold, the second is fresh,
        # and the first after every write is a hint.
        assert kinds[:reads] == [None] + ["fresh"] * (reads - 1)
        assert kinds[reads:2 * reads] == ["fresh"] * reads
        assert kinds[2 * reads::reads] == ["stale"] * 6


class TestCacheCounters:
    def test_tenant_stats_report_per_tenant_cache_traffic(self):
        conn = fresh_conn([1, 2, 3])
        try:
            server = conn.server
            for tenant, expected_hits in (("alpha", 1), ("beta", 0)):
                ticket = server.submit(conn.parse(SQL), tenant=tenant)
                server.result(ticket)
                if expected_hits:
                    hit = server.submit(conn.parse(SQL), tenant=tenant)
                    server.result(hit)
                conn.create_table("t", {"x": [4 + expected_hits]}, replace=True)
                conn.commit()
            stats = server.tenant_stats()
            alpha, beta = stats["alpha"]["caches"], stats["beta"]["caches"]
            assert alpha["result"] == {"hits": 1, "misses": 1}
            assert beta["result"] == {"hits": 0, "misses": 1}
            # order-cache probes happen on behalf of the submitting tenant
            assert set(alpha["order"]) == {"hits", "misses", "stale_hits"}
            # invalidations are server-wide: both tenants see both commits
            assert alpha["invalidations"] == beta["invalidations"] == 2
        finally:
            conn.close()

    def test_connection_info_echoes_serving_cache_counters(self):
        conn = fresh_conn([1, 2, 3])
        try:
            zeroed = conn.info()["caches"]
            assert zeroed["result"] == {"entries": 0, "hits": 0,
                                        "misses": 0, "invalidations": 0}
            assert zeroed["order"]["hits"] == 0
            conn.execute(SQL)
            conn.execute(SQL)
            caches = conn.info()["caches"]
            assert caches["result"]["hits"] == 1
            assert caches["result"]["misses"] == 1
            assert caches["result"]["entries"] == 1
            conn.create_table("t", {"x": [9]}, replace=True)
            conn.commit()
            after = conn.info()["caches"]
            assert after["result"]["invalidations"] == 1
            assert after["result"]["entries"] == 0
        finally:
            conn.close()

    def test_remote_info_reports_no_local_caches(self):
        from repro.net.server import ServerThread

        with ServerThread(config=FAST) as live:
            conn = connect(live.dsn)
            try:
                assert conn.info()["caches"] is None
            finally:
                conn.close()
