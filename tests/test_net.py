"""Tests for the network front door: DSN connect, wire protocol, tenants.

The acceptance properties of the remote transport:

* a query via local ``connect()`` and via ``repro://`` against a live
  server in the same process returns **byte-identical rows and identical
  meter charges**, including under concurrent multi-tenant interleaving;
* a mid-stream client disconnect (socket drop or ``close()`` during
  fetch) cancels the serving session and releases its admission slot;
* typed errors cross the wire as their original classes; capability
  limits raise :class:`InterfaceError` client-side;
* tenant backpressure bounds a flooding tenant's backlog without
  deadlocking its own submissions.
"""

import dataclasses
import random
import re
import socket
import threading
import time

import pytest

from repro import CatalogError, InterfaceError, ReproError, SkinnerConfig, connect
from repro.errors import OperationalError, ParseError
from repro.net import server as net_server
from repro.net.client import DEFAULT_PORT, RemoteTransport, parse_dsn
from repro.net.protocol import (
    LENGTH_PREFIX, PROTOCOL_VERSION, decode_payload, encode_frame, metrics_from_wire,
    metrics_to_wire,
)
from repro.net.server import ServerThread
from repro.query.parser import parse_query
from repro.skinner.skinner_c import SkinnerC
from repro.storage.table import Table

#: Mirrors the FAST config of test_api_cursor.py: quick convergence, no
#: warm start so served runs are solo-equivalent for charge comparisons.
FAST = SkinnerConfig(
    slice_budget=64,
    batches_per_table=3,
    base_timeout=200,
    serving_warm_start=False,
)


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


@pytest.fixture()
def server():
    with ServerThread(config=FAST) as live:
        seed_rs_schema(live.connection)
        yield live


@pytest.fixture()
def remote(server):
    conn = connect(server.dsn)
    yield conn
    conn.close()


class TestDsnParsing:
    def test_full_dsn(self):
        assert parse_dsn(
            "repro://db.example:8123/?tenant=ops&timeout=2.5&workers=4"
            "&data_dir=/var/lib/repro&engine=Skinner-G"
        ) == ("db.example", 8123, {
            "tenant": "ops", "timeout": 2.5, "workers": 4,
            "data_dir": "/var/lib/repro", "engine": "skinner-g",
        })

    def test_defaults(self):
        assert parse_dsn("repro://localhost/") == ("localhost", DEFAULT_PORT, {})

    def test_rejects_bad_timeout(self):
        with pytest.raises(InterfaceError, match="DSN timeout must be a number"):
            parse_dsn("repro://localhost/?timeout=soon")

    @pytest.mark.parametrize("key, first, second", [
        ("workers", "2", "x"), ("tenant", "a", "b"), ("engine", "eddy", "eddy"),
    ])
    def test_rejects_repeated_parameters(self, key, first, second, baseline_engines):
        with pytest.raises(InterfaceError, match=f"more than once: {key}"):
            parse_dsn(f"repro://localhost/?{key}={first}&{key}={second}")

    def test_rejects_wrong_scheme(self):
        with pytest.raises(InterfaceError, match="scheme"):
            parse_dsn("postgres://localhost/")

    def test_rejects_unknown_parameters(self):
        with pytest.raises(InterfaceError, match="tennant"):
            parse_dsn("repro://localhost/?tennant=oops")

    def test_rejects_path(self):
        with pytest.raises(InterfaceError, match="path"):
            parse_dsn("repro://localhost/mydb")

    def test_keyword_overrides_beat_dsn(self, server):
        conn = connect(server.dsn + "?tenant=from_dsn", tenant="from_kwarg")
        try:
            assert conn.tenant == "from_kwarg"
        finally:
            conn.close()

    def test_connect_refused_maps_to_operational_error(self):
        with pytest.raises(OperationalError, match="cannot connect"):
            connect("repro://127.0.0.1:1/")  # port 1: nothing listens


class TestRemoteBasics:
    def test_remote_flag_and_tenant(self, server):
        conn = connect(server.dsn + "?tenant=alice")
        try:
            assert conn.is_remote and conn.tenant == "alice"
            assert conn.catalog is None and conn.config is None
        finally:
            conn.close()

    def test_cursor_roundtrip_with_parameters(self, remote):
        cursor = remote.cursor()
        cursor.execute(
            "SELECT r.name, s.c FROM r, s WHERE r.id = s.rid AND r.a = ?", (10,)
        )
        assert [entry[0] for entry in cursor.description] == ["name", "c"]
        rows = cursor.fetchall()
        assert sorted(rows) == [("ann", 7), ("ann", 8), ("cat", 7),
                                ("fox", 7), ("fox", 9)]
        assert cursor.rowcount == 5

    def test_connection_execute_returns_result_with_metrics(self, remote, baseline_engines):
        result = remote.execute("SELECT COUNT(*) AS n FROM r")
        assert result.rows == [{"n": 6}]
        assert result.metrics.engine == "skinner-c"
        assert result.metrics.work.total > 0
        # One-phase engines report no pre-processing share on either side.
        assert "preprocess_work" not in remote.execute(
            "SELECT r.id FROM r", engine="eddy").metrics.extra

    def test_stats_verb_reports_tenants_and_caches(self, remote):
        remote.execute("SELECT COUNT(*) AS n FROM s")
        stats = remote.stats()
        assert stats["protocol_version"] == 7
        assert stats["clients"] >= 1
        assert "default" in stats["tenants"]
        assert "result_cache" in stats and "order_cache" in stats

    def test_schema_mutation_and_rollback_over_the_wire(self, remote):
        remote.create_table("t", {"x": [1, 2, 3]})
        assert remote.execute("SELECT COUNT(*) AS n FROM t").rows == [{"n": 3}]
        remote.rollback()
        with pytest.raises(ReproError, match="does not exist"):
            remote.execute("SELECT COUNT(*) AS n FROM t").rows  # noqa: B018

    def test_drop_table_and_rollback_over_the_wire(self, remote):
        remote.drop_table("s")
        with pytest.raises(ReproError, match="does not exist"):
            remote.execute("SELECT COUNT(*) AS n FROM s").rows  # noqa: B018
        remote.rollback()
        assert remote.execute("SELECT COUNT(*) AS n FROM s").rows == [{"n": 7}]
        with pytest.raises(CatalogError):
            remote.drop_table("missing")

    @pytest.mark.parametrize("verb, args, name", [
        ("drop_table", {}, "name"),
        ("drop_table", {"name": None}, "name"),
        ("drop_table", {"name": 5}, "name"),
        ("set_quota", {"share": 2.0}, "tenant"),
        ("set_quota", {"tenant": None, "share": 2.0}, "tenant"),
        ("set_quota", {"tenant": ["x"], "share": 2.0}, "tenant"),
        ("submit", {"sql": "SELECT COUNT(*) AS n FROM s", "engine": 5}, "engine"),
    ])
    def test_a_string_argument_is_typed_at_the_verb(self, remote, verb, args, name):
        """A missing or non-string name is refused naming the argument, not
        read as ``'None'`` or failed as a server ``KeyError``."""
        channel = remote.transport._channel
        required = "is required" if name not in args else "must be a string"
        with pytest.raises(InterfaceError, match=f"argument '{name}' {required}"):
            channel.request(verb, **args)
        assert "None" not in remote.stats()["tenants"]
        assert remote.execute("SELECT COUNT(*) AS n FROM s").rows == [{"n": 7}]

    @staticmethod
    def _hello(server, **args):
        """The reply to one raw ``hello`` carrying ``args``."""
        address = (server.server.host, server.server.port)
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(encode_frame(
                {"id": 1, "v": "hello", "args": {"version": PROTOCOL_VERSION, **args}}))
            stream = sock.makefile("rb")
            (length,) = LENGTH_PREFIX.unpack(stream.read(LENGTH_PREFIX.size))
            return decode_payload(stream.read(length))

    @pytest.mark.parametrize("tenant", [5, 0, False, True, ["x"], {"name": "x"}])
    def test_hello_refuses_a_tenant_that_is_no_string(self, server, remote, tenant):
        """``5`` is not silently tenant ``'5'``, nor ``false`` or ``0`` the
        default tenant: the handshake fails naming the argument."""
        reply = self._hello(server, tenant=tenant)
        assert not reply["ok"]
        assert reply["error"]["type"] == "InterfaceError"
        assert "argument 'tenant' must be a string" in reply["error"]["message"]
        assert set(remote.stats()["tenants"]) <= {"default"}

    @pytest.mark.parametrize("args", [{}, {"tenant": None}, {"tenant": ""}])
    def test_hello_without_a_tenant_binds_the_default_one(self, server, args):
        reply = self._hello(server, **args)
        assert reply["ok"] and reply["data"]["tenant"] == "default"

    @pytest.mark.parametrize("verb, args, name", [
        ("submit", {"sql": "SELECT COUNT(*) AS n FROM s", "use_result_cache": "false"},
         "use_result_cache"),
        ("submit", {"sql": "SELECT COUNT(*) AS n FROM s", "stream": "no"}, "stream"),
        ("submit", {"sql": "SELECT COUNT(*) AS n FROM s", "first": 1}, "first"),
        ("create_table", {"table": Table("flagged", {"x": [1]}), "replace": "yes"}, "replace"),
    ])
    def test_a_flag_argument_is_a_boolean_at_the_verb(self, remote, verb, args, name):
        """A truthy string is refused naming the argument, not read as ``True``."""
        channel = remote.transport._channel
        with pytest.raises(InterfaceError, match=f"argument '{name}' must be a boolean"):
            channel.request(verb, **args)
        with pytest.raises(CatalogError):
            remote.execute("SELECT COUNT(*) AS n FROM flagged")
        assert remote.execute("SELECT COUNT(*) AS n FROM s").rows == [{"n": 7}]

    def test_set_tenant_quota_over_the_wire(self, server, remote):
        remote.transport.set_tenant_quota("x", 2.0)
        tenant = connect(server.dsn, tenant="x")
        try:
            tenant.execute("SELECT COUNT(*) AS n FROM r")
        finally:
            tenant.close()
        assert remote.stats()["tenants"]["x"]["quota"] == 2.0
        for share in (0.0, -1.0, float("nan"), float("inf"), True, "x"):
            with pytest.raises(ReproError, match="must be positive and finite"):
                remote.transport.set_tenant_quota("x", share)
        # A share that is no number is refused at the verb.
        for share in (True, "x", None):
            with pytest.raises(InterfaceError, match="must be positive and finite"):
                remote.transport.set_tenant_quota("x", share)
        assert remote.stats()["tenants"]["x"]["quota"] == 2.0

    def test_local_only_capabilities_raise_interface_error(self, remote):
        with pytest.raises(InterfaceError, match="remote"):
            remote.server  # noqa: B018
        with pytest.raises(InterfaceError, match="remote"):
            remote.parse("SELECT r.id FROM r")
        with pytest.raises(InterfaceError, match="remote"):
            remote.execute_direct("SELECT r.id FROM r")
        with pytest.raises(InterfaceError, match="UDF"):
            remote.register_udf("f", lambda x: x)

    def test_prebuilt_query_rejected_client_side(self, server, remote):
        query = server.connection.parse("SELECT r.id FROM r")
        with pytest.raises(InterfaceError, match="SQL text"):
            remote.cursor().execute(query)

    def test_close_is_idempotent_and_use_after_close_raises(self, remote):
        cursor = remote.cursor()
        cursor.execute("SELECT r.id FROM r")
        remote.close()
        remote.close()
        with pytest.raises(InterfaceError, match="connection is closed"):
            remote.cursor()
        # Connection.close() closes its cursors, so the cursor-level check
        # fires first — still an InterfaceError per PEP 249.
        with pytest.raises(InterfaceError, match="cursor is closed"):
            cursor.fetchall()


class TestIteration:
    """``for row in cursor`` hands out the rows the ``submit`` brought, then
    fetches ``arraysize`` rows a round trip."""

    SQL = "SELECT r.id, s.c FROM r, s WHERE r.id = s.rid"
    #: A result no first grant finishes: 10 x 40 rows join 40 x 6 ways.
    WIDE = "SELECT w1.v, w2.v FROM w w1, w w2 WHERE w1.k = w2.k"

    @staticmethod
    def _fetch_frames(conn):
        """Every ``fetch`` request the connection sends from now on, and the
        rows each ``submit`` reply brought."""
        channel = conn.transport._channel
        sent, request = [], channel.request

        def counting(verb, **args):
            reply = request(verb, **args)
            if verb == "fetch":
                sent.append(args["max_rows"])
            elif verb == "submit":
                sent.append(("submit", reply["table"].num_rows, reply["done"]))
            return reply

        channel.request = counting
        return sent

    def _finished_cursor(self, conn, arraysize, sql=SQL, rows=7):
        cursor = conn.cursor()
        cursor.arraysize = arraysize
        cursor.execute(sql, use_result_cache=False)
        assert cursor.result().table.num_rows == rows  # all rows are buffered now
        return cursor

    def test_iteration_sends_one_fetch_per_chunk(self, server, remote):
        sent = self._fetch_frames(remote)
        row_by_row = list(self._finished_cursor(remote, 1))
        assert sent == [("submit", 7, True)]  # all seven rode on the submit
        server.connection.create_table("w", {"k": [i % 10 for i in range(40)],
                                             "v": list(range(40))})
        server.connection.commit()
        del sent[:]
        chunked = list(self._finished_cursor(remote, 64, self.WIDE, 160))
        [(verb, first, done), *fetched] = sent
        assert verb == "submit" and 0 < first < 160 and not done
        assert fetched == [64] * -((first - 160) // 64)  # the last chunk says done
        assert sorted(chunked) == sorted(
            server.connection.execute_direct(self.WIDE).table.row_tuples())
        del sent[:]
        assert list(self._finished_cursor(remote, 4)) == row_by_row and len(row_by_row) == 7
        assert sent == [("submit", 7, True)]

    def test_fetch_methods_continue_where_iteration_stands(self, remote):
        reference = list(self._finished_cursor(remote, 1))
        sent = self._fetch_frames(remote)
        cursor = self._finished_cursor(remote, 5)
        rows = [next(cursor), cursor.fetchone()]
        assert cursor.rowcount == 7
        rows += cursor.fetchmany(2)
        rows += cursor.fetchmany(2)  # the one row left of the chunk, not a new fetch
        assert sent == [("submit", 7, True)] and len(rows) == 5
        rows.append(next(cursor))
        with pytest.raises(InterfaceError, match="fetch size"):
            cursor.fetchmany(-1)  # refused mid-chunk as anywhere else
        rows += list(cursor)
        assert rows == reference and cursor.fetchone() is None

    def test_close_mid_iteration_drops_the_chunk(self, remote):
        cursor = self._finished_cursor(remote, 4)
        assert next(cursor) is not None
        cursor.close()
        with pytest.raises(InterfaceError, match="closed"):
            next(cursor)


class TestErrorMapping:
    def test_parse_error_crosses_the_wire_with_position(self, remote):
        cursor = remote.cursor()
        with pytest.raises(ParseError) as excinfo:
            cursor.execute("SELECT r.x FROM r WHERE")
        assert excinfo.value.position == 23

    def test_execution_error_surfaces_at_fetch_like_local(self, server, remote):
        # Unknown tables pass parsing and fail during execution — the wire
        # must preserve that local staging, and the class.
        local = connect(FAST)
        seed_rs_schema(local)
        local_cursor = local.cursor()
        local_cursor.execute("SELECT nope.x FROM nope")
        with pytest.raises(ReproError) as local_err:
            local_cursor.fetchall()
        remote_cursor = remote.cursor()
        remote_cursor.execute("SELECT nope.x FROM nope")
        with pytest.raises(ReproError) as remote_err:
            remote_cursor.fetchall()
        assert type(remote_err.value).__name__ == type(local_err.value).__name__
        assert str(remote_err.value) == str(local_err.value)

    @pytest.mark.parametrize("config, message", [
        ({"slice_budgett": 64}, "unknown config field 'slice_budgett'"),
        ({"slice_budget": "abc"}, "config field 'slice_budget' must be int, got 'abc'"),
        ({"serving_warm_start": 1}, "config field 'serving_warm_start' must be bool, got 1"),
        ({"slice_budget": True}, "config field 'slice_budget' must be int, got True"),
        ({"join_mode": "rows"}, "unknown config field 'join_mode'"),
        ({"postprocess_mode": "rows"}, "unknown config field 'postprocess_mode'"),
        (["slice_budget"], "submit config must be an object"),
        # Once a knob, now a constant (or gone with its code path): refused
        # like any name never known.
        ({"serving_order_cache_size": 0}, "unknown config field 'serving_order_cache_size'"),
        *(({name: value}, f"unknown config field '{name}'") for name, value in (
            ("batch_size", 1024), ("exploration_weight", 1e-6),
            ("reward_function", "scaled_deltas"), ("share_progress", True),
            ("use_offsets", True), ("serving_quantum_episodes", 1),
            ("serving_grant_wall_ms", 0.0), ("serving_result_cache_size", 64),
            ("serving_tenant_backlog", 8), ("serving_limit_pushdown", True),
            ("parallel_morsels", 8), ("parallel_min_morsel_rows", 64),
            ("use_hash_jump", False), ("order_selection", "random"),
        )),
    ])
    def test_submit_config_is_validated_at_the_verb(self, remote, config, message):
        """A foreign (or older) client's config never reaches the engine."""
        channel = remote.transport._channel
        with pytest.raises(InterfaceError, match=message):
            channel.request("submit", sql="SELECT r.id FROM r", config=config)
        assert remote.stats()["completed"] == 0
        # A well-formed per-submission config (all fields, as the client
        # serializes them) still goes through, nullable fields included.
        result = remote.execute("SELECT r.id FROM r", config=FAST.with_overrides(seed=None))
        assert len(result.rows) == 6

    @pytest.mark.parametrize("name, value", [
        ("threads", 1),
        ("profile", "postgres"), ("profile", "oracle"), ("profile", 5),
        ("forced_order", ["r"]), ("forced_order", ["r", 5]), ("forced_order", "rs"),
        ("weight", 2.0), ("weight", "x"), ("weight", float("nan")),
        ("priority", 1), ("priority", "high"),
    ])
    def test_submit_rejects_a_removed_argument(self, remote, name, value):
        """An older client's modelled core count (``threads``), engine
        ``profile`` (protocol 3) or statement knob — ``forced_order``,
        ``weight``, ``priority`` (protocol 4) — is refused typed, malformed
        values included, not ignored; the connection keeps serving."""
        channel = remote.transport._channel
        with pytest.raises(InterfaceError, match=f"unknown submit argument '{name}'"):
            channel.request("submit", sql="SELECT r.id FROM r", **{name: value})
        assert remote.stats()["completed"] == 0
        cursor = remote.cursor().execute("SELECT r.id FROM r")
        assert len(cursor.fetchall()) == 6

    def test_submit_rejects_a_misspelt_argument(self, remote):
        """A name the verb does not read is refused, not silently ignored."""
        channel = remote.transport._channel
        with pytest.raises(InterfaceError, match="unknown submit argument 'use_result_cach'"):
            channel.request("submit", sql="SELECT r.id FROM r", use_result_cach=False)
        assert remote.stats()["completed"] == 0

    def test_non_object_args_after_hello_keep_the_session(self, server, remote):
        channel = remote.transport._channel
        channel._sock.sendall(encode_frame({"id": 99, "v": "poll", "args": [1]}))
        reply = channel._read_frame()
        assert reply["id"] == 99 and not reply["ok"]
        assert reply["error"]["type"] == "OperationalError"
        assert "args must be a JSON object" in reply["error"]["message"]
        # Same socket, same session: the next well-formed verb is served,
        # and the bad frame created no ticket.
        assert len(remote.execute("SELECT r.id FROM r").rows) == 6
        assert [len(client.tickets) for client in server.server._clients] == [0]
        assert remote.stats()["completed"] == 1

    def test_non_object_args_in_hello_close_the_socket_cleanly(self, server):
        with socket.create_connection((server.server.host, server.server.port), timeout=5) as sock:
            sock.sendall(encode_frame({"id": 1, "v": "hello", "args": [1]}))
            stream = sock.makefile("rb")
            (length,) = LENGTH_PREFIX.unpack(stream.read(LENGTH_PREFIX.size))
            reply = decode_payload(stream.read(length))
            assert reply["id"] == 1 and not reply["ok"]
            assert reply["error"]["type"] == "OperationalError"
            assert "args must be a JSON object" in reply["error"]["message"]
            assert stream.read() == b""  # then EOF: refused, not crashed
        deadline = time.monotonic() + 5
        while server.server._writers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server.server._writers and not server.server._clients
        assert server.connection.stats()["inflight"] == 0


def _random_query(rng: random.Random) -> str:
    """A randomized SPJ(+postprocessing) query over the r/s fixtures."""
    shape = rng.randrange(4)
    if shape == 0:
        return rng.choice([
            "SELECT r.id, r.a FROM r",
            "SELECT r.id, r.a FROM r WHERE r.a > 10",
        ])
    if shape == 1:
        return "SELECT r.name, s.c FROM r, s WHERE r.id = s.rid"
    if shape == 2:
        return "SELECT r.a, COUNT(*) AS n FROM r, s WHERE r.id = s.rid GROUP BY r.a"
    return "SELECT r.name FROM r ORDER BY r.name LIMIT 3"


class TestRemoteLocalByteIdentical:
    """Acceptance: repro:// and local connect() agree byte for byte."""

    def test_rows_and_charges_identical_across_transports(self, server):
        rng = random.Random(2024)
        local = connect(FAST)
        seed_rs_schema(local)
        remote_conn = connect(server.dsn)
        try:
            for _ in range(8):
                sql = _random_query(rng)
                local_cursor = local.cursor()
                local_cursor.execute(sql, use_result_cache=False)
                local_rows = local_cursor.fetchall()
                local_work = local_cursor.result().metrics.work
                local_spread = local_cursor.result().metrics.extra["preprocess_work"]
                remote_cursor = remote_conn.cursor()
                remote_cursor.execute(sql, use_result_cache=False)
                remote_rows = remote_cursor.fetchall()
                remote_work = remote_cursor.result().metrics.work
                assert remote_rows == local_rows, sql
                assert remote_work == local_work, sql
                # Skinner-C: its pre-processing share, a plain dict on the wire.
                assert remote_cursor.result().metrics.extra["preprocess_work"] == \
                    local_spread, sql
        finally:
            remote_conn.close()

    @pytest.mark.parametrize("engine", ["skinner-c", "skinner-g", "skinner-h"])
    def test_metrics_are_equal_across_transports(self, server, engine):
        """Every metrics field but the wall clock's, tuples and int keys
        included, reads the same over ``repro://`` as locally."""
        local = connect(FAST)
        seed_rs_schema(local)
        remote_conn = connect(server.dsn)
        try:
            for sql in ("SELECT r.name, s.c FROM r, s WHERE r.id = s.rid",
                        "SELECT COUNT(*) FROM r, s WHERE r.id = s.rid AND s.c > 7"):
                fields = []
                for conn in (local, remote_conn):
                    cursor = conn.cursor()
                    cursor.execute(sql, engine=engine, use_result_cache=False)
                    cursor.fetchall()
                    fields.append(_without_wall_clock(cursor.result().metrics))
                assert fields[0] == fields[1], (engine, sql)
        finally:
            remote_conn.close()
            local.close()

    def test_a_warm_start_reads_the_same_across_transports(self):
        """Fresh priors, then a write that makes them a hint: every
        statement's metrics, ``extra["warm_start"]`` included, are equal."""
        warm = FAST.with_overrides(serving_warm_start=True)
        sql = "SELECT r.name, s.c FROM r, s WHERE r.id = s.rid"
        with ServerThread(config=warm) as live:
            seed_rs_schema(live.connection)
            local = connect(warm)
            seed_rs_schema(local)
            remote_conn = connect(live.dsn)
            try:
                kinds = []
                for write in (False, False, True, False):
                    fields = []
                    for conn in (local, remote_conn):
                        if write:
                            conn.create_table("s", {"rid": [1, 2, 6], "c": [7, 8, 9]},
                                              replace=True)
                            conn.commit()
                        cursor = conn.cursor()
                        cursor.execute(sql, use_result_cache=False)
                        cursor.fetchall()
                        fields.append(_without_wall_clock(cursor.result().metrics))
                    assert fields[0] == fields[1]
                    kinds.append(fields[0]["extra"].get("warm_start"))
                assert kinds == [None, "fresh", "stale", "fresh"]
            finally:
                remote_conn.close()
                local.close()

    def test_traced_metrics_cross_the_wire_as_reported(self):
        local = connect(FAST)
        seed_rs_schema(local)
        catalog = local.catalog
        query = parse_query("SELECT r.name FROM r, s WHERE r.id = s.rid", catalog)
        metrics = SkinnerC(catalog, config=FAST).execute(query, trace=True).metrics
        local.close()
        assert metrics.extra["trace"] and metrics.extra["top_orders"]
        frame = encode_frame({"metrics": metrics_to_wire(metrics)})
        wire = decode_payload(frame[LENGTH_PREFIX.size:])["metrics"]
        assert dataclasses.asdict(metrics_from_wire(wire)) == dataclasses.asdict(metrics)

    def test_concurrent_multi_tenant_interleaving_stays_identical(self, server):
        # References: each query solo on a fresh local connection.
        queries = [_random_query(random.Random(seed)) for seed in range(6)]
        references = []
        for sql in queries:
            local = connect(FAST)
            seed_rs_schema(local)
            cursor = local.cursor()
            cursor.execute(sql, use_result_cache=False)
            references.append((cursor.fetchall(), cursor.result().metrics.work))

        results: dict[int, tuple] = {}
        errors: list[BaseException] = []

        def client(index: int, sql: str) -> None:
            try:
                conn = connect(server.dsn, tenant=f"tenant{index % 3}")
                try:
                    cursor = conn.cursor()
                    cursor.execute(sql, use_result_cache=False)
                    rows = cursor.fetchall()
                    work = cursor.result().metrics.work
                    results[index] = (rows, work)
                finally:
                    conn.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(index, sql))
            for index, sql in enumerate(queries)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(results) == len(queries)
        for index, (rows, work) in results.items():
            expected_rows, expected_work = references[index]
            assert rows == expected_rows, queries[index]
            assert work == expected_work, queries[index]


def _without_wall_clock(metrics) -> dict:
    fields = dataclasses.asdict(metrics)
    del fields["wall_time_seconds"]
    fields["extra"] = {key: value for key, value in fields["extra"].items()
                       if not key.endswith("wall_seconds")}
    return fields


class TestMidStreamDisconnect:
    """Acceptance: a vanished client cannot leak admission slots."""

    @staticmethod
    def _streaming_server(**overrides):
        config = FAST.with_overrides(
            slice_budget=500, serving_max_inflight=1, **overrides
        )
        live = ServerThread(config=config).start()
        rng = random.Random(11)
        rows, keys = 3000, 1000
        live.connection.create_table("a", {
            "k": [rng.randrange(keys) for _ in range(rows)],
            "v": [rng.randrange(100) for _ in range(rows)],
        })
        live.connection.create_table("b", {
            "k": [rng.randrange(keys) for _ in range(rows)],
            "w": [rng.randrange(100) for _ in range(rows)],
        })
        live.connection.commit()
        return live

    SQL = "SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.v < 10"

    def _assert_slot_released(self, live):
        # The slot is free when a second client's query can complete.
        probe = connect(live.dsn)
        try:
            result = probe.execute("SELECT COUNT(*) AS n FROM a",
                                   use_result_cache=False)
            assert result.rows == [{"n": 3000}]
            stats = probe.stats()
            assert stats["inflight"] == 0 and stats["queued"] == 0
        finally:
            probe.close()

    def test_cursor_close_mid_stream_releases_slot(self):
        live = self._streaming_server()
        try:
            conn = connect(live.dsn)
            cursor = conn.cursor()
            cursor.execute(self.SQL, use_result_cache=False)
            assert cursor.fetchmany(3)  # streaming, holding the only slot
            cursor.close()  # client-side cancel+forget over the wire
            self._assert_slot_released(live)
            conn.close()
        finally:
            live.stop()

    def test_socket_drop_mid_stream_releases_slot(self):
        live = self._streaming_server()
        try:
            conn = connect(live.dsn)
            cursor = conn.cursor()
            cursor.execute(self.SQL, use_result_cache=False)
            assert cursor.fetchmany(3)
            # Hard drop: no cancel verb ever reaches the server; its
            # disconnect cleanup must cancel the session.
            conn.transport._channel._teardown()
            self._assert_slot_released(live)
        finally:
            live.stop()


class TestBackpressure:
    def test_flooding_tenant_backlog_stays_bounded(self, monkeypatch):
        bound = 2
        monkeypatch.setattr(net_server, "TENANT_BACKLOG", bound)
        live = ServerThread(config=FAST).start()
        try:
            seed_rs_schema(live.connection)
            transport = RemoteTransport(live.server.host, live.server.port, tenant="flood")
            try:
                tickets = []
                for _ in range(bound * 3):
                    handle = transport.submit(
                        "SELECT r.name, s.c FROM r, s WHERE r.id = s.rid",
                        None,
                        engine="skinner-c", config=None,
                        use_result_cache=False, stream=True,
                    )
                    tickets.append(handle.ticket)
                    # The gate runs before the *next* request is read, so at
                    # the moment a submit response arrives the tenant's
                    # backlog can never exceed the bound.
                    backlog = transport.stats()["tenants"]["flood"]["backlog"]
                    assert backlog <= bound
                # No deadlock: every gated submission still completes.
                for ticket in tickets:
                    rows = []
                    while True:
                        batch = transport.fetch_batch(ticket, None).row_tuples()
                        if not batch:
                            break
                        rows.extend(batch)
                    assert len(rows) == 7
                    transport.release(ticket)
            finally:
                transport.close()
        finally:
            live.stop()


class TestServerLifecycle:
    def test_clean_shutdown_refuses_new_connections(self):
        live = ServerThread(config=FAST).start()
        dsn = live.dsn
        conn = connect(dsn)
        assert conn.is_remote
        conn.close()
        live.stop()
        with pytest.raises(OperationalError):
            connect(dsn)

    def test_stop_with_a_client_still_connected_is_quiet(self, capfd, caplog):
        """``stop()`` waits for the handlers it ended: the event loop's
        shutdown cancels none of them mid-read, so asyncio reports nothing
        (to stderr, or to the log records pytest diverts it to)."""
        live = ServerThread(config=FAST).start()
        seed_rs_schema(live.connection)
        conn = connect(live.dsn)
        assert len(conn.cursor().execute("SELECT r.id FROM r").fetchall()) == 6
        live.stop()
        assert not live._thread.is_alive()
        assert "Traceback" not in capfd.readouterr().err
        assert not [record for record in caplog.records if record.name == "asyncio"]
        with pytest.raises(OperationalError):
            conn.cursor().execute("SELECT r.id FROM r").fetchall()
        conn.close()

    def test_a_served_connection_refuses_local_statements_until_stop(self):
        """The server's thread steps the served connection's scheduler, so
        a local statement on that connection would race it: ``submit``,
        ``fetch_batch`` and ``result`` raise a typed error naming the DSN,
        while seeding and inspecting stay open.  After ``stop()`` the
        connection runs statements locally again."""
        conn = connect(FAST)
        seed_rs_schema(conn)
        sql = "SELECT r.id FROM r"
        early = conn.cursor().execute(sql, use_result_cache=False)  # runs when fetched
        live = ServerThread(conn).start()
        try:
            refused = [
                lambda: conn.execute(sql),
                lambda: conn.cursor().execute(sql),
                lambda: early.fetchmany(2),
                lambda: conn.transport.result(early.ticket),
            ]
            for statement in refused:
                with pytest.raises(InterfaceError, match=re.escape(live.dsn)):
                    statement()
            conn.create_table("t", {"x": [1, 2]})
            conn.commit()
            assert conn.parse("SELECT t.x FROM t").num_tables == 1
            assert conn.stats()["sessions"] == 1  # the early cursor's
            assert len(conn.execute_direct(sql).table.rows()) == 6
            with connect(live.dsn) as remote:
                assert len(remote.execute(sql).table.rows()) == 6
        finally:
            live.stop()
        assert conn.served_at is None
        assert len(early.fetchall()) == 6
        assert len(conn.execute(sql).table.rows()) == 6
        conn.close()

    def test_stop_with_a_client_that_never_reads_is_prompt(self):
        """A reply the peer never reads stays in the server's write buffer;
        closing that socket would wait for the buffer to flush, so ``stop()``
        aborts it, and the handler blocked on it returns."""
        live = ServerThread(config=FAST).start()
        rows = 20_000
        live.connection.create_table(
            "wide", {"id": list(range(rows)), "pad": [f"{i:0100d}" for i in range(rows)]}
        )
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect((live.server.host, live.server.port))
        try:
            stream = sock.makefile("rb")

            def exchange(request_id, verb, **args):
                sock.sendall(encode_frame({"id": request_id, "v": verb, "args": args}))
                (length,) = LENGTH_PREFIX.unpack(stream.read(LENGTH_PREFIX.size))
                reply = decode_payload(stream.read(length))
                assert reply["ok"], reply
                return reply["data"]

            exchange(1, "hello", version=PROTOCOL_VERSION)
            ticket = exchange(2, "submit", sql="SELECT wide.id, wide.pad FROM wide",
                              stream=True, use_result_cache=False)["ticket"]
            # Ask for the ~2 MB result again and again without reading a
            # reply, until the kernel's socket buffers are full and the
            # server's own write buffer holds bytes.
            (writer,) = live.server._writers.values()
            for request_id in range(3, 43):
                sock.sendall(encode_frame(
                    {"id": request_id, "v": "result", "args": {"ticket": ticket}}))
                deadline = time.monotonic() + 1
                while not writer.transport.get_write_buffer_size() \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                if writer.transport.get_write_buffer_size():
                    break
            assert writer.transport.get_write_buffer_size()
            started = time.monotonic()
            live.stop()
            assert time.monotonic() - started < 10
            assert not live._thread.is_alive()
            assert not live.server._writers
        finally:
            sock.close()
            live.stop()

    def test_shutdown_wakes_parked_fetches(self):
        live = ServerThread(config=FAST).start()
        seed_rs_schema(live.connection)
        conn = connect(live.dsn)
        transport = conn.transport
        # Submit nothing and park a fetch on a never-finishing wait by
        # polling a ticket that exists but is starved: simplest robust
        # variant — stop the server while a result() wait is in flight.
        handle = transport.submit(
            "SELECT r.id FROM r", None,
            engine="skinner-c", config=None,
            use_result_cache=False, stream=True,
        )
        stopper = threading.Timer(0.2, live.stop)
        stopper.start()
        try:
            # Either the query finishes before the stop lands (rows) or the
            # shutdown surfaces as OperationalError — never a hang.
            transport.fetch_batch(handle.ticket, None).row_tuples()
        except OperationalError:
            pass
        finally:
            stopper.join()
            conn.close()
