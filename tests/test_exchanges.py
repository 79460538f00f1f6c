"""What a statement costs in exchanges, and whose tickets an exchange reaches.

* every batch says whether the result is ``done``, so a cursor never asks
  for the empty batch; a cursor's ``submit`` brings back the rows of the
  statement's first episode, so a statement on a reused cursor whose result
  fits one batch is exactly one ``submit`` over ``repro://``;
* the release of the cursor's previous ticket rides on its next
  ``submit``; ``close()`` sends the one standalone ``release``;
* a ``submit`` waits for no more than its statement's first grant: a
  statement queued behind admission, failed or cancelled gets its ticket
  only, and a raw ``submit`` that does not ask for rows gets no rows;
* ``done`` behaves the same in process and over the wire: the rows equal
  draining until an empty batch, ``result()`` and ``rowcount`` still answer
  after the drain, and cancelled or failed sessions still raise;
* a connection reaches only its own tickets, and a malformed ticket
  argument is an :class:`InterfaceError` naming the argument.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro import InterfaceError, ReproError, SkinnerConfig, connect
from repro.errors import ExecutionError
from repro.net.server import ServerThread

FAST = SkinnerConfig(
    slice_budget=64,
    batches_per_table=3,
    base_timeout=200,
    serving_warm_start=False,
)

JOIN = "SELECT r.id, s.c FROM r, s WHERE r.id = s.rid"
ORDERED = "SELECT r.name FROM r ORDER BY r.name DESC"


def seed(conn) -> None:
    conn.create_table("r", {
        "id": [1, 2, 3, 4, 5, 6],
        "a": [10, 20, 10, 30, 20, 10],
        "name": ["ann", "bob", "cat", "dan", "eve", "fox"],
    })
    conn.create_table("s", {
        "rid": [1, 1, 2, 3, 5, 6, 6],
        "c": [7, 8, 9, 7, 8, 9, 7],
    })
    rng = random.Random(5)
    conn.create_table("big", {
        "k": [rng.randrange(40) for _ in range(400)],
        "v": [rng.randrange(100) for _ in range(400)],
    })
    conn.commit()


@pytest.fixture()
def server():
    with ServerThread(config=FAST) as live:
        seed(live.connection)
        yield live


@pytest.fixture()
def remote(server):
    conn = connect(server.dsn)
    yield conn
    conn.close()


def record_exchanges(conn) -> list[tuple[str, dict, dict]]:
    """Every exchange the connection makes from now on: (verb, args, reply)."""
    channel = conn.transport._channel
    sent, request = [], channel.request

    def recording(verb, **args):
        reply = request(verb, **args)
        sent.append((verb, args, reply))
        return reply

    channel.request = recording
    return sent


def verbs(sent) -> list[str]:
    return [verb for verb, _, _ in sent]


# ----------------------------------------------------------------------
# the exchange budget
# ----------------------------------------------------------------------
class TestExchangeBudget:
    def test_a_one_batch_statement_on_a_reused_cursor_is_one_exchange(self, remote):
        cursor = remote.cursor()
        sent = record_exchanges(remote)
        for _ in range(2):
            cursor.execute(ORDERED)
            assert cursor.fetchall() == [("fox",), ("eve",), ("dan",), ("cat",), ("bob",),
                                         ("ann",)]
            assert cursor.fetchone() is None and cursor.fetchmany(3) == []
            with pytest.raises(InterfaceError, match="fetch size"):
                cursor.fetchmany(-1)  # validated without an exchange
        assert verbs(sent) == ["submit", "submit"]
        first_ticket = sent[0][2]["ticket"]
        assert sent[0][1]["release"] is None and sent[0][1]["first"] is True
        assert sent[1][1]["release"] == first_ticket  # rode on the next submit
        assert all(reply["done"] and reply["table"].num_rows == 6 for _, _, reply in sent)
        second_ticket = cursor.ticket
        cursor.close()
        assert verbs(sent)[2:] == ["release"]
        assert sent[2][1] == {"ticket": second_ticket}
        assert remote.stats()["sessions"] == 0

    def test_a_multi_batch_stream_sends_no_fetch_after_done(self, remote):
        cursor = remote.cursor()
        sent = record_exchanges(remote)
        cursor.execute("SELECT b1.v, b2.v FROM big b1, big b2 WHERE b1.k = b2.k AND b1.v < 20",
                       use_result_cache=False)
        rows = []
        while batch := cursor.fetchmany(50):
            rows.extend(batch)
        assert cursor.fetchall() == [] and cursor.fetchone() is None
        (verb, _, submitted), *fetched = sent
        assert verb == "submit" and submitted["table"].num_rows and not submitted["done"]
        dones = [reply["done"] for verb, _, reply in fetched]
        assert verbs(fetched) == ["fetch"] * len(dones) and len(dones) > 2
        assert dones[-1] is True and True not in dones[:-1]
        assert len(rows) == cursor.rowcount == cursor.result().table.num_rows

    def test_a_cursor_reused_fifty_times_holds_at_most_one_session(self, remote):
        cursor = remote.cursor()
        for index in range(50):
            cursor.execute("SELECT r.id FROM r WHERE r.id > ?", (index % 6,))
            assert len(cursor.fetchall()) == 6 - index % 6
            assert remote.stats()["sessions"] <= 1
        cursor.close()
        assert remote.stats()["sessions"] == 0

    def test_a_piggybacked_release_of_a_forgotten_ticket_does_not_fail_the_submit(self, remote):
        cursor = remote.cursor()
        cursor.execute(ORDERED)
        rows = cursor.fetchall()
        assert remote.transport.release(cursor.ticket) is True
        assert remote.transport.release(cursor.ticket) is False  # never raises
        cursor.execute(ORDERED)  # carries the release of the forgotten ticket
        assert cursor.fetchall() == rows

    def test_a_submit_refused_client_side_still_releases_the_previous_ticket(
        self, server, remote
    ):
        cursor = remote.cursor()
        cursor.execute(JOIN, use_result_cache=False)
        held = cursor.ticket
        with pytest.raises(InterfaceError, match="SQL text only"):
            cursor.execute(server.connection.parse("SELECT r.id FROM r"))
        assert cursor.ticket is None
        with pytest.raises(ReproError, match=f"unknown ticket {held}"):
            remote.transport.poll(held)
        assert remote.stats()["sessions"] == 0


# ----------------------------------------------------------------------
# done behaves the same on both transports
# ----------------------------------------------------------------------
@pytest.fixture(params=["local", "remote"])
def db(request):
    """A seeded connection, and the live server behind it when remote."""
    if request.param == "local":
        with connect(FAST) as conn:
            seed(conn)
            yield conn, None
        return
    with ServerThread(config=FAST) as live:
        seed(live.connection)
        with connect(live.dsn) as conn:
            yield conn, live


def drain_until_empty(conn, sql: str, use_result_cache: bool) -> list[tuple]:
    """The rows of a fresh submission, fetched until an empty batch."""
    transport = conn.transport
    handle = transport.submit(
        sql, None, engine=conn.default_engine, config=None,
        use_result_cache=use_result_cache,
    )
    rows = []
    while batch := transport.fetch_batch(handle.ticket, 2).row_tuples():
        rows.extend(batch)
    transport.release(handle.ticket)
    return rows


CASES = {
    "streamable_join": (JOIN, False),
    "order_by": (ORDERED, False),
    "group_by": ("SELECT r.a, COUNT(*) AS n FROM r, s WHERE r.id = s.rid GROUP BY r.a", False),
    "limit_pushdown": (JOIN + " LIMIT 3", False),
    "result_cache_hit": (ORDERED, True),
    "empty_result": ("SELECT r.id FROM r WHERE r.a > 1000", False),
}


class TestDoneOnBothTransports:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_equal_draining_until_an_empty_batch(self, db, case):
        conn, _ = db
        sql, use_result_cache = CASES[case]
        expected = drain_until_empty(conn, sql, use_result_cache)
        cursor = conn.cursor()
        cursor.arraysize = 2
        cursor.execute(sql, use_result_cache=use_result_cache)
        rows = list(cursor)
        assert rows == expected
        assert cursor.fetchall() == [] and cursor.fetchone() is None
        # The ticket is held until the next execute: both still answer.
        assert cursor.rowcount == len(rows) == cursor.result().table.num_rows
        if case == "result_cache_hit":
            assert conn.transport.poll(cursor.ticket)["cache_hit"]

    def test_fetchmany_zero_before_done_does_not_end_the_result(self, db):
        conn, _ = db
        expected = drain_until_empty(conn, JOIN, False)
        cursor = conn.cursor()
        cursor.execute(JOIN, use_result_cache=False)
        assert cursor.fetchmany(0) == []
        assert cursor.fetchall() == expected and len(expected) == 7

    def test_a_failed_session_still_raises_its_typed_error(self, db):
        conn, _ = db
        cursor = conn.cursor()
        cursor.execute("SELECT nope.x FROM nope")
        for _ in range(2):  # a failure never reads as done
            with pytest.raises(ReproError, match="nope") as raised:
                cursor.fetchall()
            assert type(raised.value).__name__ == "CatalogError"

    def test_a_cancelled_session_still_raises_its_typed_error(self, db, monkeypatch):
        conn, live = db
        cursor = conn.cursor()
        if live is None:
            cursor.execute(JOIN, use_result_cache=False)  # in process: runs when fetched
            assert conn.server.cancel(cursor.ticket)
        else:
            # Hold the pump so the session is still running when cancelled:
            # its submit parks for a first grant that never comes, and the
            # loop thread cancels it there and wakes the parked submit.
            qs = live.connection.server
            monkeypatch.setattr(qs, "step", lambda: False)

            async def cancel():
                while not any(client.tickets for client in live.server._clients):
                    await asyncio.sleep(0.001)
                (ticket,) = set().union(*(client.tickets for client in live.server._clients))
                cancelled = qs.cancel(ticket)
                live.server._notify_progress()
                return cancelled

            cancelling = asyncio.run_coroutine_threadsafe(cancel(), live._loop)
            cursor.execute(JOIN, use_result_cache=False)
            assert cancelling.result(timeout=10)
        for _ in range(2):
            with pytest.raises(ReproError, match=f"query {cursor.ticket} was cancelled"):
                cursor.fetchmany(2)


# ----------------------------------------------------------------------
# a submit waits for its first grant, and for no more
# ----------------------------------------------------------------------
class TestFirstBatchWait:
    def test_a_submit_queued_behind_full_admission_returns_at_once_without_rows(
        self, monkeypatch
    ):
        with ServerThread(config=FAST.with_overrides(serving_max_inflight=1)) as live:
            seed(live.connection)
            qs = live.connection.server
            with connect(live.dsn) as conn:
                # No grant runs: the first statement holds the one slot.
                monkeypatch.setattr(qs, "step", lambda: False)
                holder = conn.transport.submit(JOIN, None, engine=conn.default_engine,
                                               config=None, use_result_cache=False)
                cursor = conn.cursor()
                sent = record_exchanges(conn)
                cursor.execute(JOIN, use_result_cache=False)
                (verb, args, reply), = sent
                assert verb == "submit" and args["first"] is True
                assert "table" not in reply and "done" not in reply
                assert conn.transport.poll(cursor.ticket)["state"] == "queued"
                monkeypatch.undo()  # the pump runs again once woken
                assert len(cursor.fetchall()) == 7
                assert len(drain_batches(conn, holder.ticket)) == 7

    def test_a_statement_whose_first_grant_fails_gets_its_ticket_and_a_typed_error(
        self, server, remote
    ):
        def boom(value):
            raise ExecutionError(f"boom at {value}")

        server.connection.register_udf("boom", boom)
        server.connection.commit()
        cursor = remote.cursor()
        sent = record_exchanges(remote)
        cursor.execute("SELECT boom(r.id) AS b FROM r, s WHERE r.id = s.rid",
                       use_result_cache=False)
        (verb, _, reply), = sent
        assert verb == "submit" and "table" not in reply
        snapshot = remote.transport.poll(cursor.ticket)
        assert (snapshot["state"], snapshot["episodes"]) == ("failed", 1)
        for _ in range(2):
            with pytest.raises(ExecutionError, match="boom at"):
                cursor.fetchall()

    def test_a_raw_submit_that_does_not_ask_for_rows_gets_none(self, remote):
        sent = record_exchanges(remote)
        handle = remote.transport.submit(ORDERED, None, engine=remote.default_engine,
                                         config=None, use_result_cache=False)
        assert handle.batch is None
        (verb, args, reply), = sent
        assert verb == "submit" and args["first"] is False and "table" not in reply
        assert len(drain_batches(remote, handle.ticket)) == 6

    def test_in_process_a_submit_brings_no_batch_and_runs_no_grant(self):
        with connect(FAST) as conn:
            seed(conn)
            handle = conn.transport.submit(JOIN, None, engine=conn.default_engine,
                                           config=None, use_result_cache=False, first=True)
            assert handle.batch is None
            assert conn.transport.poll(handle.ticket)["episodes"] == 0
            assert len(drain_batches(conn, handle.ticket)) == 7


def drain_batches(conn, ticket: int) -> list[tuple]:
    """Every row left of ``ticket``, fetched until a batch says ``done``."""
    rows = []
    while True:
        batch = conn.transport.fetch_batch(ticket, None)
        rows.extend(batch.row_tuples())
        if batch.done:
            return rows


# ----------------------------------------------------------------------
# tickets belong to the connection that submitted them
# ----------------------------------------------------------------------
class TestTicketOwnership:
    def test_a_connection_reaches_only_its_own_tickets(self, server):
        with connect(server.dsn + "?tenant=alice") as alice, \
                connect(server.dsn + "?tenant=bob") as bob:
            expected = drain_until_empty(alice, JOIN, False)
            cursor = alice.cursor()
            cursor.execute(JOIN, use_result_cache=False)
            rows = cursor.fetchmany(2)
            ticket = cursor.ticket
            channel = bob.transport._channel
            for verb in ("poll", "fetch", "result"):
                for probe in (ticket, 10_000):  # foreign reads like nonexistent
                    with pytest.raises(ReproError) as raised:
                        channel.request(verb, ticket=probe)
                    assert type(raised.value) is ReproError
                    assert str(raised.value) == f"unknown ticket {probe}"
            assert bob.transport.release(ticket) is False
            # A foreign ticket riding on a submit is a no-op, not a failure.
            assert channel.request("submit", sql=ORDERED, release=ticket)["ticket"]
            # Alice's stream is whole and her ticket still answers.
            rows += cursor.fetchall()
            assert rows == expected
            assert cursor.rowcount == len(expected)


MISSING = object()
MALFORMED = [MISSING, None, "7", True, 1.5, [1]]
MALFORMED_IDS = ["missing", "None", "str", "bool", "float", "list"]


class TestMalformedTicketArguments:
    @pytest.mark.parametrize("value", MALFORMED, ids=MALFORMED_IDS)
    @pytest.mark.parametrize("verb", ["poll", "fetch", "result", "release"])
    def test_a_malformed_ticket_is_an_interface_error_naming_it(self, remote, verb, value):
        transport = remote.transport
        for _ in range(7):  # tickets 1 to 7 exist and belong to this client
            transport.submit(ORDERED, None, engine="skinner-c",
                             config=None, use_result_cache=True, stream=False)
        args = {} if value is MISSING else {"ticket": value}
        with pytest.raises(InterfaceError, match="argument 'ticket'"):
            transport._channel.request(verb, **args)
        assert remote.stats()["sessions"] == 7  # nothing was released

    @pytest.mark.parametrize("value", MALFORMED[2:], ids=MALFORMED_IDS[2:])
    def test_a_malformed_release_on_submit_is_an_interface_error(self, remote, value):
        channel = remote.transport._channel
        with pytest.raises(InterfaceError, match="argument 'release'"):
            channel.request("submit", sql=ORDERED, release=value)
        assert remote.stats()["sessions"] == 0

    @pytest.mark.parametrize("sql", [MISSING, None, 5, ["SELECT r.id FROM r"]],
                             ids=["missing", "None", "int", "list"])
    def test_submit_without_sql_text_is_an_interface_error(self, remote, sql):
        channel = remote.transport._channel
        args = {} if sql is MISSING else {"sql": sql}
        with pytest.raises(InterfaceError, match="'sql' must be SQL text"):
            channel.request("submit", **args)
        assert remote.stats()["sessions"] == 0
