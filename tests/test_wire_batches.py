"""Protocol v3 (the framing of v2): tables cross the wire as column buffers, exactly.

* encode → decode returns the same values with the same Python types for
  every column kind, at every narrowing boundary, for the float values JSON
  cannot spell, and for zero rows;
* a frame that lies about itself — torn, header longer than the frame,
  buffer shorter than ``rows × width``, unknown kind, oversized — raises
  :class:`FrameError` without allocating what it announced;
* a protocol-1 ``hello`` gets the typed version error in its own framing,
  and a protocol-2 to -6 ``hello`` gets it in the framing versions 2 to 7
  share;
* a bad fetch size is the same :class:`InterfaceError` locally and remotely.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import tracemalloc

import numpy as np
import pytest

from repro import InterfaceError, SkinnerConfig, connect
from repro.errors import OperationalError
from repro.net import protocol
from repro.net.protocol import (
    FRAME_HEAD,
    LENGTH_PREFIX,
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameError,
    check_frame_head,
    decode_payload,
    encode_frame,
)
from repro.net.server import ServerThread
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table

FAST = SkinnerConfig(slice_budget=64, serving_warm_start=False)


def round_trip(table: Table) -> tuple[Table, dict]:
    """``table`` through one frame; also the frame's JSON header."""
    frame = encode_frame({"id": 1, "ok": True, "data": {"table": table}})
    length, header_length = FRAME_HEAD.unpack_from(frame)
    assert length == len(frame) - LENGTH_PREFIX.size
    header = json.loads(frame[FRAME_HEAD.size:FRAME_HEAD.size + header_length])
    message = decode_payload(frame[LENGTH_PREFIX.size:])
    return message["data"]["table"], header["data"]["table"]["$table"]


def same_value(left, right) -> bool:
    """Equal and of one type; floats bit for bit (NaN equals itself, 0.0 ≠ -0.0)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return struct.pack("<d", left) == struct.pack("<d", right)
    return left == right


def assert_exact(expected: Table, actual: Table) -> None:
    assert actual.name == expected.name
    assert actual.column_names == expected.column_names
    assert actual.num_rows == expected.num_rows
    for name in expected.column_names:
        left, right = expected.column(name), actual.column(name)
        assert left.ctype is right.ctype, name
        assert all(map(same_value, left.values(), right.values())), name
    assert len(actual.row_tuples()) == expected.num_rows


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("low, high, kind", [
    (-128, 127, "i1"), (-129, 127, "i2"), (-128, 128, "i2"),
    (-2**15, 2**15 - 1, "i2"), (-2**15 - 1, 0, "i4"), (0, 2**15, "i4"),
    (-2**31, 2**31 - 1, "i4"), (-2**31 - 1, 0, "i8"), (0, 2**31, "i8"),
    (-2**63, 2**63 - 1, "i8"),
])
def test_integers_travel_at_the_narrowest_width_that_holds_them(low, high, kind):
    table = Table("t", {"v": [low, 0, high]})
    decoded, header = round_trip(table)
    assert [column["kind"] for column in header["columns"]] == [kind]
    assert_exact(table, decoded)
    assert decoded.column("v").data.dtype == np.int64


def test_floats_travel_bit_for_bit():
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 5e-324, 1.7976931348623157e308]
    table = Table("t", {"f": Column(values, ColumnType.FLOAT)})
    decoded, header = round_trip(table)
    assert header["columns"][0]["kind"] == "f8"
    assert_exact(table, decoded)
    assert math.copysign(1.0, decoded.column("f").values()[3]) == -1.0


def test_strings_send_only_what_the_frame_references():
    source = Column(["", "naïve", "日本語", "tab\there", "unused-1", "naïve", "\udcff lone"])
    table = Table("t", {"s": source.slice(0, 4)})  # shares the 6-string dictionary
    decoded, header = round_trip(table)
    column = header["columns"][0]
    assert column["kind"] == "dict" and column["codes"] == "i1"
    assert sorted(column["strings"]) == sorted(["", "naïve", "日本語", "tab\there"])
    assert_exact(table, decoded)
    assert_exact(Table("t", {"s": source}), round_trip(Table("t", {"s": source}))[0])


def test_a_dictionary_wider_than_a_byte_widens_the_codes():
    strings = [f"s{i}" for i in range(300)]
    decoded, header = round_trip(Table("t", {"s": strings}))
    assert header["columns"][0]["codes"] == "i2"
    assert decoded.column("s").values() == strings


def test_zero_rows_of_every_kind():
    table = Table("empty", {
        "i": Column([], ColumnType.INT),
        "f": Column([], ColumnType.FLOAT),
        "s": Column([], ColumnType.STRING),
    })
    decoded, header = round_trip(table)
    assert header["rows"] == 0
    assert_exact(table, decoded)
    assert decoded.row_tuples() == []
    assert_exact(Table("none", {}), round_trip(Table("none", {}))[0])


def test_several_columns_share_one_frame_with_aligned_buffers():
    rng = np.random.default_rng(3)
    table = Table("wide", {
        "a": rng.integers(-5, 5, 1001),
        "b": rng.integers(0, 2**40, 1001),
        "c": rng.random(1001),
        "d": [f"g{i % 7}" for i in range(1001)],
    })
    decoded, header = round_trip(table)
    assert all(column["at"] % 8 == 0 for column in header["columns"])
    assert_exact(table, decoded)
    # Ordinary verbs: no buffers, the frame is its padded header.
    frame = encode_frame({"v": "poll", "id": 7, "args": {"ticket": 3}})
    length, header_length = FRAME_HEAD.unpack_from(frame)
    assert length == LENGTH_PREFIX.size + header_length and length % 8 == 0
    assert decode_payload(frame[4:]) == {"v": "poll", "id": 7, "args": {"ticket": 3}}


# ----------------------------------------------------------------------
# hostile frames
# ----------------------------------------------------------------------
def body_with(header: dict, buffers: bytes = b"") -> bytes:
    text = json.dumps(header).encode()
    text += b" " * (-(4 + len(text)) % 8)
    return LENGTH_PREFIX.pack(len(text)) + text + buffers


def table_message(rows, columns) -> dict:
    return {"id": 1, "ok": True, "data": {"table": {"$table": {
        "name": "t", "rows": rows, "columns": columns}}}}


@pytest.mark.parametrize("body, message", [
    (b"\x00\x00", "too short"),
    (LENGTH_PREFIX.pack(500) + b"{}", "does not fit"),  # header length beyond the frame
    (LENGTH_PREFIX.pack(2) + b"{]", "undecodable"),
    (LENGTH_PREFIX.pack(2) + b"[]", "must be a JSON object"),
    (body_with(table_message(10**12, [{"name": "v", "kind": "i8", "at": 0}]), b"\0" * 64),
     "exceeds the frame"),  # buffer shorter than rows x width
    (body_with(table_message(4, [{"name": "v", "kind": "i8", "at": 40}]), b"\0" * 64),
     "exceeds the frame"),
    (body_with(table_message(4, [{"name": "v", "kind": "i8", "at": -8}]), b"\0" * 64),
     "exceeds the frame"),
    (body_with(table_message(2, [{"name": "v", "kind": "u3", "at": 0}]), b"\0" * 64),
     "unknown column kind"),
    (body_with(table_message(2, [{"name": "v", "kind": ["i8"], "at": 0}]), b"\0" * 64),
     "unknown column kind"),
    (body_with(table_message(-1, [])), "non-negative"),
    (body_with(table_message(2, [{"name": "s", "kind": "dict", "codes": "i1", "at": 0,
                                  "strings": ["a"]}]), b"\x00\x01" + b"\0" * 6),
     "outside its strings"),
    (body_with(table_message(2, [{"name": "s", "kind": "dict", "codes": "f8", "at": 0,
                                  "strings": ["a"]}]), b"\0" * 16), "outside its strings"),
    (body_with(table_message(2, [{"name": "s", "kind": "dict", "codes": "i1", "at": 0,
                                  "strings": [1, 2]}]), b"\0" * 8), "list of strings"),
    (body_with(table_message(2, [{"name": "j", "kind": "json", "ctype": "int",
                                  "values": [1]}])), "unknown column kind"),
    (body_with(table_message(2, [{"kind": "i8", "at": 0}]), b"\0" * 16), "malformed table"),
    (body_with(table_message(2, "columns")), "malformed table"),
])
def test_a_frame_that_lies_is_a_frame_error_and_allocates_nothing(body, message):
    tracemalloc.start()
    try:
        with pytest.raises(FrameError, match=message):
            decode_payload(body)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the announced 8 TB was never asked for


def test_oversized_frames_are_refused_on_both_sides():
    with pytest.raises(FrameError, match="exceeds MAX_FRAME"):
        check_frame_head(MAX_FRAME + 1, 0)
    with pytest.raises(FrameError, match="does not fit"):
        check_frame_head(100, 97)
    big = Table("big", {"v": np.arange(MAX_FRAME // 8 + 1, dtype=np.int64) + 2**40})
    with pytest.raises(FrameError, match="exceeds MAX_FRAME"):
        encode_frame({"id": 1, "ok": True, "data": {"table": big}})
    with pytest.raises(TypeError, match="cannot cross the wire"):
        encode_frame({"id": 1, "args": {"when": object()}})


# ----------------------------------------------------------------------
# against a live server
# ----------------------------------------------------------------------
@pytest.fixture()
def server():
    with ServerThread(config=FAST) as live:
        live.connection.create_table("r", {"id": [1, 2, 3], "name": ["ann", "bob", "ann"]})
        live.connection.commit()
        yield live


def _raw_socket(server) -> socket.socket:
    return socket.create_connection((server.server.host, server.server.port), timeout=5)


def test_a_v1_hello_gets_the_typed_refusal_and_the_server_keeps_serving(server):
    hello = json.dumps({"v": "hello", "id": 1, "args": {"version": 1, "tenant": "old"}})
    with _raw_socket(server) as sock:
        sock.sendall(LENGTH_PREFIX.pack(len(hello)) + hello.encode())  # v1: length | JSON
        stream = sock.makefile("rb")
        (length,) = LENGTH_PREFIX.unpack(stream.read(LENGTH_PREFIX.size))
        reply = json.loads(stream.read(length))  # answered in v1 framing
        assert reply["id"] == 1 and reply["ok"] is False
        assert reply["error"]["type"] == "OperationalError"
        assert reply["error"]["message"] == (
            f"protocol version 1 unsupported (server speaks {PROTOCOL_VERSION})")
        assert stream.read() == b""  # and disconnected
    # A v2-framed hello that names version 1 reads the same error.
    with _raw_socket(server) as sock:
        sock.sendall(encode_frame({"v": "hello", "id": 5, "args": {"version": 1}}))
        stream = sock.makefile("rb")
        (length,) = LENGTH_PREFIX.unpack(stream.read(LENGTH_PREFIX.size))
        reply = decode_payload(stream.read(length))
        assert reply["id"] == 5 and "protocol version 1 unsupported" in reply["error"]["message"]
    with connect(server.dsn) as conn:
        assert sorted(conn.cursor().execute("SELECT r.id FROM r").fetchall()) == [(1,), (2,), (3,)]


@pytest.mark.parametrize("version", [2, 3, 4, 5, 6])
def test_an_older_hello_gets_the_typed_refusal_and_the_server_keeps_serving(server, version):
    """Versions 3 to 7 changed the verbs, the metrics and the config, not the
    framing: an older client — version 2 before ``release``, 3 with
    ``profile``, 4 with ``submit``'s ``forced_order`` / ``weight`` /
    ``priority``, 5 with the ablation config fields, 6 before ``submit``'s
    ``first`` — is refused at the handshake with the typed error and a
    disconnect, not half served."""
    with _raw_socket(server) as sock:
        sock.sendall(encode_frame({"v": "hello", "id": version, "args": {"version": version}}))
        stream = sock.makefile("rb")
        (length,) = LENGTH_PREFIX.unpack(stream.read(LENGTH_PREFIX.size))
        reply = decode_payload(stream.read(length))
        assert reply == {"id": version, "ok": False, "error": {
            "type": "OperationalError",
            "message": f"protocol version {version} unsupported "
                       f"(server speaks {PROTOCOL_VERSION})"}}
        assert stream.read() == b""  # and disconnected
    with connect(server.dsn) as conn:
        assert conn.stats()["protocol_version"] == PROTOCOL_VERSION == 7
        assert sorted(conn.cursor().execute("SELECT r.id FROM r").fetchall()) == [(1,), (2,), (3,)]


@pytest.mark.parametrize("garbage", [
    FRAME_HEAD.pack(MAX_FRAME + 1, 0),             # oversized
    FRAME_HEAD.pack(16, 400) + b"x" * 12,          # header length beyond the frame
    FRAME_HEAD.pack(64, 8) + b"{}",                # torn: closes mid-frame
    LENGTH_PREFIX.pack(9) + b"{not json",          # v1-shaped, undecodable
])
def test_a_hostile_first_frame_is_dropped_without_harm(server, garbage):
    with _raw_socket(server) as sock:
        sock.sendall(garbage)
        sock.shutdown(socket.SHUT_WR)
        assert sock.makefile("rb").read() == b""
    with connect(server.dsn) as conn:
        assert conn.stats()["inflight"] == 0


def test_a_result_larger_than_a_frame_arrives_in_several_fetches(server, monkeypatch):
    """A batch is cut to the rows one frame carries and the rest stay
    buffered; a reply that cannot be cut is a typed error; and the
    connection keeps serving after either."""
    monkeypatch.setattr(protocol, "MAX_FRAME", 16 * 1024)
    rng = np.random.default_rng(3)
    data = {name: rng.integers(-2**62, 2**62, 3000) for name in "abc"}  # 72 KB as i8
    server.connection.create_table("wide", data)
    server.connection.create_table("long", {"s": ["x" * 20_000]})
    server.connection.commit()
    with connect(server.dsn) as conn:
        channel = conn.transport._channel
        replies, request = [], channel.request

        def recording(verb, **args):
            reply = request(verb, **args)
            replies.append((verb, reply.get("table"), reply.get("done")))
            return reply

        channel.request = recording
        cursor = conn.cursor()
        cursor.execute("SELECT wide.a, wide.b, wide.c FROM wide", use_result_cache=False)
        rows = cursor.fetchall()
        assert sorted(rows) == sorted(zip(*(data[name].tolist() for name in "abc")))
        verbs = [verb for verb, _, _ in replies]
        assert verbs[0] == "submit" and set(verbs[1:]) == {"fetch"} and len(verbs) >= 5
        assert [done for _, _, done in replies] == [False] * (len(verbs) - 1) + [True]
        assert sum(table.num_rows for _, table, _ in replies) == 3000
        with pytest.raises(OperationalError,
                           match=r"frame of \d+ bytes exceeds MAX_FRAME \(16384 bytes\)"):
            cursor.result()
        cursor.execute("SELECT long.s FROM long", use_result_cache=False)
        with pytest.raises(OperationalError, match="row does not fit one frame of 16384"):
            cursor.fetchall()
        assert not channel.closed
        assert conn.execute("SELECT COUNT(*) AS n FROM wide").rows == [{"n": 3000}]


def test_a_torn_reply_tears_the_channel_down(server):
    """The client reads into one preallocated buffer; a server that stops
    mid-frame is an OperationalError, and the channel does not linger."""
    conn = connect(server.dsn)
    channel = conn.transport._channel
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    fake = socket.create_connection(listener.getsockname())
    peer, _ = listener.accept()
    real, channel._sock = channel._sock, fake
    try:
        peer.sendall(FRAME_HEAD.pack(4096, 16) + b"{}")
        peer.close()
        with pytest.raises(OperationalError, match="closed the connection"):
            channel.request("stats")
        assert channel.closed
    finally:
        real.close()
        listener.close()
        conn.close()


def test_uploads_and_results_use_the_table_frame_in_both_directions(server):
    with connect(server.dsn) as conn:
        shipped = conn.create_table("up", {
            "i": [-2**63, 0, 2**63 - 1], "f": [math.inf, -0.0, 2.5], "s": ["", "ü", ""]})
        conn.commit()
        stored = server.connection.catalog.table("up")
        assert_exact(shipped, stored)
        result = conn.execute("SELECT up.i, up.f, up.s FROM up")
        assert_exact(server.connection.execute_direct("SELECT up.i, up.f, up.s FROM up").table,
                     result.table)
        with pytest.raises(InterfaceError, match="carries no table"):
            conn.transport._channel.request("create_table", name="x", columns={"a": [1]})


@pytest.mark.parametrize("size", [-1, "2", 2.0, True, [3]])
def test_a_bad_fetch_size_is_the_same_interface_error_local_and_remote(server, size):
    messages = []
    for target in (FAST, server.dsn):
        with connect(target) as conn:
            if target is FAST:
                conn.create_table("r", {"id": [1, 2, 3]})
                conn.commit()
            cursor = conn.cursor()
            cursor.execute("SELECT r.id FROM r")
            with pytest.raises(InterfaceError) as raised:
                cursor.fetchmany(size)
            messages.append(str(raised.value))
            # Nothing was consumed and the cursor still works.
            assert sorted(cursor.fetchmany(0) + cursor.fetchall()) == [(1,), (2,), (3,)]
            cursor.arraysize = size
            with pytest.raises(InterfaceError):
                cursor.fetchmany()
    assert messages[0] == messages[1] == (
        f"fetch size must be None or a non-negative int, got {size!r}")
