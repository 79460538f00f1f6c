"""The wire protocol, version 6: framed JSON headers and raw column buffers.

One frame, in either direction::

    length (4 bytes, big-endian) | body
    body = header length (4 bytes, big-endian) | JSON header | buffers

``length`` counts the body; :data:`MAX_FRAME` bounds it, and the header
length is checked against it, before either side allocates anything, so a
corrupt or hostile prefix cannot make a peer allocate unboundedly.  The
header is the message — requests, replies and errors are small JSON
documents, debuggable with a packet capture — and is padded with spaces so
that the buffers start on an 8-byte boundary.  For most verbs the buffers
are empty.

A message that carries a table (a fetched batch, a completed result, an
uploaded table) carries it as columns, not rows.  In the header the table
is ``{"$table": {"name", "rows", "columns": [...]}}``; each column names its
``kind`` and the offset ``at`` of its buffer, little-endian and 8-aligned:

* ``i1`` / ``i2`` / ``i4`` / ``i8`` — an integer column at the narrowest
  width that holds this frame's minimum and maximum;
* ``f8`` — a float column, bit for bit (NaN, infinities and ``-0.0``
  survive);
* ``dict`` — a string column: ``strings`` lists, in the header, only the
  strings this frame references, the buffer holds one code per row at the
  width (``codes``) the list's length needs.

The receiver wraps the buffers with ``np.frombuffer`` — the frame is read
into one preallocated buffer and the ``i8`` / ``f8`` columns are views of
it.  Row tuples exist only where a client asks a cursor for them (Raasveldt
& Mühleisen, "Don't Hold My Data Hostage", VLDB 2017, on why row-wise text
result protocols dominate client time).

One request/response exchange:

* request — ``{"v": verb, "id": n, "args": {...}}``; ``id`` is a
  client-chosen sequence number echoed back, so a client can pipeline and
  still match responses.
* success — ``{"id": n, "ok": true, "data": {...}}``.
* failure — ``{"id": n, "ok": false, "error": {"type": ..., "message":
  ...}}`` where ``type`` is the :class:`~repro.errors.ReproError` subclass
  name.  :func:`error_from_wire` reconstructs the same exception class
  client-side (including :class:`ParseError`'s position and
  :class:`BudgetExceeded`'s spent counter), so remote error behaviour is
  indistinguishable from local; unknown server-side types degrade to
  :class:`~repro.errors.OperationalError`.

The first exchange on a connection must be the ``hello`` handshake, which
pins the protocol version and the client's tenant identity; the tenant
cannot be changed afterwards (quota accounting is per-connection).  A
protocol-1 peer (frames of ``length | JSON``, rows as JSON lists) is told
so in its own framing — :func:`refuse_v1` — and disconnected; nothing else
of version 1 remains.  A protocol-2 to -5 peer frames like version 6 and
gets the same typed refusal in it.  See ``docs/serving.md`` for the full
verb table.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.config import SkinnerConfig

from repro.errors import (
    BudgetExceeded,
    CatalogError,
    ExecutionError,
    InterfaceError,
    OperationalError,
    ParseError,
    PlanningError,
    ReproError,
    SchemaError,
    UnsupportedQueryError,
)
from repro.engine.meter import WorkBreakdown
from repro.result import QueryMetrics, QueryResult
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table

#: Protocol revision; bumped on any incompatible wire change.  The server
#: rejects a ``hello`` with a different version.  Versions 3 to 6 have
#: version 2's framing and different verbs (``docs/serving.md`` has the
#: table); version 4's metrics carry work units only, version 5's
#: ``submit`` carries only the statement, its engine and its config, and
#: version 6's config has no fields for the paper's ablations.
PROTOCOL_VERSION = 6

#: Upper bound on one frame's body (64 MiB).
MAX_FRAME = 64 * 1024 * 1024

LENGTH_PREFIX = struct.Struct(">I")
#: What a reader takes first: the frame length and the header length.
FRAME_HEAD = struct.Struct(">II")


class FrameError(OperationalError):
    """The byte stream violated the framing rules (not a valid peer)."""


class V1Frame(FrameError):
    """A protocol-1 frame arrived; ``request_id`` is what its reply echoes."""

    def __init__(self, request_id: Any) -> None:
        super().__init__("protocol version 1 frame")
        self.request_id = request_id


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialize one message to its on-wire bytes, as one object.

    Any :class:`Table` inside ``payload`` becomes a ``$table`` description
    in the header and its column buffers behind it.
    """
    buffers: list[Any] = []
    size = 0

    def attach(array: np.ndarray) -> int:
        nonlocal size
        at = size
        padding = -array.nbytes % 8
        buffers.extend((array, bytes(padding)))
        size += array.nbytes + padding
        return at

    def describe(value: Any) -> dict[str, Any]:
        if isinstance(value, Table):
            return {"$table": _table_to_wire(value, attach)}
        raise TypeError(f"{type(value).__name__} cannot cross the wire")

    header = json.dumps(payload, separators=(",", ":"), default=describe).encode("utf-8")
    header += b" " * (-(LENGTH_PREFIX.size + len(header)) % 8)
    length = LENGTH_PREFIX.size + len(header) + size
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds MAX_FRAME")
    return b"".join([FRAME_HEAD.pack(length, len(header)), header, *buffers])


def check_frame_head(length: int, header_length: int) -> None:
    """Refuse a frame whose announced sizes cannot be right — before
    anything of the announced size is allocated."""
    if length > MAX_FRAME:
        raise FrameError(f"announced frame of {length} bytes exceeds MAX_FRAME")
    if LENGTH_PREFIX.size + header_length > length:
        raise FrameError(
            f"header of {header_length} bytes does not fit a frame of {length}"
        )


def decode_payload(body: bytes | bytearray) -> dict[str, Any]:
    """Parse a frame body; framing errors surface as :class:`FrameError`.

    Tables in the message are rebuilt over views of ``body``, which they
    keep alive.
    """
    if len(body) < LENGTH_PREFIX.size:
        raise FrameError("frame too short for a header length")
    (header_length,) = LENGTH_PREFIX.unpack_from(body)
    check_frame_head(len(body), header_length)
    buffers_at = LENGTH_PREFIX.size + header_length
    buffers = memoryview(body)[buffers_at:]

    def revive(value: dict[str, Any]) -> Any:
        if len(value) == 1 and "$table" in value:
            return _table_from_wire(value["$table"], buffers)
        return value

    try:
        message = json.loads(bytes(body[LENGTH_PREFIX.size:buffers_at]), object_hook=revive)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError("frame payload must be a JSON object")
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    EOF in the middle of a frame (a peer that died mid-message) raises
    :class:`FrameError` — callers treat both as a disconnect but the
    distinction matters for logging.  A protocol-1 frame raises
    :class:`V1Frame`.
    """
    try:
        head = await reader.readexactly(FRAME_HEAD.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise FrameError("connection closed mid-frame") from None
    length, header_length = FRAME_HEAD.unpack(head)
    v1 = (head[LENGTH_PREFIX.size:].startswith(b"{")
          and LENGTH_PREFIX.size <= length <= MAX_FRAME)
    if not v1:
        check_frame_head(length, header_length)
    try:
        rest = await reader.readexactly(length - LENGTH_PREFIX.size)
    except asyncio.IncompleteReadError:
        raise FrameError("connection closed mid-frame") from None
    body = head[LENGTH_PREFIX.size:] + rest
    if v1:
        # Version 1 put its JSON where the header length now is, and no
        # header length starts with "{" (it would exceed MAX_FRAME).
        try:
            request_id = json.loads(body).get("id")
        except (ValueError, AttributeError):
            raise FrameError("undecodable frame") from None
        raise V1Frame(request_id)
    return decode_payload(body)


def refuse_v1(request_id: Any, error: BaseException) -> bytes:
    """A failure reply in protocol 1's framing (``length | JSON``) — the
    one thing a protocol-1 client can still be told."""
    body = json.dumps({"id": request_id, "ok": False, "error": error_to_wire(error)})
    return LENGTH_PREFIX.pack(len(body)) + body.encode("utf-8")


# ----------------------------------------------------------------------
# tables: column buffers behind a JSON description
# ----------------------------------------------------------------------
#: Integer kinds, narrowest first, with the range each holds.
_INT_KINDS = tuple(
    (kind, np.iinfo(kind).min, np.iinfo(kind).max) for kind in ("i1", "i2", "i4", "i8")
)
_DTYPES = {kind: np.dtype("<" + kind) for kind in ("i1", "i2", "i4", "i8", "f8")}


def _narrow(data: np.ndarray) -> tuple[str, np.ndarray]:
    """``data`` (int64) at the narrowest integer kind that holds it."""
    low, high = (int(data.min()), int(data.max())) if data.shape[0] else (0, 0)
    kind = next(k for k, lowest, highest in _INT_KINDS if lowest <= low and high <= highest)
    return kind, np.ascontiguousarray(data, dtype=_DTYPES[kind])


def _used_strings(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending dictionary codes ``codes`` uses, and ``codes`` renumbered
    to positions among them: ``np.unique(codes, return_inverse=True)``.

    A presence mask over a dictionary of ``size`` strings finds them
    without sorting the frame; a dictionary larger than the frame is
    cheaper to sort the frame for.
    """
    if size > codes.shape[0]:
        return np.unique(codes, return_inverse=True)
    present = np.zeros(size, dtype=bool)
    present[codes] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[codes]


def _table_to_wire(table: Table, attach: Callable[[np.ndarray], int]) -> dict[str, Any]:
    columns = []
    for name in table.column_names:
        column = table.column(name)
        data = column.data
        wire: dict[str, Any] = {"name": name}
        if column.ctype is ColumnType.STRING:
            dictionary = column.dictionary
            used, codes = _used_strings(data, len(dictionary))
            width, codes = _narrow(codes)
            wire.update(kind="dict", codes=width, at=attach(codes),
                        strings=[dictionary[code] for code in used.tolist()])
        elif column.ctype is ColumnType.INT:
            kind, data = _narrow(data)
            wire.update(kind=kind, at=attach(data))
        else:
            wire.update(kind="f8", at=attach(np.ascontiguousarray(data, dtype=_DTYPES["f8"])))
        columns.append(wire)
    return {"name": table.name, "rows": table.num_rows, "columns": columns}


def _table_from_wire(wire: Any, buffers: memoryview) -> Table:
    """Rebuild a table over ``buffers``; a description that does not match
    them is a :class:`FrameError`, found before anything is allocated."""
    try:
        rows = wire["rows"]
        if not isinstance(rows, int) or isinstance(rows, bool) or rows < 0:
            raise FrameError(f"table rows must be a non-negative integer, got {rows!r}")
        columns = {
            str(column["name"]): _column_from_wire(column, rows, buffers)
            for column in wire["columns"]
        }
        return Table(str(wire["name"]), columns)
    except FrameError:
        raise
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise FrameError(f"malformed table frame: {exc!r}") from None


def _buffer(kind: Any, wire: dict[str, Any], rows: int, buffers: memoryview) -> np.ndarray:
    dtype = _DTYPES.get(kind) if isinstance(kind, str) else None
    if dtype is None:
        raise FrameError(f"unknown column kind {kind!r}")
    at = wire["at"]
    if not isinstance(at, int) or at < 0 or at + rows * dtype.itemsize > len(buffers):
        raise FrameError(
            f"column buffer of {rows} x {dtype.itemsize} bytes at {at!r} "
            f"exceeds the frame's {len(buffers)} buffer bytes"
        )
    return np.frombuffer(buffers, dtype=dtype, count=rows, offset=at)


def _column_from_wire(wire: dict[str, Any], rows: int, buffers: memoryview) -> Column:
    kind = wire["kind"]
    if kind == "dict":
        strings = wire["strings"]
        if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
            raise FrameError("dict column strings must be a list of strings")
        codes = _buffer(wire["codes"], wire, rows, buffers)
        if codes.dtype.kind != "i" or (
            rows and not 0 <= int(codes.min()) <= int(codes.max()) < len(strings)
        ):
            raise FrameError("dict column codes point outside its strings")
        return Column.from_physical(
            codes.astype(np.int64, copy=False), ColumnType.STRING, strings
        )
    data = _buffer(kind, wire, rows, buffers)
    if kind == "f8":
        return Column.from_physical(data, ColumnType.FLOAT)
    return Column.from_physical(data.astype(np.int64, copy=False), ColumnType.INT)


# ----------------------------------------------------------------------
# error mapping
# ----------------------------------------------------------------------
#: Exception classes that cross the wire under their own name.  Anything
#: else (including non-Repro exceptions escaping the server) is reported
#: as OperationalError so a server bug cannot crash the protocol.
_ERROR_TYPES: dict[str, type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        ReproError,
        CatalogError,
        SchemaError,
        ParseError,
        PlanningError,
        ExecutionError,
        BudgetExceeded,
        UnsupportedQueryError,
        InterfaceError,
        OperationalError,
        FrameError,
    )
}


def error_to_wire(exc: BaseException) -> dict[str, Any]:
    """Serialize an exception for the failure envelope."""
    name = type(exc).__name__
    wire: dict[str, Any] = {"type": name, "message": str(exc)}
    if isinstance(exc, ParseError):
        wire["position"] = exc.position
    if isinstance(exc, BudgetExceeded):
        wire["spent"] = exc.spent
    if name not in _ERROR_TYPES:
        # A non-Repro exception escaped the dispatch — degrade explicitly.
        wire["type"] = "OperationalError"
        wire["message"] = f"server error {name}: {exc}"
    return wire


def error_from_wire(wire: dict[str, Any]) -> ReproError:
    """Reconstruct the exception a failure envelope describes."""
    cls = _ERROR_TYPES.get(str(wire.get("type")), OperationalError)
    message = str(wire.get("message", "unknown server error"))
    if cls is ParseError:
        position = wire.get("position")
        return ParseError(message, position if isinstance(position, int) else None)
    if cls is BudgetExceeded:
        spent = wire.get("spent")
        return BudgetExceeded(message, spent if isinstance(spent, int) else 0)
    return cls(message)


# ----------------------------------------------------------------------
# per-submission config
# ----------------------------------------------------------------------
_SCALAR_TYPES = {"int": int, "float": (int, float), "str": str, "None": type(None)}
_CONFIG_ANNOTATIONS = {field.name: field.type for field in dataclasses.fields(SkinnerConfig)}


def _scalar_matches(annotation: str, value: Any) -> bool:
    """Whether ``value`` fits a field annotated ``int``, ``str | None``, ..."""
    names = [part.strip() for part in annotation.split("|")]
    if isinstance(value, bool):  # an int subclass: passes only where the field says bool
        return "bool" in names
    return any(isinstance(value, _SCALAR_TYPES[name]) for name in names if name != "bool")


def config_from_wire(wire: dict[str, Any]) -> SkinnerConfig:
    """The :class:`SkinnerConfig` a ``submit`` carries, checked field by field.

    The payload is outside input: an unknown key or an ill-typed scalar is
    an :class:`InterfaceError` naming the key here, at the verb, instead of
    a ``TypeError`` from the constructor or a failure mid-query.
    """
    if not isinstance(wire, dict):
        raise InterfaceError(f"submit config must be an object, got {type(wire).__name__}")
    for key, value in wire.items():
        if key not in _CONFIG_ANNOTATIONS:
            raise InterfaceError(f"unknown config field {key!r}")
        if not _scalar_matches(_CONFIG_ANNOTATIONS[key], value):
            raise InterfaceError(
                f"config field {key!r} must be {_CONFIG_ANNOTATIONS[key]}, got {value!r}"
            )
    return SkinnerConfig(**wire)


# ----------------------------------------------------------------------
# result and metrics codecs
# ----------------------------------------------------------------------
def metrics_to_wire(metrics: QueryMetrics) -> dict[str, Any]:
    """Serialize :class:`QueryMetrics` (work counters exactly, as ints)."""
    return {
        "engine": metrics.engine,
        "work": dataclasses.asdict(metrics.work),
        "wall_time_seconds": metrics.wall_time_seconds,
        "intermediate_cardinality": metrics.intermediate_cardinality,
        "result_rows": metrics.result_rows,
        "final_join_order": (
            list(metrics.final_join_order)
            if metrics.final_join_order is not None
            else None
        ),
        "time_slices": metrics.time_slices,
        "uct_nodes": metrics.uct_nodes,
        "tracker_nodes": metrics.tracker_nodes,
        "result_tuple_count": metrics.result_tuple_count,
        # JSON turns the extras' tuples into lists and their int keys into
        # strings; ``metrics_from_wire`` rebuilds the ones engines report.
        "extra": metrics.extra,
    }


def metrics_from_wire(wire: dict[str, Any]) -> QueryMetrics:
    """Reconstruct :class:`QueryMetrics` from its wire form."""
    order = wire.get("final_join_order")
    return QueryMetrics(
        engine=wire["engine"],
        work=WorkBreakdown(**wire["work"]),
        wall_time_seconds=wire["wall_time_seconds"],
        intermediate_cardinality=wire["intermediate_cardinality"],
        result_rows=wire["result_rows"],
        final_join_order=tuple(order) if order is not None else None,
        time_slices=wire["time_slices"],
        uct_nodes=wire["uct_nodes"],
        tracker_nodes=wire["tracker_nodes"],
        result_tuple_count=wire["result_tuple_count"],
        extra=_extra_from_wire(wire.get("extra") or {}),
    )


def _extra_from_wire(extra: dict[str, Any]) -> dict[str, Any]:
    """Engine extras as the engine reported them: join orders as tuples,
    Skinner-G's timeout levels keyed by int."""
    extra = dict(extra)
    if "top_orders" in extra:
        extra["top_orders"] = [(tuple(order), visits) for order, visits in extra["top_orders"]]
    if "trace" in extra:
        extra["trace"] = [{**record, "order": tuple(record["order"])} for record in extra["trace"]]
    if extra.get("plan") is not None:
        extra["plan"] = tuple(extra["plan"])
    if "timeout_levels" in extra:
        extra["timeout_levels"] = {int(k): units for k, units in extra["timeout_levels"].items()}
    return extra


def result_to_wire(result: QueryResult) -> dict[str, Any]:
    """Serialize a completed :class:`QueryResult` (table + metrics); the
    table is encoded, column-wise, by :func:`encode_frame`."""
    return {"table": result.table, "metrics": metrics_to_wire(result.metrics)}


def result_from_wire(wire: dict[str, Any]) -> QueryResult:
    """Reconstruct a :class:`QueryResult` from its (decoded) wire form."""
    return QueryResult(wire_table(wire), metrics_from_wire(wire["metrics"]))


def wire_table(wire: dict[str, Any]) -> Table:
    """The table a decoded message carries under ``"table"``."""
    table = wire.get("table")
    if not isinstance(table, Table):
        raise InterfaceError("message carries no table")
    return table
