"""The wire protocol: length-prefixed JSON frames over TCP.

Framing is a 4-byte big-endian payload length followed by a UTF-8 JSON
document; :data:`MAX_FRAME` bounds the payload so a corrupt or hostile
length prefix cannot make either side allocate unboundedly.  JSON (rather
than a binary codec) keeps the protocol dependency-free and debuggable
with a packet capture; every value the engine produces — column values
are plain ``int`` / ``float`` / ``str`` — round-trips losslessly.

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
cannot be changed afterwards (quota accounting is per-connection).
See ``docs/serving.md`` for the full verb table.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
from typing import Any

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
from repro.storage.table import Table

#: Protocol revision; bumped on any incompatible wire change.  The server
#: rejects a ``hello`` with a different version.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's JSON payload (64 MiB).
MAX_FRAME = 64 * 1024 * 1024

LENGTH_PREFIX = struct.Struct(">I")


class FrameError(OperationalError):
    """The byte stream violated the framing rules (not a valid peer)."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialize one message to its on-wire bytes (length prefix + JSON)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return LENGTH_PREFIX.pack(len(body)) + body


def decode_payload(body: bytes) -> dict[str, Any]:
    """Parse a frame payload; framing errors surface as :class:`FrameError`."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError("frame payload must be a JSON object")
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    EOF in the middle of a frame (a peer that died mid-message) raises
    :class:`FrameError` — callers treat both as a disconnect but the
    distinction matters for logging.
    """
    try:
        prefix = await reader.readexactly(LENGTH_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise FrameError("connection closed mid-frame") from None
    (length,) = LENGTH_PREFIX.unpack(prefix)
    if length > MAX_FRAME:
        raise FrameError(f"announced frame of {length} bytes exceeds MAX_FRAME")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise FrameError("connection closed mid-frame") from None
    return decode_payload(body)


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
#: Fields older clients still serialize, with what replaced them.
_REMOVED_CONFIG_FIELDS = {
    "join_mode": "the plan executor always runs the vectorized hash-join kernel",
    "postprocess_mode": "post-processing always runs the columnar pipeline "
                        "(row pipeline where an expression needs it)",
}

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
        if key in _REMOVED_CONFIG_FIELDS:
            raise InterfaceError(
                f"config field {key!r} was removed: {_REMOVED_CONFIG_FIELDS[key]}; "
                "drop it from the submitted config (upgrade the client)"
            )
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
        "parallel_work": (
            dataclasses.asdict(metrics.parallel_work)
            if metrics.parallel_work is not None
            else None
        ),
        "simulated_time": metrics.simulated_time,
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
        # Engine extras are JSON-normalized (tuples become lists); the
        # byte-identity tests compare charges, not extras' container types.
        "extra": metrics.extra,
    }


def metrics_from_wire(wire: dict[str, Any]) -> QueryMetrics:
    """Reconstruct :class:`QueryMetrics` from its wire form."""
    order = wire.get("final_join_order")
    spread = wire["parallel_work"]
    return QueryMetrics(
        engine=wire["engine"],
        work=WorkBreakdown(**wire["work"]),
        parallel_work=WorkBreakdown(**spread) if spread is not None else None,
        simulated_time=wire["simulated_time"],
        wall_time_seconds=wire["wall_time_seconds"],
        intermediate_cardinality=wire["intermediate_cardinality"],
        result_rows=wire["result_rows"],
        final_join_order=tuple(order) if order is not None else None,
        time_slices=wire["time_slices"],
        uct_nodes=wire["uct_nodes"],
        tracker_nodes=wire["tracker_nodes"],
        result_tuple_count=wire["result_tuple_count"],
        extra=dict(wire.get("extra") or {}),
    )


def result_to_wire(result: QueryResult) -> dict[str, Any]:
    """Serialize a completed :class:`QueryResult` (columns + metrics)."""
    table = result.table
    columns = [table.column(name).values() for name in table.column_names]
    return {
        "name": table.name,
        "columns": list(table.column_names),
        "rows": [list(row) for row in zip(*columns)],
        "metrics": metrics_to_wire(result.metrics),
    }


def result_from_wire(wire: dict[str, Any]) -> QueryResult:
    """Reconstruct a :class:`QueryResult` from its wire form."""
    rows = [tuple(row) for row in wire["rows"]]
    table = Table.from_rows(wire["name"], wire["columns"], rows)
    return QueryResult(table, metrics_from_wire(wire["metrics"]))
