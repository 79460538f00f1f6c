"""The remote transport: a blocking socket client for the wire protocol.

``connect("repro://host:port/?tenant=...")`` resolves here.  The client is
deliberately synchronous — the PEP 249 surface is blocking, so the
transport is one :class:`SocketChannel` issuing strictly ordered
request/response exchanges under a lock (thread-safe, like the local
transport's cooperative driving).  :class:`RemoteTransport` carries only
the :class:`~repro.api.transport.Transport` verbs, one exchange per call —
and no call that carries nothing: a ``fetch`` reply says whether the
result is ``done``, ``submit`` carries the release of the cursor's
previous ticket, and a cursor's ``submit`` asks for its ``first`` batch,
which the server sends back after the statement's first episode — so a
statement whose result fits one batch is one exchange (``submit``).  Long
waits are server-side: a ``submit`` waiting for its first episode, or a
``fetch`` or ``result`` request, parks in the server's event loop, so the
client needs no polling loop and no timeout by default (pass ``timeout=``
seconds to bound every exchange instead).

Capability limits of the wire (both raise
:class:`~repro.errors.InterfaceError` client-side, before any bytes are
sent): prebuilt :class:`~repro.query.query.Query` objects cannot be
submitted (SQL text travels; the server parses against *its* catalog), and
Python UDFs cannot be registered (the connection refuses that itself).
File loads are parsed client-side by the connection and arrive here as
tables, which ship column-wise.

Lost connections, framing violations, timeouts, and unknown server errors
surface as :class:`~repro.errors.OperationalError`; typed engine errors
(parse, catalog, budget, ...) are reconstructed as their original classes
by :func:`repro.net.protocol.error_from_wire`.
"""

from __future__ import annotations

import dataclasses
import itertools
import socket
import threading
from collections.abc import Mapping, Sequence
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.api.settings import SETTINGS, check_settings
from repro.api.transport import Batch, SubmitHandle, Transport
from repro.config import SkinnerConfig
from repro.errors import InterfaceError, OperationalError
from repro.net.protocol import (
    FRAME_HEAD,
    LENGTH_PREFIX,
    PROTOCOL_VERSION,
    FrameError,
    check_frame_head,
    decode_payload,
    encode_frame,
    error_from_wire,
    result_from_wire,
    wire_table,
)
from repro.result import QueryResult
from repro.storage.table import Table

#: Default TCP port of ``python -m repro.net`` (and DSNs without a port).
DEFAULT_PORT = 7439


def parse_dsn(dsn: str) -> tuple[str, int, dict[str, Any]]:
    """Parse ``repro://host:port/?tenant=name&timeout=s&workers=N&data_dir=path&engine=name``.

    Returns ``(host, port, options)`` where ``options`` holds the query
    parameters the DSN sets: ``tenant``, ``timeout`` (seconds, a float), and
    the connection settings of :data:`repro.api.settings.SETTINGS`, each
    already validated and normalised by its table row.  Unknown and repeated
    parameters are rejected — a typo in ``tenant`` (or a second ``tenant=``
    silently losing to the first) would otherwise land the client in the
    wrong quota bucket.
    """
    parts = urlsplit(dsn)
    if parts.scheme != "repro":
        raise InterfaceError(f"DSN scheme must be repro://, got {dsn!r}")
    if parts.path not in ("", "/"):
        raise InterfaceError(f"DSN has no path component, got {parts.path!r}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port if parts.port is not None else DEFAULT_PORT
    params = parse_qs(parts.query, keep_blank_values=True)
    unknown = set(params) - {"tenant", "timeout"} - {setting.name for setting in SETTINGS}
    if unknown:
        raise InterfaceError(f"unknown DSN parameter(s): {', '.join(sorted(unknown))}")
    repeated = sorted(key for key, values in params.items() if len(values) > 1)
    if repeated:
        raise InterfaceError(f"DSN parameter(s) given more than once: {', '.join(repeated)}")
    raw = {key: values[0] for key, values in params.items()}
    options: dict[str, Any] = check_settings(raw, "DSN ")
    if "tenant" in raw:
        options["tenant"] = raw["tenant"]
    if "timeout" in raw:
        try:
            options["timeout"] = float(raw["timeout"])
        except ValueError:
            raise InterfaceError(
                f"DSN timeout must be a number of seconds, got {raw['timeout']!r}"
            ) from None
    return host, port, options


def _batch(data: dict[str, Any]) -> Batch:
    """The batch a ``fetch`` reply, or a ``submit`` reply that has one, carries."""
    return Batch(wire_table(data), bool(data.get("done")))


class SocketChannel:
    """One blocking protocol connection: framed, lock-serialized exchanges."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        timeout: float | None = None,
        settings: Mapping[str, Any] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._closed = False
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise OperationalError(f"cannot connect to {host}:{port}: {exc}") from None
        # TCP_NODELAY: every exchange is one small frame each way; Nagle
        # would add 40ms to each request under load.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The requested connection settings ride along (None = no request);
        # the server re-checks them and replies with what it granted.
        hello = self.request(
            "hello", version=PROTOCOL_VERSION, tenant=tenant, **(settings or {})
        )
        self.tenant: str = str(hello.get("tenant", tenant))
        #: Effective value of every connection setting, as granted.
        self.settings: dict[str, Any] = {s.name: hello.get(s.name) for s in SETTINGS}

    def request(self, verb: str, **args: Any) -> dict[str, Any]:
        """One request/response exchange; returns the response data."""
        with self._lock:
            if self._closed:
                raise InterfaceError("connection is closed")
            request_id = next(self._seq)
            frame = encode_frame({"v": verb, "id": request_id, "args": args})
            try:
                self._sock.sendall(frame)
                response = self._read_frame()
            except socket.timeout:
                self._teardown()
                raise OperationalError(f"request {verb!r} timed out") from None
            except FrameError:
                self._teardown()  # the stream cannot be resynchronized
                raise
            except OSError as exc:
                self._teardown()
                raise OperationalError(f"connection lost during {verb!r}: {exc}") from None
        if response.get("id") != request_id:
            self.close()
            raise OperationalError(
                f"response id {response.get('id')!r} does not match request {request_id}"
            )
        if response.get("ok"):
            data = response.get("data")
            return data if isinstance(data, dict) else {}
        raise error_from_wire(response.get("error") or {})

    def _read_frame(self) -> dict[str, Any]:
        """One frame, received into one buffer that its tables then view."""
        head = bytearray(FRAME_HEAD.size)
        self._recv_into(head)
        length, header_length = FRAME_HEAD.unpack(head)
        check_frame_head(length, header_length)  # before allocating `length`
        body = bytearray(length)
        body[:LENGTH_PREFIX.size] = head[LENGTH_PREFIX.size:]
        self._recv_into(memoryview(body)[LENGTH_PREFIX.size:])
        return decode_payload(body)

    def _recv_into(self, buffer: bytearray | memoryview) -> None:
        """Fill ``buffer`` from the socket, written once, in place."""
        view = memoryview(buffer)
        while len(view):
            received = self._sock.recv_into(view)
            if not received:
                self._teardown()
                raise OperationalError("server closed the connection")
            view = view[received:]

    def _teardown(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the socket (idempotent)."""
        with self._lock:
            if not self._closed:
                self._teardown()


class RemoteTransport(Transport):
    """The :class:`Transport` over a :class:`SocketChannel`.

    ``connect()`` builds one from a parsed DSN; ``settings`` are the
    resolved connection settings to request in the handshake.
    """

    def __init__(
        self,
        host: str,
        port: int = DEFAULT_PORT,
        *,
        tenant: str = "default",
        timeout: float | None = None,
        settings: Mapping[str, Any] | None = None,
    ) -> None:
        self._channel = SocketChannel(
            host, port, tenant=tenant, timeout=timeout, settings=settings
        )
        self.tenant = self._channel.tenant
        self.settings = self._channel.settings

    # ------------------------------------------------------------------
    # argument marshalling
    # ------------------------------------------------------------------
    @staticmethod
    def _sql_text(operation: str | Any) -> str:
        if not isinstance(operation, str):
            raise InterfaceError(
                "a remote connection takes SQL text only; prebuilt Query "
                "objects cannot cross the wire (the server parses against "
                "its own catalog)"
            )
        return operation

    @staticmethod
    def _wire_params(
        parameters: Sequence[Any] | Mapping[str, Any] | None,
    ) -> list[Any] | dict[str, Any] | None:
        if parameters is None:
            return None
        if isinstance(parameters, Mapping):
            return dict(parameters)
        return list(parameters)

    @staticmethod
    def _wire_config(config: SkinnerConfig | None) -> dict[str, Any] | None:
        # None means "use the server's default config" — the client never
        # implicitly overrides server-side settings (byte-identity with
        # in-process runs against the same server config depends on this).
        return dataclasses.asdict(config) if config is not None else None

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def submit(
        self,
        operation: str | Any,
        parameters: Sequence[Any] | Mapping[str, Any] | None,
        *,
        engine: str,
        config: SkinnerConfig | None,
        use_result_cache: bool,
        stream: bool = True,
        release: int | None = None,
        first: bool = False,
    ) -> SubmitHandle:
        data = self._channel.request(
            "submit",
            sql=self._sql_text(operation),
            params=self._wire_params(parameters),
            engine=engine,
            config=self._wire_config(config),
            use_result_cache=use_result_cache,
            stream=stream,
            release=release,
            first=first,
        )
        batch = _batch(data) if "table" in data else None
        return SubmitHandle(int(data["ticket"]), tuple(data["columns"]), batch)

    def fetch_batch(self, ticket: int, max_rows: int | None) -> Batch:
        return _batch(self._channel.request("fetch", ticket=ticket, max_rows=max_rows))

    def poll(self, ticket: int) -> dict[str, Any]:
        return self._channel.request("poll", ticket=ticket)

    def result(self, ticket: int) -> QueryResult:
        return result_from_wire(self._channel.request("result", ticket=ticket))

    def release(self, ticket: int) -> bool:
        return bool(self._channel.request("release", ticket=ticket).get("released"))

    # ------------------------------------------------------------------
    # schema and transactions
    # ------------------------------------------------------------------
    def add_table(self, table: Table, *, replace: bool) -> Table:
        # The wire verb that carries a table is create_table.
        self._channel.request("create_table", table=table, replace=replace)
        return table

    def drop_table(self, name: str) -> None:
        self._channel.request("drop_table", name=name)

    def commit(self) -> None:
        self._channel.request("commit")

    def rollback(self) -> None:
        if not self._channel.closed:
            self._channel.request("rollback")

    # ------------------------------------------------------------------
    # lifecycle and health
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return self._channel.request("stats")

    def set_tenant_quota(self, tenant: str, share: float) -> None:
        """Set a tenant's quota share on the server (admin verb)."""
        self._channel.request("set_quota", tenant=tenant, share=share)

    def close(self) -> None:
        self._channel.close()
