"""The asyncio network front door over a :class:`QueryServer`.

:class:`ReproServer` listens on TCP and serves the wire protocol of
:mod:`repro.net.protocol` against one server-side in-process
:class:`~repro.api.connection.Connection`.  The design keeps the serving
layer's central invariant intact — all episodes still run on one thread:

* a single **pump** coroutine calls ``QueryServer.step()`` while any
  session is runnable (yielding to the event loop between grants, so
  socket I/O interleaves with execution) and sleeps on a work event when
  idle;
* client handlers never execute queries; they translate verbs into
  ``submit`` / ``poll`` / ``fetch(drive=False)`` calls and *wait on a
  progress event* the pump sets after every grant — the asyncio
  equivalent of the cooperative driving that in-process callers do;
* **backpressure**: a handler stops reading its socket while its tenant's
  backlog (non-terminal sessions) is at ``TENANT_BACKLOG``, so a
  flooding client is throttled by TCP flow control instead of growing an
  unbounded server-side queue.  The gate sits *between* requests — the
  previous response is always sent first — and sessions complete without
  being fetched, so a gated tenant's backlog always drains;
* **disconnect cleanup**: when a client's socket closes (EOF, reset, or a
  framing violation), every ticket that client still holds is released
  (cancelled if in flight, then forgotten), freeing its admission slot — a
  vanished client cannot starve the tenants that stayed;
* **ticket ownership**: a connection reaches only the tickets it submitted.
  Another connection's ticket reads exactly like one that does not exist
  (``unknown ticket N``), so a reply never reveals that it does.

:class:`ServerThread` hosts a server on a background thread with an
ephemeral port for tests, benchmarks, and the self-contained quickstart.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Any

from repro.api.connection import Connection, connect
from repro.api.settings import SETTINGS, check_settings
from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.errors import InterfaceError, OperationalError, ReproError
from repro.net import protocol
from repro.net.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    V1Frame,
    config_from_wire,
    encode_frame,
    error_to_wire,
    fitting_rows,
    read_frame,
    refuse_v1,
    result_to_wire,
    wire_table,
)
from repro.serving.server import check_fetch_size
from repro.serving.session import QuerySession, SessionState

#: Non-terminal sessions a tenant may hold before its sockets stop being
#: read (the backpressure bound).
TENANT_BACKLOG = 8

#: The arguments the ``submit`` verb reads; any other name is refused.
_SUBMIT_ARGS = frozenset({
    "sql", "params", "engine", "config", "use_result_cache", "stream", "release", "first",
})


def _same_path(a: str, b: str) -> bool:
    """Whether two paths name the same location (symlinks resolved)."""
    return os.path.realpath(a) == os.path.realpath(b)


def _version_error(version: Any) -> OperationalError:
    return OperationalError(
        f"protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
    )


def _ticket_arg(args: dict[str, Any], name: str = "ticket") -> int:
    """A ticket argument (outside input): an ``int`` that is not a ``bool``."""
    if name not in args:
        raise InterfaceError(f"argument {name!r} is required")
    value = args[name]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InterfaceError(f"argument {name!r} must be an int ticket, got {value!r}")


def _str_arg(args: dict[str, Any], name: str, default: str | None = None) -> str:
    """A string argument (outside input): a ``str``.  Without a ``default``
    it is required and never ``null``; with one, a missing or ``null``
    argument reads as the default."""
    value = args.get(name)
    if value is None and default is not None:
        return default
    if name not in args:
        raise InterfaceError(f"argument {name!r} is required")
    if isinstance(value, str):
        return value
    raise InterfaceError(f"argument {name!r} must be a string, got {value!r}")


def _bool_arg(args: dict[str, Any], name: str, default: bool) -> bool:
    """A flag argument (outside input): a JSON ``true``/``false``, not a
    truthy string or number; ``default`` where it is missing."""
    value = args.get(name, default)
    if isinstance(value, bool):
        return value
    raise InterfaceError(f"argument {name!r} must be a boolean, got {value!r}")


def _request_args(request: dict[str, Any]) -> dict[str, Any]:
    """A request's ``args`` (outside input): an object, or absent."""
    args = request.get("args")
    if args is None:
        return {}
    if not isinstance(args, dict):
        raise OperationalError("args must be a JSON object")
    return args


def _reply(
    request_id: Any,
    *,
    data: dict[str, Any] | None = None,
    error: BaseException | None = None,
) -> bytes:
    """The frame answering request ``request_id``: ``data``, or ``error``."""
    if error is not None:
        return encode_frame({"id": request_id, "ok": False, "error": error_to_wire(error)})
    return encode_frame({"id": request_id, "ok": True, "data": data or {}})


class _Client:
    """Per-connection state: the handshaken tenant and owned tickets."""

    def __init__(self, peer: str) -> None:
        self.peer = peer
        self.tenant = "default"
        #: Effective connection settings of this session, fixed by its
        #: ``hello``: what it asked for, else the server's config.
        self.settings: dict[str, Any] = {}
        self.tickets: set[int] = set()

    def owned(self, args: dict[str, Any]) -> int:
        """The request's ``ticket``, which must be one this client holds."""
        ticket = _ticket_arg(args)
        if ticket not in self.tickets:
            raise ReproError(f"unknown ticket {ticket}")  # foreign reads as absent
        return ticket


class ReproServer:
    """A TCP front door serving the wire protocol over one connection.

    Parameters
    ----------
    connection:
        The server-side :class:`Connection` holding the catalog and the
        serving layer.  When omitted, a fresh local connection is created
        from ``config``.
    config:
        Configuration for the implicit connection (ignored when
        ``connection`` is given).
    host, port:
        Listen address; port 0 picks an ephemeral port (read back from
        :attr:`port` after :meth:`start`).

    From :meth:`start` to :meth:`stop` the connection is *served*
    (``connection.served_at`` is :attr:`dsn`): the server's thread steps
    its scheduler, so a local statement on it — ``execute``, a cursor's
    ``execute`` or fetch — raises :class:`~repro.errors.InterfaceError`
    instead of racing that thread.  Seeding and inspecting stay allowed:
    ``parse``, ``add_table`` / ``create_table`` / ``drop_table``,
    ``commit``, ``stats`` and ``execute_direct``, which runs the engine
    without the scheduler.
    """

    def __init__(
        self,
        connection: Connection | None = None,
        *,
        config: SkinnerConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if connection is None:
            connection = connect(config if config is not None else DEFAULT_CONFIG)
        if connection.is_remote:
            raise InterfaceError("a ReproServer needs a local connection to serve")
        self.connection = connection
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._work: asyncio.Event = asyncio.Event()
        self._progress: asyncio.Event = asyncio.Event()
        self._stopping = False
        self._clients: set[_Client] = set()
        #: Each open client socket's writer, by the task handling it.
        self._writers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the episode pump."""
        self._server = await asyncio.start_server(self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.connection.served_at = self.dsn
        # A cancel made on the loop thread — a handler's release, or the
        # host's own call — frees an admission slot and shrinks a tenant's
        # backlog: it wakes the pump and every parked request.
        self.connection.server.progress_hook = self._notify_progress
        self._started_at = time.monotonic()
        self._pump_task = asyncio.create_task(self._pump())

    async def serve_forever(self) -> None:
        """:meth:`start` then serve until cancelled or :meth:`stop`."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop listening, drop live client sockets, wait for their
        handlers to return, and end the pump.

        A handler left running would be cancelled by the event loop's
        shutdown instead, mid-read, which asyncio reports as an unhandled
        error.  A socket whose peer has not read what was sent is aborted,
        not closed, so no handler waits on it.
        """
        if self._stopping:
            return
        self._stopping = True
        self._notify_progress()  # wake the pump and handlers blocked on fetch/backpressure
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers.values()):
            if writer.transport.get_write_buffer_size():
                writer.transport.abort()
            else:
                writer.close()
        if self._writers:
            await asyncio.wait(list(self._writers))
        if self._server is not None:
            # Since Python 3.12 this also waits for every accepted
            # connection to drop, so it must come after the sockets close.
            await self._server.wait_closed()
        if self._pump_task is not None:
            await self._pump_task
        if not self.connection.closed:
            self.connection.server.progress_hook = None
        self.connection.served_at = None

    @property
    def dsn(self) -> str:
        """A DSN clients can :func:`repro.api.connect` with."""
        return f"repro://{self.host}:{self.port}/"

    # ------------------------------------------------------------------
    # the episode pump
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        """Run scheduling grants while work exists; sleep on the work event.

        Yielding after every grant keeps socket I/O responsive even under
        sustained load — one grant is one episode.
        """
        server = self.connection.server
        while not self._stopping:
            if server.step():
                await self._yield_to_clients()
            else:
                self._work.clear()
                # Re-check after clearing: a submit may have raced the clear.
                if server.step():
                    await self._yield_to_clients()
                    continue
                if self._stopping:
                    break
                await self._work.wait()

    async def _yield_to_clients(self) -> None:
        """After a grant: wake the waiters, then let the loop turn three times.

        The pump is always ahead of the handlers in the loop's ready queue,
        so one turn per grant would answer a request that arrived during a
        grant only two grants later (one turn reads the socket, the next
        wakes the handler).  Three turns answer it before the next grant
        starts: what a request waits for is the grant in flight, whose
        length the slice-budget schedule now grows.
        """
        self._notify_progress()
        for _ in range(3):
            await asyncio.sleep(0)

    def _notify_progress(self) -> None:
        """Wake the pump and every coroutine waiting for serving-state changes."""
        self._work.set()
        event, self._progress = self._progress, asyncio.Event()
        event.set()

    async def _await_progress(self) -> None:
        """Park until the next grant/submission/cancellation, or shutdown."""
        if self._stopping:
            raise OperationalError("server is shutting down")
        event = self._progress
        self._work.set()
        await event.wait()
        if self._stopping:
            raise OperationalError("server is shutting down")

    # ------------------------------------------------------------------
    # client handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        client = _Client(str(peername))
        handler = asyncio.current_task()
        assert handler is not None
        self._writers[handler] = writer
        try:
            # Accepted just before stop(): its writer was not there to close.
            if self._stopping or not await self._handshake(client, reader, writer):
                return
            self._clients.add(client)
            qs = self.connection.server
            while not self._stopping:
                # Backpressure: stop reading this tenant's socket while its
                # backlog is full; TCP flow control throttles the client.
                while qs.tenant_backlog(client.tenant) >= TENANT_BACKLOG:
                    await self._await_progress()
                request = await read_frame(reader)
                if request is None:
                    return  # clean disconnect
                await self._respond(client, writer, request)
        except (FrameError, ConnectionResetError, BrokenPipeError, OperationalError):
            return  # broken peer: cleanup below still runs
        finally:
            del self._writers[handler]
            self._clients.discard(client)
            self._abandon_client(client)
            writer.close()

    async def _handshake(
        self, client: _Client, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """First exchange: protocol version check and tenant binding."""
        try:
            request = await read_frame(reader)
        except V1Frame as old:
            # The same typed refusal a v2-framed hello naming version 1
            # gets, in the only framing this peer reads.
            writer.write(refuse_v1(old.request_id, _version_error(1)))
            await writer.drain()
            return False
        if request is None:
            return False
        request_id = request.get("id")
        try:
            if request.get("v") != "hello":
                raise OperationalError("first request must be hello")
            args = _request_args(request)
            version = args.get("version")
            if version != PROTOCOL_VERSION:
                raise _version_error(version)
            # A missing, null or empty tenant is the default one.
            client.tenant = _str_arg(args, "tenant", "default") or "default"
            requested = self._admit_settings(args)
        except (OperationalError, InterfaceError) as exc:
            await self._write(writer, request_id, error=exc)
            return False
        config = self.connection.config
        client.settings = {
            setting.name: requested.get(setting.name, getattr(config, setting.config_field))
            for setting in SETTINGS
        }
        await self._write(
            writer, request_id,
            data={"version": PROTOCOL_VERSION, "tenant": client.tenant, "server": "repro",
                  **client.settings},
        )
        return True

    def _admit_settings(self, args: dict[str, Any]) -> dict[str, Any]:
        """The session's requested connection settings, validated.

        On top of the settings table's shape checks: an engine must exist
        in the *server's* registry (else it would fail only at the first
        submit), and a ``data_dir`` other than the one this server serves
        is refused (the session would silently run against the wrong, or
        no, durable state).  A matching ``data_dir`` is dropped: the reply
        echoes the server's own spelling.
        """
        requested = check_settings(args)
        if "engine" in requested:
            self.connection.registry.resolve(requested["engine"])
        requested_dir = requested.pop("data_dir", None)
        server_dir = self.connection.config.data_dir
        if requested_dir is not None and (
            server_dir is None or not _same_path(requested_dir, server_dir)
        ):
            raise InterfaceError(
                f"server data_dir is {server_dir!r}; "
                f"refusing session asking for {requested_dir!r}"
            )
        return requested

    async def _respond(
        self, client: _Client, writer: asyncio.StreamWriter, request: dict[str, Any]
    ) -> None:
        request_id = request.get("id")
        verb = request.get("v")
        try:
            data = await self._dispatch(client, str(verb), _request_args(request))
            frame = _reply(request_id, data=data)
        except FrameError as exc:
            # A reply too large for one frame: the peer is fine, so it is
            # told so and the connection keeps serving.
            frame = _reply(request_id, error=OperationalError(str(exc)))
        except Exception as exc:  # noqa: BLE001 - a ReproError, or a server
            # bug, becomes an error on the wire instead of killing the socket.
            frame = _reply(request_id, error=exc)
        writer.write(frame)
        await writer.drain()

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        request_id: Any,
        *,
        data: dict[str, Any] | None = None,
        error: BaseException | None = None,
    ) -> None:
        writer.write(_reply(request_id, data=data, error=error))
        await writer.drain()

    def _abandon_client(self, client: _Client) -> None:
        """Release every ticket a client left behind."""
        for ticket in sorted(client.tickets):
            self._release(client, ticket)

    def _release(self, client: _Client, ticket: int) -> bool:
        """Release one of ``client``'s tickets; a foreign one is a no-op."""
        if ticket not in client.tickets:
            return False
        client.tickets.discard(ticket)
        # A release that cancels wakes the waiters through the progress hook.
        return self.connection.server.release(ticket)

    # ------------------------------------------------------------------
    # verb dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, client: _Client, verb: str, args: dict[str, Any]
    ) -> dict[str, Any]:
        handler = getattr(self, f"_verb_{verb}", None)
        if handler is None:
            raise OperationalError(f"unknown verb {verb!r}")
        return await handler(client, args)

    async def _verb_submit(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        unknown = sorted(set(args) - _SUBMIT_ARGS)
        if unknown:
            raise InterfaceError(f"unknown submit argument {unknown[0]!r}")
        sql = args.get("sql")
        if not isinstance(sql, str):
            raise InterfaceError(f"submit argument 'sql' must be SQL text, got {sql!r}")
        if args.get("release") is not None:
            # Before admission, so the slot it frees can go to this statement.
            self._release(client, _ticket_arg(args, "release"))
        conn = self.connection
        parsed = conn.parse(sql, args.get("params"))
        config = args.get("config")
        if config is not None:
            # A per-submission config carries its own parallel_workers —
            # the client serialized the whole dataclass, session defaults
            # must not override an explicit choice.
            effective_config = config_from_wire(config)
        else:
            effective_config = conn.config.with_overrides(
                parallel_workers=client.settings["workers"]
            )
        stream = _bool_arg(args, "stream", True)
        first = _bool_arg(args, "first", False)
        ticket = conn.server.submit(
            parsed,
            engine=_str_arg(args, "engine", client.settings["engine"]),
            config=effective_config,
            use_result_cache=_bool_arg(args, "use_result_cache", True),
            tenant=client.tenant,
            stream=stream,
        )
        client.tickets.add(ticket)
        self._work.set()
        reply: dict[str, Any] = {
            "ticket": ticket,
            "columns": list(parsed.output_names(conn.catalog)),
        }
        if first and stream:
            # Park until the first grant ran.  A queued session returns at
            # once; a failed or cancelled one gets its ticket only, and its
            # first fetch raises the typed error.
            session = conn.server.session(ticket)
            while session.state is SessionState.RUNNING and not session.episodes:
                await self._await_progress()
            if session.state in (SessionState.RUNNING, SessionState.FINISHED):
                try:
                    reply.update(self._batch(ticket, session, None))
                except OperationalError:
                    pass  # a row too large for a frame: the first fetch says so
        return reply

    async def _verb_poll(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        return self.connection.server.poll(client.owned(args))

    async def _verb_fetch(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        """Next streamed batch; parks on the progress event until rows exist.

        ``done`` tells the client the result is exhausted, so it never
        spends an exchange on an empty batch to learn that.
        """
        qs = self.connection.server
        ticket = client.owned(args)
        max_rows = args.get("max_rows")
        check_fetch_size(max_rows)  # before parking, not after the wait
        while True:
            session = qs.session(ticket)
            if session.done or (session.stream is not None and len(session.stream)):
                return self._batch(ticket, session, max_rows)
            await self._await_progress()

    def _batch(
        self, ticket: int, session: QuerySession, max_rows: int | None
    ) -> dict[str, Any]:
        """Up to ``max_rows`` buffered rows, as many as one reply frame
        carries, and whether they are the last.

        Rows that do not fit go back to the head of the stream buffer for
        the next ``fetch``, so the batch says ``done: false``.
        """
        table = self.connection.server.fetch_batch(ticket, max_rows, drive=False)
        fits = fitting_rows(table)
        if fits < table.num_rows:
            assert session.stream is not None
            session.stream.give_back(table.slice(fits))
            if not fits:
                raise OperationalError(
                    f"a result row does not fit one frame of {protocol.MAX_FRAME} bytes")
            table = table.slice(0, fits)
        return {"table": table, "done": session.drained}

    async def _verb_result(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        """The completed result; parks until the session is terminal."""
        qs = self.connection.server
        ticket = client.owned(args)
        while not qs.session(ticket).done:
            await self._await_progress()
        return result_to_wire(qs.result(ticket, drive=False))

    async def _verb_release(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        return {"released": self._release(client, _ticket_arg(args))}

    async def _verb_create_table(
        self, client: _Client, args: dict[str, Any]
    ) -> dict[str, Any]:
        table = wire_table(args)
        self.connection.add_table(table, replace=_bool_arg(args, "replace", False))
        return {"name": table.name, "rows": table.num_rows}

    async def _verb_drop_table(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        self.connection.drop_table(_str_arg(args, "name"))
        return {}

    async def _verb_commit(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        self.connection.commit()
        return {}

    async def _verb_rollback(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        self.connection.rollback()
        return {}

    async def _verb_set_quota(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        tenant = _str_arg(args, "tenant")
        share = args.get("share")
        if isinstance(share, bool) or not isinstance(share, (int, float)):
            raise InterfaceError(f"tenant quota share must be positive and finite, got {share!r}")
        self.connection.server.set_tenant_quota(tenant, share)
        return {}

    async def _verb_stats(self, client: _Client, args: dict[str, Any]) -> dict[str, Any]:
        stats = self.connection.server.stats()
        stats["clients"] = len(self._clients)
        stats["uptime_seconds"] = time.monotonic() - self._started_at
        stats["protocol_version"] = PROTOCOL_VERSION
        return stats


class ServerThread:
    """A live :class:`ReproServer` on a daemon thread (tests, benchmarks).

    Seed and inspect through :attr:`connection`; run statements through a
    client of :attr:`dsn` — the served connection refuses local ones until
    :meth:`stop` (see :class:`ReproServer`).

    >>> from repro.net.server import ServerThread  # doctest: +SKIP
    >>> with ServerThread() as server:             # doctest: +SKIP
    ...     conn = connect(server.dsn)
    """

    def __init__(
        self,
        connection: Connection | None = None,
        *,
        config: SkinnerConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = ReproServer(connection, config=config, host=host, port=port)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True
        )
        self._error: BaseException | None = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def start(self) -> ServerThread:
        """Start the thread; returns once the socket is listening."""
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise OperationalError("server thread did not become ready")
        if self._error is not None:
            raise OperationalError(f"server thread failed: {self._error}")
        return self

    def stop(self) -> None:
        """Shut the server down and join the thread (idempotent)."""
        if self._loop is not None and self._thread.is_alive():
            assert self._stop_event is not None
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)

    @property
    def dsn(self) -> str:
        """DSN of the live server (valid after :meth:`start`)."""
        return self.server.dsn

    @property
    def connection(self) -> Connection:
        """The server-side connection (seed schema through this)."""
        return self.server.connection

    def __enter__(self) -> ServerThread:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
