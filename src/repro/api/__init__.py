"""``repro.api`` — the PEP 249-style public API of the repository.

Four pieces:

* :func:`connect` / :class:`Connection` / :class:`Cursor` — the DB-API 2.0
  surface: session-scoped schema management with transactions over schema
  mutations, parameterized ``execute(sql, params)``, and **streaming**
  fetches (``fetchmany`` returns first rows before the query completes when
  the engine supports it).  ``connect()`` takes either a config (in-process
  database) or a ``repro://host:port/?tenant=...`` DSN (remote server).
* :class:`Transport` / :class:`LocalTransport` /
  :class:`~repro.net.client.RemoteTransport` — the eleven verbs that cross
  the local/remote boundary (submissions and their tickets, table
  registration and drops, transaction boundaries, stats, close).
  ``Connection.execute``, ``create_table`` and the file loads are written
  once above them, which is what makes local and remote connections behave
  identically.
* :class:`EngineRegistry` / :class:`EngineSpec` / :func:`register_engine` —
  the pluggable engine registry every execution path resolves engine names
  through; third-party engines register here and become usable from
  cursors, ``Connection.execute``, and the serving layer alike.
* module globals ``apilevel`` / ``threadsafety`` / ``paramstyle`` per
  PEP 249.

See ``docs/api.md`` for the full tour.
"""

from repro.api.connection import (
    Connection,
    apilevel,
    connect,
    paramstyle,
    threadsafety,
)
from repro.api.cursor import Cursor
from repro.api.transport import LocalTransport, SubmitHandle, Transport
from repro.api.registry import (
    BUILTIN_SPECS,
    DEFAULT_REGISTRY,
    ENGINE_NAMES,
    EngineContext,
    EngineRegistry,
    EngineSpec,
    RegistryNames,
    engine_names,
    register_engine,
)

__all__ = [
    "BUILTIN_SPECS",
    "Connection",
    "Cursor",
    "LocalTransport",
    "SubmitHandle",
    "Transport",
    "DEFAULT_REGISTRY",
    "ENGINE_NAMES",
    "EngineContext",
    "EngineRegistry",
    "EngineSpec",
    "RegistryNames",
    "apilevel",
    "connect",
    "engine_names",
    "paramstyle",
    "register_engine",
    "threadsafety",
]
