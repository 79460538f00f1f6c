"""Network front door: a TCP server and client for the serving layer.

The package turns the in-process :class:`~repro.serving.server.QueryServer`
into a multi-tenant network service:

* :mod:`repro.net.protocol` — the wire protocol: length-prefixed frames
  of a JSON header and raw column buffers (framing, verb/response
  envelopes, error, table and result codecs);
* :mod:`repro.net.server` — the :class:`ReproServer` asyncio front door
  (per-client handshake, episode pump, tenant backpressure, disconnect
  cleanup) plus :class:`ServerThread` for embedding a live server in tests
  and benchmarks;
* :mod:`repro.net.client` — the blocking-socket
  :class:`~repro.net.client.RemoteTransport` behind
  ``connect("repro://host:port/?tenant=...")``.

``python -m repro.net`` starts a standalone server (see ``__main__.py``).
"""

from repro.net.client import RemoteTransport, parse_dsn
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.server import ReproServer, ServerThread

__all__ = [
    "PROTOCOL_VERSION",
    "RemoteTransport",
    "ReproServer",
    "ServerThread",
    "parse_dsn",
]
