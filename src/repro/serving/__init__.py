"""Concurrent query serving: scheduler, admission control, serving caches.

This package turns the single-query engines into a multi-tenant service.
SkinnerDB's episode-sliced execution (small budgeted time slices that can be
suspended and resumed at will) is exactly the primitive a cooperative
multi-query scheduler needs: :class:`~repro.serving.server.QueryServer`
interleaves episodes of many in-flight queries under fair-share scheduling
by tenant quota, bounds concurrency via admission control, caches results
by normalized query fingerprint, and warm-starts new queries' UCT trees
from join orders learned on the same join graph.

See ``docs/serving.md`` for the design document.
"""

from repro.serving.admission import AdmissionController
from repro.serving.cache import (
    join_graph_signature,
    query_fingerprint,
)
from repro.serving.scheduler import FairScheduler
from repro.serving.server import QueryServer
from repro.serving.session import (
    QuerySession,
    SessionState,
    StreamBuffer,
)

__all__ = [
    "AdmissionController",
    "FairScheduler",
    "QueryServer",
    "QuerySession",
    "SessionState",
    "StreamBuffer",
    "join_graph_signature",
    "query_fingerprint",
]
