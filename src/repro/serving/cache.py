"""Serving-level caches: query results and cross-query join-order priors.

Two caches sit above the per-query engines:

* the **result cache** maps a *normalized query fingerprint* — the parsed
  query's canonical rendering plus everything else that can change the
  answer or its metrics (engine and config) —
  to a finished :class:`~repro.result.QueryResult`.
* the **join-order cache** maps a *join-graph signature* — the aliased base
  tables plus the join predicates, with unary predicates deliberately
  excluded — to the join orders a previous Skinner-C query on the same
  graph learned, together with their observed average reward.  A new query
  with the same signature seeds its UCT tree from these priors
  (:meth:`~repro.uct.tree.UctJoinTree.seed`), which skips the cold-start
  exploration phase: same-template queries differ only in their unary
  predicates, and the relative quality of join orders is largely determined
  by the join graph.

Entries answer to the catalog's one staleness rule: each keeps the
versions of the tables its statement read, and the UDF registry's, from
when the statement's task snapshotted its tables, and is dropped once they
moved — a write to one table leaves the entries over others alone.

Both caches are LRU with a fixed entry bound and plain dictionaries
underneath — no background threads, in keeping with the cooperative
single-threaded server design.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Callable, Sequence

from repro.config import SkinnerConfig
from repro.engine.task import OrderPrior
from repro.query.query import Query


def query_fingerprint(query: Query, *, engine: str, config: SkinnerConfig) -> str:
    """Normalized fingerprint of one execution request.

    Queries are fingerprinted through their canonical rendering
    (:meth:`Query.display`), so textual variations that parse to the same
    query — whitespace, keyword case, redundant aliasing — share a key.
    """
    parts = (query.display(), engine, repr(config))
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def join_graph_signature(query: Query) -> tuple:
    """Alias-and-join-structure key shared by same-template queries.

    Unary predicates are excluded on purpose: two queries that join the
    same tables the same way but filter differently still rank join orders
    similarly, which is what makes cross-query warm-starting profitable.
    Rendered once per query (:meth:`Query.join_signature`), like the
    fingerprint's :meth:`Query.display`.
    """
    return query.join_signature()


def read_tables(query: Query) -> tuple[str, ...]:
    """The catalog tables a query reads, each once, in FROM order."""
    return tuple(dict.fromkeys(name for _, name in query.tables))


class _LruCache:
    """A tiny LRU over an OrderedDict (newest at the end).

    An entry keeps its tables and ``versions(tables)`` as they were when its
    value was derived, and is stale once they differ.  ``invalidations``
    counts stale entries dropped, by a lookup or by the sweep every count
    read starts with.
    """

    def __init__(self, capacity: int, versions: Callable[[tuple[str, ...]], tuple]) -> None:
        self._capacity = capacity
        self._versions = versions
        #: key -> (value, tables, their versions when the value was derived)
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        self._sweep()
        return len(self._entries)

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None and self._stale(entry):
            del self._entries[key]
            self.invalidations += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key, value, tables: tuple[str, ...], versions: tuple) -> None:
        self._entries[key] = (value, tables, versions)
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def _stale(self, entry) -> bool:
        _, tables, versions = entry
        return self._versions(tables) != versions

    def _sweep(self) -> None:
        stale = [key for key, entry in self._entries.items() if self._stale(entry)]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)

    def counters(self) -> dict[str, int]:
        """Entry count plus lifetime hit/miss/invalidation counters."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }


class ResultCache(_LruCache):
    """LRU cache of finished query results, keyed on query fingerprints."""


class JoinOrderCache(_LruCache):
    """LRU cache of learned join-order priors, keyed on join-graph signatures."""

    def record(self, signature: tuple, priors: Sequence[OrderPrior], tables, versions) -> None:
        """Store (replacing) the priors learned at ``versions`` of ``tables``."""
        if priors:
            self.put(signature, tuple(priors), tables, versions)

    def priors(self, signature: tuple) -> tuple[OrderPrior, ...]:
        """Warm-start priors for a join graph (empty when unknown)."""
        cached = self.get(signature)
        return cached if cached is not None else ()
