"""Keys and sizes for the serving caches: query results and join-order priors.

:class:`~repro.serving.server.QueryServer` keeps two
:class:`~repro.engine.versioned_lru.VersionedLru` instances above the
per-query engines:

* the **result cache** maps a *normalized query fingerprint* — the parsed
  query's canonical rendering plus everything else that can change the
  answer or its metrics (engine and config) —
  to a finished :class:`~repro.result.QueryResult`, charged its columns'
  bytes (:func:`result_bytes`) — or, for a table still pending, a bound
  on them.
* the **join-order cache** maps a *join-graph signature* — the aliased base
  tables plus the join predicates, with unary predicates deliberately
  excluded — to the join orders a previous Skinner-C query on the same
  graph learned, together with their observed average reward.  A new query
  with the same signature seeds its UCT tree from these priors
  (:meth:`~repro.uct.tree.UctJoinTree.seed`), which skips the cold-start
  exploration phase: same-template queries differ only in their unary
  predicates, and the relative quality of join orders is largely determined
  by the join graph.

Results answer to the catalog's one staleness rule: each keeps the
versions of the tables its statement read (:attr:`Query.read_tables
<repro.query.query.Query.read_tables>`), and the
UDF registry's, from when the statement's task snapshotted its tables, and
is dropped by the first lookup after they moved — a write to one table
leaves the entries over others alone.  Learned orders keep those versions
in their value instead, and no write drops them: a join order never
changes a query's rows, so once the versions moved the server hands the
orders on as a hint, with one pseudo-visit each and no evidence
(:meth:`QueryServer._warm_start_priors
<repro.serving.server.QueryServer._warm_start_priors>`).
"""

from __future__ import annotations

import hashlib

from repro.config import SkinnerConfig
from repro.query.query import Query
from repro.result import QueryResult

#: Fingerprints one query object keeps, one per engine and config object.
_FINGERPRINTS = 16


def query_fingerprint(query: Query, *, engine: str, config: SkinnerConfig) -> str:
    """Normalized fingerprint of one execution request.

    Queries are fingerprinted through their canonical rendering
    (:meth:`Query.display`), so textual variations that parse to the same
    query — whitespace, keyword case, redundant aliasing — share a key.
    Computed once per query object, engine and config object
    (:attr:`Query.fingerprints`): a server submits a cached parse under its
    one config again and again.
    """
    memo = query.fingerprints
    key = (engine, id(config))
    held = memo.get(key)
    # The memo keeps the config alive, so its id names no other object.
    if held is not None and held[0] is config:
        return held[1]
    parts = (query.display(), engine, repr(config))
    fingerprint = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
    if len(memo) >= _FINGERPRINTS:
        memo.clear()
    memo[key] = (config, fingerprint)
    return fingerprint


def join_graph_signature(query: Query) -> tuple:
    """Alias-and-join-structure key shared by same-template queries.

    Unary predicates are excluded on purpose: two queries that join the
    same tables the same way but filter differently still rank join orders
    similarly, which is what makes cross-query warm-starting profitable.
    Rendered once per query (:meth:`Query.join_signature`), like the
    fingerprint's :meth:`Query.display`.
    """
    return query.join_signature()


def result_bytes(result: QueryResult) -> int:
    """The array bytes of a result's columns; for a pending result, what
    they will take at most, so that charging it builds nothing."""
    if result.pending:
        return result.pending_bytes
    table = result.table
    return sum(table.column(name).data.nbytes for name in table.column_names)
