"""What one statement builds that the next may reuse: parses, filters, maps, statements.

Skinner-C's pre-processing (paper §3) filters every base table by its unary
predicates and groups the surviving rows of every equi-join column into a
:class:`~repro.engine.joinkernels.GroupedJoinMap` (§4.5, hashing).  Both are
functions of one table's rows and the statement's predicates alone, and a
statement's parse is a function of its text, its parameters and the tables it
names.  :meth:`Catalog.version <repro.storage.catalog.Catalog.version>` names
a table's rows for good, so one :class:`StatementCache` per catalog keeps

* **parsed statements**, keyed on the SQL text and its parameters frozen to a
  tuple, each value beside its type (``1`` and ``1.0`` never share a parse).
  An entry lives while every table the statement names keeps the version it
  was parsed under;
* **filtered positions**, keyed on ``(table, version, alias, unary
  predicates)``, beside the charges the filter made.  A hit replays them on
  the statement's meter (:meth:`~repro.engine.meter.CostMeter.replay`), so
  work units read exactly as if the filter ran again.  A predicate that calls
  a UDF is never cached: the function may be re-registered under its name;
* **join maps**, keyed on ``(filter key, key columns)``: one
  :class:`~repro.engine.joinkernels.GroupedJoinMap` per table version, filter
  and tuple of key columns serves Skinner-C's pre-processing and the hash
  joins of every plan-executor engine (``traditional``, Skinner-H's plan
  attempts, Skinner-G/H's batches, which cut a
  :meth:`~repro.engine.joinkernels.GroupedJoinMap.suffix` from it).  The
  caller still charges a hit the build's scan, as a plan step
  (:func:`~repro.engine.operators.hash_join_candidates`) charges every build;
* **prepared statements**, keyed on ``("prepared", tables, predicates,
  types of their literals)`` (:attr:`Query.prepared_key
  <repro.query.query.Query.prepared_key>`): everything Skinner-C's
  pre-processing made of a statement's FROM and WHERE — the
  :class:`~repro.skinner.preprocessor.PreprocessedQuery` with its filtered
  positions, join maps, edges (what every filtered probing row finds in a
  join map, :meth:`~repro.engine.joinkernels.GroupedJoinMap.edge`, which
  Skinner-C's hash jump gathers; no other entry holds one) and gathered
  columns, and the multi-way join's plan of every order a task ran — owned
  by the statement's tables.
  A statement with the same FROM and WHERE (any SELECT) finds it with one
  lookup, and the charges its cold build made, recorded call by call
  (:class:`~repro.engine.meter.ChargeLog`, the filters' replays and the map
  builds' scans included), are replayed on its meter: work units and a
  budget's end read as if it was pre-processed afresh.  Its tasks share it
  and keep their own trees, trackers, result sets and parked frames.  A
  predicate that calls a UDF, a morsel's restricted aliases, a build
  without join maps and a table no longer the catalog's make none.  The
  entry is charged at :meth:`keep` for all it can come to hold (``nbytes``:
  its arrays and a ceiling on what its tasks gather); an array may be
  counted in its own entry too.

Every entry lives in one :class:`~repro.engine.versioned_lru.VersionedLru`
under its byte bound, least recently used out first (one that alone exceeds
it is refused and evicts nothing), and answers to the versions of the tables
it names: the first lookup after any table's version moved drops every
entry of every table that moved — replaced, dropped or rolled back — at
once, a prepared statement as soon as any of its tables moved.  The arrays
are read-only.

Every connection, server and engine over one catalog shares its cache.  Like
the serving layer above it, the cache takes no locks.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.meter import ChargeLog, CostMeter
from repro.engine.operators import filter_table
from repro.engine.versioned_lru import VersionedLru
from repro.query.parser import parse_query
from repro.query.predicates import Predicate, literal_types
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class StatementCache:
    """The parses, filtered positions, join maps and prepared statements
    built on one catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        #: Every parse, filter, join map and prepared statement, each owned
        #: by the tables it was built from.
        self.lru = VersionedLru(catalog)

    @classmethod
    def of(cls, catalog: Catalog) -> StatementCache:
        """The cache of ``catalog``, made on first use and kept in its slot."""
        if catalog.statement_cache is None:
            catalog.statement_cache = cls(catalog)
        return catalog.statement_cache

    @property
    def nbytes(self) -> int:
        """Bytes charged for what the cache holds."""
        return self.lru.nbytes

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def parse(
        self, sql: str, params: Sequence[Any] | Mapping[str, Any] | None = None
    ) -> Query:
        """:func:`~repro.query.parser.parse_query` on this catalog, once per
        text, parameters and versions of the tables the statement names."""
        key = _statement_key(sql, params)
        if key is None:
            return parse_query(sql, self._catalog, params)
        query = self.lru.get(key)
        if query is None:
            query = parse_query(sql, self._catalog, params)
            self.lru.put(key, query, tuple(dict.fromkeys(name for _, name in query.tables)))
        return query

    def filter(
        self,
        table: Table,
        alias: str,
        predicates: Sequence[Predicate],
        meter: CostMeter,
        udfs: UdfRegistry | None = None,
    ) -> tuple[np.ndarray, Hashable | None]:
        """The rows of ``table`` that ``alias``'s unary ``predicates`` keep,
        with the filter's charges on ``meter``, and the key naming them for
        :meth:`join_map` (``None``: uncached, a UDF is called or ``table`` is
        no longer the catalog's)."""
        name = table.name
        if any(predicate.uses_udf for predicate in predicates) or not self._current(name, table):
            return filter_table(table, alias, predicates, meter, udfs), None
        predicates = tuple(predicates)
        key = ("filter", name, self._catalog.version(name), alias, predicates,
               literal_types(predicates))
        try:
            entry = self.lru.get(key)
        except TypeError:  # an unhashable literal, e.g. an array bound as a parameter
            return filter_table(table, alias, predicates, meter, udfs), None
        if entry is not None:
            positions, charges = entry
            meter.replay(charges)
            return positions, key
        log = ChargeLog(meter)
        positions = filter_table(table, alias, predicates, log, udfs)
        positions.flags.writeable = False
        self.lru.put(key, (positions, tuple(log.charges)), (name,), positions.nbytes)
        return positions, key

    def join_map(
        self,
        key: Hashable | None,
        table: Table,
        columns: tuple[str, ...],
        positions: np.ndarray,
    ) -> GroupedJoinMap:
        """The filtered rows ``positions`` of ``table`` grouped by ``columns``,
        once per filter ``key`` (``None``: built for this caller alone, as is
        a map over a table version that is no longer the catalog's)."""
        map_key = ("map", key, columns)
        if key is not None:
            join_map = self.lru.get(map_key)
            if join_map is not None:
                return join_map
        join_map = GroupedJoinMap([table.column(column) for column in columns], positions)
        if key is not None and self._current(table.name, table):
            self.lru.put(map_key, join_map, (table.name,), join_map.nbytes)
        return join_map

    def prepared(self, query: Query, meter: CostMeter) -> tuple[Any, Hashable | None]:
        """What pre-processing made of ``query``'s FROM and WHERE, kept by
        :meth:`keep` and its charges replayed on ``meter``, or ``None``;
        and the key to keep it under (``None``: a predicate calls a UDF or
        holds an unhashable literal, and nothing is kept).

        One lookup: a statement that finds its entry reads nothing else here.
        """
        if query.has_udf_predicates():
            return None, None
        try:
            key = query.prepared_key
        except TypeError:  # an unhashable literal, e.g. an array bound as a parameter
            return None, None
        entry = self.lru.get(key)
        if entry is None:
            return None, key
        value, charges = entry
        meter.replay(charges)
        return value, key

    def keep(self, key: Hashable, value: Any, charges: Sequence[tuple[str, int]]) -> None:
        """Keep ``value``, what pre-processing made of the statement under
        ``key`` while charging ``charges``, for the next one.

        ``value`` exposes ``tables`` (alias to table), which own it, and
        ``nbytes``, all its arrays can come to hold: the entry's one charge.
        Nothing is kept over a table that is no longer the catalog's.
        """
        tables = value.tables.values()
        if all(self._current(table.name, table) for table in tables):
            owners = tuple(dict.fromkeys(table.name for table in tables))
            self.lru.put(key, (value, tuple(charges)), owners, value.nbytes)

    def _current(self, name: str, table: Table) -> bool:
        """Whether ``table`` is what the catalog holds under ``name``: what an
        engine built from a table since replaced or dropped is not kept."""
        return self._catalog.has_table(name) and self._catalog.table(name) is table


def _statement_key(
    sql: str, params: Sequence[Any] | Mapping[str, Any] | None
) -> Hashable | None:
    """``sql`` with its parameters frozen, each value beside its type, or
    ``None`` where they cannot be (the parse is then not cached)."""
    if params is None:
        frozen: Any = None
    elif isinstance(params, Mapping):
        frozen = (type(params), tuple((name, type(value), value) for name, value in params.items()))
    elif isinstance(params, Sequence):
        frozen = (type(params), tuple((type(value), value) for value in params))
    else:
        return None
    key = ("sql", sql, frozen)
    try:
        hash(key)
    except TypeError:
        return None
    return key
