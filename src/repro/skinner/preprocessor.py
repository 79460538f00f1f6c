"""Pre-processing for the Skinner-C engine.

Pre-processing (paper §3) filters every base table via its unary predicates
and, when equality join predicates are present, builds hash maps from join
column values to the positions of the *filtered* tuple arrays.  Those maps
power the hash-jump acceleration of the multi-way join: only tuples that
survived the unary predicates are hashed, keeping the overhead small.

Both come from the catalog's
:class:`~repro.engine.statement_cache.StatementCache`: a statement on tables
an earlier statement filtered and indexed, at the same versions, reuses what
that one built and is charged what building it cost.  What every filtered
row of a probing alias finds in a join map — its partner row in a map whose
key is unique, its bucket otherwise (:meth:`PreprocessedQuery.edge`) — is
built on the object, once, so the hash jump gathers it instead of looking
up the values of each block of prefixes again.

The whole :class:`PreprocessedQuery` is kept there too, once per FROM and
WHERE (:attr:`Query.prepared_key <repro.query.query.Query.prepared_key>`)
and versions of the tables they name: :func:`preprocess` of a repeated
statement is one cache lookup and a replay of the charges its cold build
recorded, so every work unit, ``pre_meter`` and ``preprocess_work`` read as
if it ran afresh.  Every task of the statement then shares the filtered
positions, maps, edges and gathered columns, and the multi-way join's plan
of each order (:attr:`PreprocessedQuery.order_contexts`); nothing a task
learns or parks lives there.  It is charged once, when kept, for all it
can come to hold (:attr:`PreprocessedQuery.nbytes`).  A UDF predicate (its
plans read the UDF registry), ``restrict_positions`` (a morsel),
``build_hash_maps=False`` and a table no longer the catalog's take the path
that keeps nothing: the object is then its one task's own.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.meter import ChargeLog, CostMeter
from repro.engine.statement_cache import StatementCache
from repro.query.predicates import Predicate
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog
from repro.storage.table import Table


@dataclass
class PreprocessedQuery:
    """Everything the multi-way join needs, computed once per FROM and WHERE.

    Attributes
    ----------
    query:
        The query it was prepared for (see ``key``).
    aliases:
        Canonical alias order (declaration order) used for result tuples.
    tables:
        Alias-to-table mapping.
    filtered:
        Per alias, the ascending base-table row positions surviving the
        alias's unary predicates.
    join_maps:
        ``(alias, column) -> GroupedJoinMap`` (value-to-sorted-indices
        lookup in grouped-runs form) for every column involved in an
        equality join predicate.
    join_predicates:
        The query's join predicates (index order is stable and used to keep
        track of which have been applied).
    key:
        The statement-cache key this object is kept under (``None``: built
        for one caller).  ``query`` is then the first statement prepared
        under it: every statement with the same FROM and WHERE shares it.
    order_contexts:
        Per join order, the multi-way join's plan of it, shared by every
        task of a kept object (``key`` set); an object without a key is
        built for one task.
    """

    query: Query
    aliases: tuple[str, ...]
    tables: dict[str, Table]
    filtered: dict[str, np.ndarray]
    join_maps: dict[tuple[str, str], "GroupedJoinMap"] = field(default_factory=dict)
    join_predicates: list[Predicate] = field(default_factory=list)
    key: Hashable | None = field(default=None, repr=False)
    order_contexts: dict[tuple[str, ...], Any] = field(default_factory=dict, repr=False)
    _edge_cache: dict[tuple[str, str, str, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )
    _physical_cache: dict[tuple[str, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )
    _decoded_array_cache: dict[tuple[str, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )
    _ascends_cache: dict[tuple[str, str], bool] = field(default_factory=dict, repr=False)

    def cardinality(self, alias: str) -> int:
        """Filtered cardinality of a table."""
        return int(self.filtered[alias].shape[0])

    def cardinalities(self) -> dict[str, int]:
        """Filtered cardinalities of all tables."""
        return {alias: self.cardinality(alias) for alias in self.aliases}

    def base_rows(self, alias: str, filtered_indices: np.ndarray) -> np.ndarray:
        """Base-table row positions for an array of filtered-array indices."""
        return self.filtered[alias][filtered_indices]

    def physical_column(self, alias: str, column: str) -> np.ndarray:
        """Physical values of ``alias.column`` over the filtered tuple array.

        For string columns these are dictionary codes (translate another
        column's codes with ``Column.translate_codes`` before comparing).
        The gathered array is cached because the block executor gathers from
        it once per candidate batch.
        """
        key = (alias, column)
        cached = self._physical_cache.get(key)
        if cached is None:
            cached = self.tables[alias].column(column).data[self.filtered[alias]]
            self._physical_cache[key] = cached
            cached.flags.writeable = False  # shared by the tasks of a kept object
        return cached

    def ascends(self, alias: str, column: str) -> bool:
        """Whether the physical values of ``alias.column`` never decrease over
        the filtered tuple array — the band jump's precondition.

        Filtered positions ascend by row id, so a column that ascends with
        the row id (a shredded table's ``pre``) passes.  One O(n) check per
        column, cached.
        """
        key = (alias, column)
        cached = self._ascends_cache.get(key)
        if cached is None:
            values = self.physical_column(alias, column)
            cached = self._ascends_cache[key] = bool((values[1:] >= values[:-1]).all())
        return cached

    def decoded_array(self, alias: str, column: str) -> np.ndarray:
        """Decoded values of ``alias.column`` over the filtered tuple array.

        Numeric columns are the physical arrays; string columns are decoded
        to ``object`` arrays of Python strings, so the vectorized generic
        predicate fallback compares with exact Python semantics.  Cached like
        :meth:`physical_column` (the batched executor slices these per batch).
        """
        key = (alias, column)
        cached = self._decoded_array_cache.get(key)
        if cached is None:
            col = self.tables[alias].column(column)
            cached = col.decoded_data[self.filtered[alias]]
            self._decoded_array_cache[key] = cached
            cached.flags.writeable = False  # shared by the tasks of a kept object
        return cached

    def edge(
        self, alias: str, column: str, probe_alias: str, probe_column: str
    ) -> np.ndarray:
        """Per filtered row of ``probe_alias``, what its ``probe_column`` value
        finds in the join map of ``alias.column``
        (:meth:`~repro.engine.joinkernels.GroupedJoinMap.edge`: the partner
        row of a unique map, else the bucket).

        Built once per object and edge: the tasks of a kept object share it.
        """
        key = (alias, column, probe_alias, probe_column)
        edge = self._edge_cache.get(key)
        if edge is None:
            source = self.tables[probe_alias].column(probe_column)
            edge = self._edge_cache[key] = self.join_maps[(alias, column)].edge(
                source.data[self.filtered[probe_alias]], source)
            edge.flags.writeable = False  # shared by the tasks of a kept object
        return edge

    def is_empty(self) -> bool:
        """Whether any table has no surviving tuples (empty join result)."""
        return any(self.cardinality(alias) == 0 for alias in self.aliases)

    @cached_property
    def nbytes(self) -> int:
        """Bytes of every array this object holds or can come to: filtered
        positions and join maps, plus per filtered row the physical and
        decoded gathers of each column a join predicate names and the edge
        either side of an equality may probe with.  Its cache entry's one
        charge, read once the maps are built."""
        built = (sum(positions.nbytes for positions in self.filtered.values())
                 + sum(join_map.nbytes for join_map in self.join_maps.values()))
        columns = {(ref.table, ref.column) for predicate in self.join_predicates
                   for side in (predicate.left, predicate.right) if side is not None
                   for ref in side.columns()}
        gathers = sum((self.tables[alias].column(column).data.itemsize + 8)
                      * self.cardinality(alias) for alias, column in columns)
        edges = sum(8 * (self.cardinality(predicate.left.table)
                         + self.cardinality(predicate.right.table))
                    for predicate in self.join_predicates if predicate.is_equi_join)
        return built + gathers + edges


def preprocess(
    catalog: Catalog,
    query: Query,
    udfs: UdfRegistry | None = None,
    meter: CostMeter | None = None,
    *,
    build_hash_maps: bool = True,
    restrict_positions: Mapping[str, np.ndarray] | None = None,
) -> PreprocessedQuery:
    """Filter base tables and build join hash maps for a query.

    A statement whose predicates call no UDF is kept whole in the catalog's
    statement cache, and the next one with the same FROM and WHERE on the
    same table versions gets the same object, its charges replayed on
    ``meter`` (see the module docstring).

    Parameters
    ----------
    restrict_positions:
        Optional pre-computed filtered positions (used by tests and by
        engines that already pre-processed).  A restricted alias bypasses the
        statement cache: it is neither filtered nor indexed from it.
    """
    meter = meter if meter is not None else CostMeter()
    cache = StatementCache.of(catalog)
    if not build_hash_maps or restrict_positions is not None:
        return _prepare(catalog, cache, query, udfs, meter, build_hash_maps, restrict_positions)
    prepared, key = cache.prepared(query, meter)
    if prepared is not None:
        return prepared
    if key is None:
        return _prepare(catalog, cache, query, udfs, meter)
    log = ChargeLog(meter)
    prepared = _prepare(catalog, cache, query, udfs, log)
    prepared.key = key
    cache.keep(key, prepared, log.charges)
    return prepared


def _prepare(
    catalog: Catalog,
    cache: StatementCache,
    query: Query,
    udfs: UdfRegistry | None,
    meter: CostMeter,
    build_hash_maps: bool = True,
    restrict_positions: Mapping[str, np.ndarray] | None = None,
) -> PreprocessedQuery:
    """:func:`preprocess` run afresh (filters and maps may still come from
    the cache)."""
    tables = {alias: catalog.table(name) for alias, name in query.tables}
    filtered: dict[str, np.ndarray] = {}
    #: Per alias, the cache key of its filter (``None``: not cached).
    keys: dict[str, Hashable | None] = {}
    for alias, table in tables.items():
        if restrict_positions is not None and alias in restrict_positions:
            filtered[alias] = np.asarray(restrict_positions[alias], dtype=np.int64)
            keys[alias] = None
            continue
        predicates = query.unary_predicates(alias)
        filtered[alias], keys[alias] = cache.filter(table, alias, predicates, meter, udfs)

    prepared = PreprocessedQuery(
        query=query,
        aliases=tuple(query.aliases),
        tables=tables,
        filtered=filtered,
        join_predicates=list(query.join_predicates()),
    )
    if build_hash_maps:
        _build_join_maps(prepared, cache, keys, meter)
    return prepared


def _build_join_maps(
    prepared: PreprocessedQuery,
    cache: StatementCache,
    keys: Mapping[str, Hashable | None],
    meter: CostMeter,
) -> None:
    """Index each join column of each filtered table (paper §4.5, hashing)."""
    wanted: set[tuple[str, str]] = set()
    for predicate in prepared.join_predicates:
        if not predicate.is_equi_join:
            continue
        left, right = predicate.equi_join_columns()
        wanted.add((left.table, left.column))
        wanted.add((right.table, right.column))
    for alias, column_name in wanted:
        positions = prepared.filtered[alias]
        # Grouping the filtered tuples is build work: charge it as scan, like
        # the plan executor's hash-join build, so weighted reports compare the
        # same quantities across join implementations — a map the cache
        # already held included.
        meter.charge_scan(int(positions.shape[0]))
        prepared.join_maps[(alias, column_name)] = cache.join_map(
            keys[alias], prepared.tables[alias], (column_name,), positions
        )
