"""Pre-processing for the Skinner-C engine.

Pre-processing (paper §3) filters every base table via its unary predicates
and, when equality join predicates are present, builds hash maps from join
column values to the positions of the *filtered* tuple arrays.  Those maps
power the hash-jump acceleration of the multi-way join: only tuples that
survived the unary predicates are hashed, keeping the overhead small.

Both come from the catalog's
:class:`~repro.engine.statement_cache.StatementCache`: a statement on tables
an earlier statement filtered and indexed, at the same versions, reuses what
that one built and is charged what building it cost.  So does the bucket
every filtered row of a probing alias finds in a join map
(:meth:`PreprocessedQuery.edge`), which the hash jump gathers instead of
looking up the values of each block of prefixes again.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.meter import CostMeter
from repro.engine.statement_cache import StatementCache
from repro.query.predicates import Predicate
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnType
from repro.storage.table import Table


@dataclass
class PreprocessedQuery:
    """Everything the multi-way join needs, computed once per query.

    Attributes
    ----------
    query:
        The original query.
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
    filter_keys:
        Per alias, the statement-cache key of its filter (``None``: not
        cached), which names its hash-jump edges there.
    """

    query: Query
    aliases: tuple[str, ...]
    tables: dict[str, Table]
    filtered: dict[str, np.ndarray]
    join_maps: dict[tuple[str, str], "GroupedJoinMap"] = field(default_factory=dict)
    join_predicates: list[Predicate] = field(default_factory=list)
    filter_keys: dict[str, Hashable | None] = field(default_factory=dict)
    statement_cache: StatementCache | None = field(default=None, repr=False)
    _edge_cache: dict[tuple[str, str, str, str], np.ndarray | None] = field(
        default_factory=dict, repr=False
    )
    _physical_cache: dict[tuple[str, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )
    _decoded_cache: dict[tuple[str, str], list[Any]] = field(
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

    def base_row(self, alias: str, filtered_index: int) -> int:
        """Base-table row position for a filtered-array index."""
        return int(self.filtered[alias][filtered_index])

    def value_at(self, alias: str, column: str, filtered_index: int) -> Any:
        """Decoded value of ``alias.column`` at a filtered-array index.

        The decoded filtered column is cached as a plain Python list on first
        access: the join executors probe hash maps with these values once per
        index advance, which makes list indexing measurably cheaper than
        per-call numpy scalar extraction.
        """
        key = (alias, column)
        values = self._decoded_cache.get(key)
        if values is None:
            values = self._decode_filtered(alias, column)
            self._decoded_cache[key] = values
        return values[filtered_index]

    def _decode_filtered(self, alias: str, column: str) -> list[Any]:
        physical = self.physical_column(alias, column)
        col = self.tables[alias].column(column)
        if col.ctype is ColumnType.STRING:
            dictionary = col.dictionary
            return [dictionary[code] for code in physical.tolist()]
        return physical.tolist()

    def binding_for(self, alias: str, filtered_index: int) -> dict[str, Any]:
        """Decoded row dict of ``alias`` at a filtered-array index."""
        position = self.base_row(alias, filtered_index)
        return self.tables[alias].row(position)

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
        return cached

    def edge(
        self, alias: str, column: str, probe_alias: str, probe_column: str
    ) -> np.ndarray | None:
        """Per filtered row of ``probe_alias``, the bucket its ``probe_column``
        value finds in the join map of ``alias.column``, or ``None`` when
        either filter is uncached (the caller then looks up each block).

        Fetched from the statement cache once per query and edge.
        """
        key = (alias, column, probe_alias, probe_column)
        if key not in self._edge_cache:
            self._edge_cache[key] = None if self.statement_cache is None else (
                self.statement_cache.edge(
                    (self.filter_keys.get(alias), self.tables[alias], (column,)),
                    (self.filter_keys.get(probe_alias), self.tables[probe_alias], probe_column,
                     self.filtered[probe_alias]),
                    self.join_maps[(alias, column)],
                ))
        return self._edge_cache[key]

    def is_empty(self) -> bool:
        """Whether any table has no surviving tuples (empty join result)."""
        return any(self.cardinality(alias) == 0 for alias in self.aliases)


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

    Parameters
    ----------
    restrict_positions:
        Optional pre-computed filtered positions (used by tests and by
        engines that already pre-processed).  A restricted alias bypasses the
        statement cache: it is neither filtered nor indexed from it.
    """
    meter = meter if meter is not None else CostMeter()
    cache = StatementCache.of(catalog)
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
        filter_keys=keys,
        statement_cache=cache,
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
