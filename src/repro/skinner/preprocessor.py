"""Pre-processing for the Skinner-C engine.

Pre-processing (paper §3) filters every base table via its unary predicates
and, when equality join predicates are present, builds hash maps from join
column values to the positions of the *filtered* tuple arrays.  Those maps
power the hash-jump acceleration of the multi-way join: only tuples that
survived the unary predicates are hashed, keeping the overhead small.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.joinkernels import _integral_as_int64, group_rows
from repro.engine.meter import CostMeter
from repro.engine.operators import filter_table
from repro.query.predicates import Predicate
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
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
    """

    query: Query
    aliases: tuple[str, ...]
    tables: dict[str, Table]
    filtered: dict[str, np.ndarray]
    join_maps: dict[tuple[str, str], "GroupedJoinMap"] = field(default_factory=dict)
    join_predicates: list[Predicate] = field(default_factory=list)
    _physical_cache: dict[tuple[str, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )
    _decoded_cache: dict[tuple[str, str], list[Any]] = field(
        default_factory=dict, repr=False
    )
    _decoded_array_cache: dict[tuple[str, str], np.ndarray] = field(
        default_factory=dict, repr=False
    )

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
        engines that already pre-processed).
    """
    meter = meter if meter is not None else CostMeter()
    tables = {alias: catalog.table(name) for alias, name in query.tables}
    filtered: dict[str, np.ndarray] = {}
    for alias, table in tables.items():
        if restrict_positions is not None and alias in restrict_positions:
            filtered[alias] = np.asarray(restrict_positions[alias], dtype=np.int64)
            continue
        predicates = query.unary_predicates(alias)
        filtered[alias] = filter_table(table, alias, predicates, meter, udfs)

    prepared = PreprocessedQuery(
        query=query,
        aliases=tuple(query.aliases),
        tables=tables,
        filtered=filtered,
        join_predicates=list(query.join_predicates()),
    )
    if build_hash_maps:
        _build_join_maps(prepared, meter)
    return prepared


class GroupedJoinMap:
    """One join column's bucket index in the kernel's grouped-runs form.

    The dict-based predecessor decoded every distinct key into a Python
    object and materialized a ``{value: rows}`` dict — one decode, one hash,
    and one slice per distinct key at build time.  This map keeps the
    :class:`~repro.engine.joinkernels.GroupedRows` of the *physical* column
    values directly (dictionary codes for strings): build is the shared
    ``group_rows`` sort with no per-key Python loop, and :meth:`get`
    translates the probe value into the physical domain and binary-searches
    the sorted run keys.

    Lookup semantics match the dict exactly:

    * rows within a bucket stay in ascending order (stable grouping sort),
      which the hash-jump's per-bucket ``searchsorted`` relies on;
    * float NaN keys form singleton runs no probe can find again
      (``nan != nan``) — the pinned NaN-never-matches join semantics;
    * cross-type probes follow Python ``==``: ``1`` finds ``1.0`` and vice
      versa (only when the conversion is exact, so huge ints and floats
      beyond 2**53 never invent matches), while a string probed against a
      numeric column (or the reverse) matches nothing.
    """

    __slots__ = ("_column", "_keys", "_rows", "_starts", "_counts", "_memo", "_ranks")

    def __init__(self, column, positions: np.ndarray) -> None:
        self._column = column
        grouped = group_rows(column.data[positions])
        self._keys = grouped.keys
        self._rows = grouped.rows
        self._starts = grouped.starts
        self._counts = grouped.counts
        #: Probe memo: the hash-jump probes the same decoded values once per
        #: index advance, so the first lookup's encode + binary search is
        #: cached and every repeat is one dict hit — the lazily materialized
        #: subset of the old eager ``{value: rows}`` dict that is actually
        #: probed.  (NaN probes bypass the memo: ``nan != nan`` would grow
        #: it without bound.)
        self._memo: dict[Any, np.ndarray | None] = {}
        self._ranks: np.ndarray | None = None

    @property
    def rows(self) -> np.ndarray:
        """All indexed rows, bucket after bucket (what :meth:`lookup_many` slices)."""
        return self._rows

    def __len__(self) -> int:
        return int(self._keys.shape[0])

    def __contains__(self, value: Any) -> bool:
        return self.get(value) is not None

    def _encode_probe(self, value: Any) -> Any | None:
        """Translate a decoded probe value into the physical key domain.

        Returns ``None`` when no key can possibly equal the value (type
        mismatch, absent dictionary string, inexact int/float conversion).
        """
        if self._column.ctype is ColumnType.STRING:
            if not isinstance(value, str):
                return None
            code = self._column.encode(value)
            return code if code >= 0 else None
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float, np.integer, np.floating)):
            return None
        if self._keys.dtype.kind in "iu":
            if isinstance(value, (float, np.floating)):
                # Only exactly-integral in-range floats can equal an int key.
                if not (np.isfinite(value) and float(value).is_integer()):
                    return None
                as_int = int(value)
                if not (-(2**63) <= as_int < 2**63):
                    return None
                return as_int
            return int(value)
        if isinstance(value, (int, np.integer)):
            try:
                as_float = float(value)
            except OverflowError:
                return None
            # An inexact conversion means no float64 key equals this int.
            if int(as_float) != int(value):
                return None
            return as_float
        return float(value)

    def get(self, value: Any) -> np.ndarray | None:
        """Rows whose join column equals ``value``, or ``None`` (no bucket).

        The returned array is a view of the grouped run — ascending filtered
        indices, exactly what the dict-based map stored per key.
        """
        if isinstance(value, float) and value != value:
            return None  # NaN never matches (pinned join semantics)
        try:
            return self._memo[value]
        except KeyError:
            pass
        except TypeError:  # unhashable probe values can never equal a key
            return None
        matches = self._lookup(value)
        self._memo[value] = matches
        return matches

    def _lookup(self, value: Any) -> np.ndarray | None:
        probe = self._encode_probe(value)
        if probe is None or self._keys.shape[0] == 0:
            return None
        position = int(np.searchsorted(self._keys, probe))
        if position >= self._keys.shape[0] or self._keys[position] != probe:
            return None  # also NaN keys at this position: nan != nan
        start = int(self._starts[position])
        return self._rows[start:start + int(self._counts[position])]

    def lookup_many(
        self, values: np.ndarray, source: Column, lower: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`get` for a whole vector of probes, as bucket bounds.

        ``values`` are *physical* values of the probing column ``source``
        (dictionary codes when it is a string column).  Returns
        ``(starts, counts)`` such that ``rows[starts[i]:starts[i] + counts[i]]``
        is what ``get`` returns for the decoded ``values[i]``, with
        ``counts[i] == 0`` where ``get`` returns ``None``: NaN never matches,
        int and float meet only where the conversion is exact, strings are
        translated between the two columns' dictionaries, and a string
        column never matches a numeric one.  With ``lower > 0`` every bucket
        is cut down to its rows ``>= lower`` (the hash-jump's resume bound).
        """
        keys = self._keys
        probes = self._encode_probes(np.asarray(values), source)
        if probes is None or keys.shape[0] == 0:
            zeros = np.zeros(np.shape(values)[0], dtype=np.int64)
            return zeros, zeros
        probes, valid = probes
        # ``mode="clip"``: a probe beyond the last key reads the last key.
        position = keys.searchsorted(probes)
        found = keys.take(position, mode="clip") == probes  # False for NaN on either side
        if valid is not None:
            found &= valid
        starts = self._starts.take(position, mode="clip")
        counts = self._counts.take(position, mode="clip") * found
        if lower > 0:
            position = np.minimum(position, keys.shape[0] - 1)
            # ``_rows`` ascends by (bucket, row), so one binary search per
            # probe over that combined rank finds the cut inside its bucket.
            size = self._rows.shape[0] + 1
            if self._ranks is None:
                bucket = np.repeat(np.arange(keys.shape[0], dtype=np.int64), self._counts)
                self._ranks = bucket * size + self._rows
            ends = starts + counts
            cut = np.searchsorted(self._ranks, position * size + min(lower, size - 1))
            starts = np.clip(cut, starts, ends)
            counts = ends - starts
        return starts, counts

    def _encode_probes(
        self, values: np.ndarray, source: Column
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Vector form of :meth:`_encode_probe`: ``(probes, valid mask or None)``.

        ``None`` when the two columns' types can never compare equal.
        """
        own_is_string = self._column.ctype is ColumnType.STRING
        if own_is_string != (source.ctype is ColumnType.STRING):
            return None
        if own_is_string:
            # Absent strings translate to a code no row carries.
            return self._column.translate_codes(source)[values], None
        if self._keys.dtype.kind == values.dtype.kind:
            return values, None
        if self._keys.dtype.kind in "iu":
            return _integral_as_int64(values)
        # Int probes against float keys: only exactly representable ints can
        # equal a float64 key (the cast back must stay inside int64).
        probes = values.astype(np.float64)
        in_range = probes < 9_223_372_036_854_775_808.0
        valid = in_range & (np.where(in_range, probes, 0.0).astype(np.int64) == values)
        return probes, valid


def _build_join_maps(prepared: PreprocessedQuery, meter: CostMeter) -> None:
    """Index each join column of each filtered table (paper §4.5, hashing)."""
    wanted: set[tuple[str, str]] = set()
    for predicate in prepared.join_predicates:
        if not predicate.is_equi_join:
            continue
        left, right = predicate.equi_join_columns()
        wanted.add((left.table, left.column))
        wanted.add((right.table, right.column))
    for alias, column_name in wanted:
        table = prepared.tables[alias]
        column = table.column(column_name)
        positions = prepared.filtered[alias]
        # Grouping the filtered tuples is build work: charge it as scan, like
        # the plan executor's hash-join build, so meter profiles compare the
        # same quantities across join implementations.
        meter.charge_scan(int(positions.shape[0]))
        prepared.join_maps[(alias, column_name)] = GroupedJoinMap(column, positions)
