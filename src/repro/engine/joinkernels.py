"""Vectorized equi-join kernel primitives: key encoding, grouping, probing.

The plan executor's hash join and the Skinner preprocessor's join maps share
one structure, :class:`GroupedJoinMap`: the build side's rows grouped by join
key into sorted runs, probed by direct address where the keys are dense ints
and by binary search otherwise.  Nothing in it depends on the probe side, so
one map serves every probe of an unchanged build side: the catalog's
:class:`~repro.engine.statement_cache.StatementCache` keeps it for every
Skinner-C statement and plan-executor engine on the same table version, and
:meth:`GroupedJoinMap.suffix` serves the remainders of Skinner-G/H's batches
from it without grouping again.  What a Skinner-C statement's probes find in
it (:meth:`GroupedJoinMap.edge`) lives on that statement's pre-processed
object, not in the cache.

* :func:`_runs` — group a key vector into sorted runs (a stable sort +
  run boundaries), the columnar replacement for building a
  ``dict[key, list[row]]`` hash table.  The sort is stable: rows of equal
  keys stay in ascending order, which both the hash-jump's per-bucket
  ``searchsorted`` and the byte-identical emission order of the join kernel
  rely on.  Run boundaries are detected with ``!=`` on adjacent sorted
  values, so for float keys each NaN forms its own singleton run.
* :class:`GroupedJoinMap` — a single-column key groups the column's raw
  *physical* values (int64, float64, dictionary codes for strings): no
  factorization at all.  Probe values are translated into that domain
  (:func:`_translate_probes`) and found among the run keys by :func:`_find`.
* :func:`_find` — the one lookup of probes in sorted keys: the run keys, and
  a composite key's per-column domains and re-compressed partial codes.
  Int64 keys spanning at most ``DENSITY * (len(keys) + DENSITY)`` values
  (:data:`DENSITY` is 8) get a direct-address table when they are grouped
  (:func:`_direct_table`), and a probe is one gather from it; float keys,
  sparse ints and empty key sets are binary-searched.  A float has no slot
  to address (``1.5``, NaN), and a table over sparse ints would cost more
  memory than the keys themselves.
* :func:`encode_composite_keys` — a composite key gets one int64 code per
  build row: every key column is factorized over the *build rows only* and
  the per-column codes are combined mixed-radix.  The returned
  :class:`CompositeKeySpace` replays the same encoding on any probe.

What a probe finds becomes a join step's candidates in
:mod:`repro.engine.joinsteps`, shared by the plan executor and the
multi-way join.

NaN join-key semantics (pinned)
-------------------------------
A ``NaN`` float join key **never matches** — not even another ``NaN``.
This mirrors the row path: its dict keys are freshly constructed ``float``
objects, and ``nan != nan`` in Python, so a NaN key can never be found
again.  The kernel gets the same rule from ``==`` on the sorted keys: a
build-side NaN sits in a run no probe compares equal to, and a NaN probe
compares equal to no run (a sort-based kernel that trusted ``searchsorted``
alone would group NaNs together and invent matches the row path never
produces).

Cross-type keys behave like Python ``==`` exactly: ``1 == 1.0`` matches
(the probe side of a mixed int/float pair is converted to the build side's
type and kept only where the conversion is exact, so ``2**53 + 1`` and
``2.0**53`` stay distinct), while a string column compared against a numeric
one matches nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
import numpy as np

from repro.storage.column import Column, ColumnType

__all__ = [
    "CompositeKeySpace",
    "GroupedJoinMap",
    "encode_composite_keys",
]

#: Radix-combination guard: composite code spans stay below this bound, and
#: are re-compressed to a dense domain when the next part would overflow.
_MAX_SPAN = 2**62

#: Sorted int64 keys get a direct-address table when their span is at most
#: ``DENSITY * (len(keys) + DENSITY)``: eight table slots per key, and 64
#: more so that a small key set with a few gaps gets one too.
DENSITY = 8


def _stable_sort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, values[order])`` of a stable ascending sort of a non-empty vector.

    int64 keys whose span times the row count fits int64 are packed with
    their row numbers into one int64 each and sorted as plain values: equal
    keys then order by row, which is what stable means, and a value sort runs
    several times faster than a stable argsort.  Other dtypes and wider
    spans take the argsort.
    """
    count = values.shape[0]
    if values.dtype == np.int64:
        low = int(values.min())
        if (int(values.max()) - low + 1) * count < 2**63:
            packed = (values - low) * count + np.arange(count, dtype=np.int64)
            packed.sort()
            return packed % count, packed // count + low
    order = np.argsort(values, kind="stable")
    return order, values[order]


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, keys, bounds)`` of ``values`` grouped into runs of equal
    keys: run ``g`` is ``order[bounds[g]:bounds[g + 1]]`` and has key ``keys[g]``.

    ``bounds`` ends on one more, empty run ``[n, n)`` past the last key: the
    bucket :meth:`GroupedJoinMap.slots` gives a probe that finds none.
    """
    count = values.shape[0]
    if count == 0:
        return np.empty(0, dtype=np.int64), values[:0], np.zeros(2, dtype=np.int64)
    order, sorted_values = _stable_sort(values)
    boundaries = np.empty(count + 2, dtype=bool)
    boundaries[0] = boundaries[-2] = boundaries[-1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=boundaries[1:-2])
    bounds = np.flatnonzero(boundaries)
    bounds[-1] = count
    return order, sorted_values[bounds[:-2]], bounds


# ----------------------------------------------------------------------
# probe translation
# ----------------------------------------------------------------------
def _integral_as_int64(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exactly-integral in-range float64 values as int64, others masked out."""
    values = values.astype(np.float64, copy=False)
    with np.errstate(invalid="ignore"):
        valid = (
            np.isfinite(values)
            & (np.floor(values) == values)
            & (values >= -9_223_372_036_854_775_808.0)
            & (values < 9_223_372_036_854_775_808.0)
        )
    return np.where(valid, values, 0.0).astype(np.int64), valid


def _translate_probes(
    column: Column, values: np.ndarray, source: Column
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Physical values of ``source`` in ``column``'s physical domain.

    Returns ``(probes, valid mask or None)``, or ``None`` when the two
    columns' types can never compare equal (string against numeric).
    """
    own_is_string = column.ctype is ColumnType.STRING
    if own_is_string != (source.ctype is ColumnType.STRING):
        return None
    if own_is_string:
        # Absent strings translate to a code no row carries.
        return column.translate_codes(source)[values], None
    own_kind = column.data.dtype.kind
    if own_kind == values.dtype.kind:
        return values, None
    if own_kind in "iu":
        return _integral_as_int64(values)
    # Int probes against float keys: only exactly representable ints can
    # equal a float64 key (the cast back must stay inside int64).
    probes = values.astype(np.float64)
    in_range = probes < 9_223_372_036_854_775_808.0
    valid = in_range & (np.where(in_range, probes, 0.0).astype(np.int64) == values)
    return probes, valid


def _direct_table(keys: np.ndarray) -> np.ndarray | None:
    """The direct-address table :func:`_find` looks sorted, distinct ``keys`` up in.

    ``None`` unless the keys are int64 and span at most :data:`DENSITY`
    slots per key.  Entry ``v - low + 1`` is the slot of key ``v``, and
    ``len(keys)`` where no key is ``v``; one more entry at either end, for
    ``low - 1`` and ``high + 1``, holds ``len(keys)`` for every probe
    outside the keys.  Keys reaching an end of int64 have no such
    neighbours and get no table.
    """
    count = keys.shape[0]
    if keys.dtype != np.int64 or count == 0:
        return None
    low, high = int(keys[0]), int(keys[-1])
    if high - low + 1 > DENSITY * (count + DENSITY) or low == -(2**63) or high == 2**63 - 1:
        return None
    table = np.full(high - low + 3, count, dtype=np.intp)
    table[keys - (low - 1)] = np.arange(count, dtype=np.intp)
    return table


def _find(keys: np.ndarray, probes: np.ndarray, table: np.ndarray | None) -> np.ndarray:
    """Each probe's slot in the sorted, distinct ``keys``; ``len(keys)`` where it is none.

    ``table`` is the keys' :func:`_direct_table`: with one, an int64 probe
    is clamped to ``[low - 1, high + 1]`` and read from it.  The clamp is
    the mask of the probes outside the keys: it comes before ``probes -
    low`` is computed, which therefore never leaves int64.  Without one the
    keys are binary-searched.  NaN is found nowhere, on either side.
    """
    count = keys.shape[0]
    if count == 0:
        return np.zeros(probes.shape[0], dtype=np.intp)
    if table is not None and probes.dtype == keys.dtype:
        below = int(keys[0]) - 1
        offsets = np.maximum(probes, below)
        np.minimum(offsets, int(keys[-1]) + 1, out=offsets)
        offsets -= below
        return table.take(offsets)
    slots = keys.searchsorted(probes)
    # ``mode="clip"``: a probe beyond the last key reads the last key.
    slots[keys.take(slots, mode="clip") != probes] = count  # also NaN on either side
    return slots


# ----------------------------------------------------------------------
# composite key encoding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompositeKeySpace:
    """The int64 code space of a composite key, defined by the build side alone.

    ``domains[i]`` are the sorted distinct physical values of key column
    ``columns[i]`` over the build rows; a row's code is the mixed-radix
    combination of its per-column domain slots.  ``dense[i]``, where present,
    are the sorted distinct partial codes of the build rows before column
    ``i`` joined in: the span guard re-compressed them to their own slots.
    ``tables[i]`` and ``dense_tables[i]`` are the direct-address tables of
    the two (:func:`_direct_table`).
    """

    columns: tuple[Column, ...]
    domains: tuple[np.ndarray, ...]
    dense: dict[int, np.ndarray]
    tables: tuple[np.ndarray | None, ...]
    dense_tables: dict[int, np.ndarray | None]

    @property
    def nbytes(self) -> int:
        """Bytes of the domains, the re-compressed codes and their tables."""
        arrays = (*self.domains, *self.dense.values(), *self.tables, *self.dense_tables.values())
        return sum(array.nbytes for array in arrays if array is not None)

    def probe_codes(
        self, values: Sequence[np.ndarray], sources: Sequence[Column]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, valid)`` of probe rows given per key column.

        ``values[i]`` are physical values of ``sources[i]``.  A valid probe
        row's code equals a build row's code exactly when every key column
        compares equal under Python ``==``; a row holding a value absent from
        a column's domain (or a NaN, or of a type that cannot compare equal)
        is invalid and its code meaningless.
        """
        length = int(np.shape(values[0])[0])
        codes = np.zeros(length, dtype=np.int64)
        valid = np.ones(length, dtype=bool)
        for index, (column, domain) in enumerate(zip(self.columns, self.domains)):
            translated = _translate_probes(column, np.asarray(values[index]), sources[index])
            if translated is None or domain.shape[0] == 0:
                return codes, np.zeros(length, dtype=bool)
            if index in self.dense:
                codes = _find(self.dense[index], codes, self.dense_tables[index])
                valid &= codes != self.dense[index].shape[0]
            probes, part_valid = translated
            part = _find(domain, probes, self.tables[index])
            valid &= part != domain.shape[0]
            codes = codes * domain.shape[0] + part
            if part_valid is not None:
                valid &= part_valid
        return codes, valid


def encode_composite_keys(
    columns: Sequence[Column], positions: np.ndarray
) -> tuple[CompositeKeySpace, np.ndarray]:
    """Encode the composite key of the build rows ``positions`` into int64 codes.

    Returns the code space and one code per build row, such that code
    equality is exactly value-tuple equality (build rows with a NaN part get
    codes no probe can produce).  Parts are combined by mixed radix over
    their per-column domains; whenever the combined span would overflow
    int64, the partial codes are re-compressed to a dense domain first, so
    any number of key columns is supported.
    """
    if not columns:
        raise ValueError("composite key needs at least one column")
    codes = np.zeros(positions.shape[0], dtype=np.int64)
    domains: list[np.ndarray] = []
    dense: dict[int, np.ndarray] = {}
    dense_tables: dict[int, np.ndarray | None] = {}
    span = 1
    for index, column in enumerate(columns):
        domain, part = np.unique(column.data[positions], return_inverse=True)
        size = max(1, domain.shape[0])
        if span > _MAX_SPAN // size:
            dense[index], codes = np.unique(codes, return_inverse=True)
            dense_tables[index] = _direct_table(dense[index])
            span = max(1, dense[index].shape[0])
        codes = codes.reshape(-1) * size + part.reshape(-1)
        span *= size
        domains.append(domain)
    tables = tuple(_direct_table(domain) for domain in domains)
    return CompositeKeySpace(tuple(columns), tuple(domains), dense, tables, dense_tables), codes


# ----------------------------------------------------------------------
# the grouped join map
# ----------------------------------------------------------------------
class GroupedJoinMap:
    """A join key's bucket index over some rows of a table, in grouped-runs form.

    ``key`` is one :class:`~repro.storage.column.Column` or, for a composite
    key, a sequence of them; ``positions`` are the indexed rows of the table,
    and a bucket holds *indices into* ``positions``.  A single column groups
    its *physical* values directly (dictionary codes for strings); several
    columns group the codes of :func:`encode_composite_keys`.  Either way
    the map is a function of the indexed rows alone, so it can be built once
    and probed from any column of any table.  A lookup takes two steps:
    :meth:`slots` translates a vector of probes into the key domain and
    finds each probe's bucket number among the sorted run keys
    (:func:`_find`: one gather from the direct-address table built with the
    map where the keys are dense int64, a binary search otherwise), and
    :meth:`bounds` turns bucket numbers into bucket bounds.  A caller that
    probes with the same values again keeps the bucket numbers and repeats
    only the second step.

    Whether every key holds one row (a primary key, ``unique``) is recorded
    when the map is grouped.  A unique map's bucket ``g`` is row
    ``rows[g]`` alone, so a caller that keeps what each probe finds
    (:meth:`edge`, what both executors probe through) keeps that *partner
    row* instead of the bucket number and needs no run bounds at all.

    Lookup semantics match a ``{value: rows}`` dict exactly:

    * rows within a bucket stay in ascending order (stable grouping sort),
      which the hash-jump's resume bound relies on;
    * float NaN keys form singleton runs no probe can find again
      (``nan != nan``) — the pinned NaN-never-matches join semantics;
    * cross-type probes follow Python ``==``: ``1`` finds ``1.0`` and vice
      versa (only when the conversion is exact, so huge ints and floats
      beyond 2**53 never invent matches), while a string probed against a
      numeric column (or the reverse) matches nothing.
    """

    __slots__ = ("_column", "_space", "_keys", "_table", "_rows", "_starts", "_ends", "_lower",
                 "_cut", "_grouped", "unique", "__weakref__")

    def __init__(self, key: Column | Sequence[Column], positions: np.ndarray) -> None:
        columns = (key,) if isinstance(key, Column) else tuple(key)
        if len(columns) == 1:
            self._column: Column | None = columns[0]
            self._space: CompositeKeySpace | None = None
            values = columns[0].data[positions]
        else:
            self._column = None
            self._space, values = encode_composite_keys(columns, positions)
        self._rows, self._keys, bounds = _runs(values)
        #: The keys' direct-address table, ``None`` where they are searched.
        self._table = _direct_table(self._keys)
        #: Whether every key holds exactly one row (NaN keys are singletons).
        self.unique = self._keys.shape[0] == self._rows.shape[0]
        #: Bucket ``g`` is ``_rows[_starts[g]:_ends[g]]``; bucket ``len(_keys)``
        #: is the empty one a probe that finds no key is given.
        self._starts, self._ends = bounds[:-1], bounds[1:]
        #: The rows below ``_lower`` are cut from every bucket (a suffix view).
        self._lower = 0
        #: ``(lower, starts)``: the last per-bucket cut :meth:`bounds` made.
        self._cut: tuple[int, np.ndarray] | None = None
        #: The map a :meth:`suffix` view was cut from (``self`` for a grouped one).
        self._grouped = self

    def suffix(self, lower: int) -> GroupedJoinMap:
        """The grouped map cut down to its rows ``>= lower``.

        Probing the cut map finds what a map over ``positions[lower:]`` finds,
        every row ``lower`` higher: Skinner-G/H join each batch against the
        remainder of the other tables, one lower bound per table.  It is a
        view, not a regrouping.  The keys, their direct-address table and
        the rows are shared, and since a bucket's rows ascend, the rows below
        ``lower`` are each bucket's first ones: its bounds move past them
        (:meth:`_cut_at`).  A bucket left with no rows reads as absent.
        """
        grouped = self._grouped
        if lower <= 0 or grouped._rows.shape[0] == 0:
            return grouped
        view = object.__new__(GroupedJoinMap)
        view._column, view._space = grouped._column, grouped._space
        view._keys, view._rows, view._ends = grouped._keys, grouped._rows, grouped._ends
        view._table = grouped._table
        view.unique = grouped.unique
        view._starts = grouped._cut_at(lower)
        view._lower, view._cut, view._grouped = lower, None, grouped
        return view

    def _cut_at(self, lower: int) -> np.ndarray:
        """Per bucket of this grouped map, where its rows ``>= lower`` start.

        One ``np.add.reduceat`` counts each bucket's rows below ``lower``;
        the trailing empty bucket stays empty.
        """
        if self._rows.shape[0] == 0:
            return self._starts
        firsts = self._starts[:-1]
        starts = np.empty_like(self._starts)
        np.add.reduceat(self._rows < lower, firsts, dtype=np.int64, out=starts[:-1])
        starts[:-1] += firsts
        starts[-1] = self._starts[-1]
        return starts

    @property
    def rows(self) -> np.ndarray:
        """All indexed rows, bucket after bucket (what :meth:`bounds` indexes)."""
        return self._rows

    @property
    def lower(self) -> int:
        """The rows below this are cut from every bucket (``0`` unless a :meth:`suffix`)."""
        return self._lower

    @property
    def nbytes(self) -> int:
        """Bytes of the grouped arrays, the per-bucket cut a resumed
        :meth:`bounds` keeps, the direct-address tables and a composite key's
        code space included (what a cache of maps is bounded by)."""
        held = self._keys.nbytes + self._rows.nbytes + 2 * self._starts.nbytes
        if self._table is not None:
            held += self._table.nbytes
        if self._space is not None:
            held += self._space.nbytes
        return held

    def slots(
        self, values: np.ndarray | Sequence[np.ndarray], source: Column | Sequence[Column]
    ) -> np.ndarray:
        """Each probe's bucket number, the number of keys (an empty bucket) where it has none.

        ``values`` are *physical* values of the probing column ``source``
        (dictionary codes when it is a string column); a map built from a
        sequence of key columns takes one value vector and one source column
        per key column instead.  A probe finds the bucket of the key equal
        to its decoded value: NaN never matches, int and float meet only
        where the conversion is exact, strings are translated between the
        two columns' dictionaries, and a string column never matches a
        numeric one.  The numbers depend on the grouped keys alone, so they
        serve every :meth:`suffix` of this map as well.
        """
        if self._space is not None:
            probes = self._space.probe_codes(values, source)
            values = values[0]
        else:
            if not isinstance(source, Column):  # a one-column key given as a sequence
                (values,), (source,) = values, source
            probes = _translate_probes(self._column, np.asarray(values), source)
        absent = self._keys.shape[0]
        if probes is None:
            return np.full(np.shape(values)[0], absent, dtype=np.intp)
        probes, valid = probes
        slots = _find(self._keys, probes, self._table)
        if valid is not None:
            slots[~valid] = absent
        return slots

    def edge(
        self, values: np.ndarray | Sequence[np.ndarray], source: Column | Sequence[Column]
    ) -> np.ndarray:
        """What each probe finds, in the form a join step takes it
        (:func:`~repro.engine.joinsteps.edge_candidates`).

        A unique map gives each probe its partner row: the one row of the
        bucket :meth:`slots` names, ``-1`` where it names none.  Rows a
        :meth:`suffix` view cuts are still given; the caller drops the
        partners below :attr:`lower`.  Any other map gives the
        :meth:`slots` numbers, for :meth:`bounds`.
        """
        slots = self.slots(values, source)
        if not self.unique:
            return slots
        absent = self._keys.shape[0]
        if absent == 0:
            return np.full(slots.shape[0], -1, dtype=np.int64)
        partners = self._rows.take(slots, mode="clip")
        partners[slots == absent] = -1
        return partners

    def bounds(self, slots: np.ndarray, lower: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` of the buckets ``slots`` names, rows ``< lower`` cut.

        ``rows[starts[i]:starts[i] + counts[i]]`` is bucket ``slots[i]``, so
        ``counts[i] == 0`` where a probe found no key.  With ``lower``
        above this map's own bound every bucket is cut down to its rows
        ``>= lower`` (the hash-jump's resume bound): one per-bucket cut of
        the grouped map, kept for the next call with the same ``lower``.
        """
        starts = self._starts
        if lower > self._lower:
            grouped = self._grouped
            if grouped._cut is None or grouped._cut[0] != lower:
                grouped._cut = (lower, grouped._cut_at(lower))
            starts = grouped._cut[1]
        first = starts.take(slots)
        counts = self._ends.take(slots)
        counts -= first
        return first, counts
