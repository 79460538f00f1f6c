"""Physical operators over row-id relations.

Three operators are enough for the left-deep plans used throughout the
repository:

* :func:`filter_table` — apply a table's unary predicates, producing the row
  positions that survive (pre-processing in the paper's terminology).
* :func:`hash_join_step` — extend an intermediate result by one table via a
  hash join on the applicable equality predicates, with residual predicates
  evaluated tuple-at-a-time.
* :func:`nested_loop_step` — the fallback when no equality predicate links
  the new table to the current prefix (Cartesian product or generic/UDF-only
  join predicates).

The hash join runs the columnar kernel from :mod:`repro.engine.joinkernels`:
the build side grouped by a stable sort into a
:class:`~repro.engine.joinkernels.GroupedJoinMap` (kept in a
:class:`HashBuildCache` while the build rows stay the same array), the probe
side matched via ``searchsorted``, and the result emitted as whole selector
arrays.  The dict-based build/probe reference the equivalence tests and the
kernel benchmark compare against is ``rows_hash_join_step`` in
``tests/oracles/hash_join.py``; both produce byte-identical relations and
charge identical meter work, and NaN float join keys never match in either
(see :mod:`repro.engine.joinkernels`).

All operators charge their work to a :class:`~repro.engine.meter.CostMeter`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap, expand_matches
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.vectorized import (
    VECTOR_COMPARATORS,
    NotVectorizable,
    evaluate_value,
    vectorizable,
)
from repro.query.expressions import ColumnRef
from repro.query.predicates import Predicate
from repro.query.udf import UdfRegistry
from repro.storage.table import Table

def filter_table(
    table: Table,
    alias: str,
    predicates: Sequence[Predicate],
    meter: CostMeter,
    udfs: UdfRegistry | None = None,
) -> np.ndarray:
    """Apply unary predicates to a base table and return surviving positions."""
    meter.charge_scan(table.num_rows)
    positions = np.arange(table.num_rows, dtype=np.int64)
    for predicate in predicates:
        if positions.shape[0] == 0:
            break
        mask = _unary_mask(table, alias, predicate, positions, meter, udfs)
        positions = positions[mask]
    return positions


def _unary_mask(
    table: Table,
    alias: str,
    predicate: Predicate,
    positions: np.ndarray,
    meter: CostMeter,
    udfs: UdfRegistry | None,
) -> np.ndarray:
    """Boolean mask over ``positions`` for one unary predicate."""
    from repro.query.expressions import Literal

    meter.charge_predicate(positions.shape[0])
    per_row = predicate.udf_cost(udfs) - 1
    if per_row > 0:  # meter only actual (registered) UDF invocations
        meter.charge_udf(positions.shape[0] * per_row)
    # Fast path: column <op> literal without UDFs.
    if (
        predicate.op is not None
        and isinstance(predicate.left, ColumnRef)
        and isinstance(predicate.right, Literal)
        and not predicate.uses_udf
    ):
        column = table.column(predicate.left.column)
        full_mask = column.compare(predicate.op, predicate.right.value)
        return full_mask[positions]
    # Vectorized path for the remaining UDF-free comparisons (arithmetic
    # expressions, reversed literal order, ...) over decoded column arrays.
    if _comparison_vectorizable(predicate):
        def resolve(ref: ColumnRef) -> np.ndarray:
            return table.column(ref.column).decoded_data[positions]

        mask = _vector_comparison_mask(predicate, resolve, int(positions.shape[0]))
        if mask is not None:
            return mask
    # Generic path: evaluate tuple at a time (UDFs, bare boolean expressions).
    mask = np.zeros(positions.shape[0], dtype=bool)
    for i, position in enumerate(positions):
        binding = {alias: table.row(int(position))}
        mask[i] = predicate.evaluate(binding, udfs)
    return mask


def _comparison_vectorizable(predicate: Predicate) -> bool:
    """Whether the predicate is a UDF-free comparison of vectorizable sides."""
    return (
        predicate.op in VECTOR_COMPARATORS
        and predicate.right is not None
        and not predicate.uses_udf
        and vectorizable(predicate.left)
        and vectorizable(predicate.right)
    )


def _vector_comparison_mask(predicate: Predicate, resolve, length: int) -> np.ndarray | None:
    """Evaluate a comparison predicate over arrays; ``None`` to fall back."""
    try:
        left = evaluate_value(predicate.left, resolve)
        right = evaluate_value(predicate.right, resolve)
        mask = np.asarray(VECTOR_COMPARATORS[predicate.op](left, right), dtype=bool)
    except NotVectorizable:
        return None
    if mask.ndim == 0:  # incomparable scalar fallout: uniform truth value
        return np.full(length, bool(mask))
    return mask


class HashBuildCache:
    """The grouped build sides of one query's hash joins, kept between joins.

    Skinner-G/H invoke the plan executor once per time slice, each time
    joining against build sides that seldom changed since the slice before;
    grouping one sorts the table.  The cache holds one
    :class:`~repro.engine.joinkernels.GroupedJoinMap` per ``(alias, key
    columns)`` together with the positions array it indexes, and an entry
    answers only a join whose ``positions`` **is** that array: identity is
    the one test that cannot be fooled by another array of the same length or
    the same first rows, and the held reference keeps the array's id from
    being recycled (position arrays are never written to once handed out).
    A different array replaces the entry, so there is never more than one
    grouped copy per join key.

    Only the sorts are saved: :func:`hash_join_step` charges every join its
    build, hit or miss, as the host DBMS the paper targets would pay it.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, tuple[str, ...]], tuple[np.ndarray, GroupedJoinMap]] = {}
        #: How many times each ``(alias, key columns)`` was grouped.
        self.built: Counter[tuple[str, tuple[str, ...]]] = Counter()

    def build_side(
        self, alias: str, table: Table, key_columns: tuple[str, ...], positions: np.ndarray
    ) -> GroupedJoinMap:
        """The rows ``positions`` of ``table`` grouped by ``key_columns``."""
        key = (alias, key_columns)
        entry = self._entries.get(key)
        if entry is None or entry[0] is not positions:
            columns = [table.column(name) for name in key_columns]
            entry = self._entries[key] = (positions, GroupedJoinMap(columns, positions))
            self.built[key] += 1
        return entry[1]


def hash_join_step(
    prefix: RowIdRelation,
    alias: str,
    table: Table,
    positions: np.ndarray,
    equi_predicates: Sequence[Predicate],
    residual_predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    udfs: UdfRegistry | None = None,
    builds: HashBuildCache | None = None,
) -> RowIdRelation:
    """Extend ``prefix`` by ``alias`` using a hash join.

    ``equi_predicates`` must each connect ``alias`` to some alias already in
    the prefix via column equality.  ``residual_predicates`` are evaluated on
    each candidate combination.  ``builds`` is the caller's
    :class:`HashBuildCache`; without one the build side is grouped for this
    join alone.
    """
    # Building the hash side scans/hashes the new table's tuples once, so it
    # is charged as scan work, not as hash probes: the probe counter must
    # mean the same thing across join implementations for the meter profiles
    # and the Table-6 ablation to be comparable.  Every join is charged its
    # build, also one that finds the build side in ``builds``.
    meter.charge_scan(positions.shape[0])
    candidate = _vectorized_hash_join(prefix, alias, table, positions, equi_predicates,
                                      tables, meter,
                                      builds if builds is not None else HashBuildCache())
    return _apply_residual(candidate, residual_predicates, tables, meter, udfs)


def _vectorized_hash_join(
    prefix: RowIdRelation,
    alias: str,
    table: Table,
    positions: np.ndarray,
    equi_predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    builds: HashBuildCache,
) -> RowIdRelation:
    """Columnar build/probe via the :mod:`repro.engine.joinkernels` primitives."""
    key_columns = []
    probe_columns = []
    probe_values = []
    for predicate in equi_predicates:
        left, right = predicate.equi_join_columns()
        own, other = (left, right) if left.table == alias else (right, left)
        key_columns.append(own.column)
        probe_column = tables[other.table].column(other.column)
        probe_columns.append(probe_column)
        probe_values.append(probe_column.data[prefix.ids(other.table)])
    meter.charge_probe(len(prefix))
    build = builds.build_side(alias, table, tuple(key_columns), positions)
    starts, counts = build.lookup_many(probe_values, probe_columns)
    # Charge before materializing so a work budget cuts off an exploding
    # join as soon as the budget is reached.  The dict-based reference charges
    # one probe row's matches at a time and stops at the group that crosses the
    # budget; to record the identical overshoot (Skinner-G/H merge aborted
    # meters into their reported work), a charge that would exceed the
    # remaining budget is truncated to the cumulative count through that
    # same crossing group before it raises.
    total_matches = int(counts.sum())
    remaining = meter.remaining
    if remaining is not None and total_matches > remaining:
        cumulative = np.cumsum(counts)
        crossing = int(np.searchsorted(cumulative, remaining, side="right"))
        total_matches = int(cumulative[crossing])
    meter.charge_intermediate(total_matches)
    selector, build_rows = expand_matches(build.rows, starts, counts)
    return prefix.extend(alias, positions[build_rows], selector)


def nested_loop_step(
    prefix: RowIdRelation,
    alias: str,
    table: Table,
    positions: np.ndarray,
    predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    udfs: UdfRegistry | None = None,
) -> RowIdRelation:
    """Extend ``prefix`` by ``alias`` via a (predicate-filtered) cross product."""
    n_prefix = len(prefix)
    n_new = positions.shape[0]
    if n_prefix == 0 or n_new == 0:
        aliases = prefix.aliases + [alias]
        return RowIdRelation.empty(aliases)
    # Charge before materializing so a work budget cuts off an exploding
    # Cartesian product before it is allocated.
    meter.charge_intermediate(n_prefix * n_new)
    selector = np.repeat(np.arange(n_prefix, dtype=np.int64), n_new)
    new_positions = np.tile(positions, n_prefix)
    candidate = prefix.extend(alias, new_positions, selector)
    return _apply_residual(candidate, predicates, tables, meter, udfs)


def _apply_residual(
    candidate: RowIdRelation,
    predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    udfs: UdfRegistry | None,
) -> RowIdRelation:
    """Filter a candidate relation by residual predicates.

    Predicates are applied sequentially to the shrinking survivor set, so
    the work charged matches the former row-at-a-time loop's short-circuit
    exactly.  UDF-free comparisons are evaluated vectorized over decoded
    column arrays; only UDF predicates (and bare boolean expressions) pay
    the per-row binding cost.
    """
    if not predicates or len(candidate) == 0:
        return candidate
    selector = np.arange(len(candidate), dtype=np.int64)
    for predicate in predicates:
        if selector.shape[0] == 0:
            break
        length = int(selector.shape[0])
        meter.charge_predicate(length)
        per_row = predicate.udf_cost(udfs) - 1
        if per_row > 0:  # meter only actual (registered) UDF invocations
            meter.charge_udf(length * per_row)
        mask = None
        if _comparison_vectorizable(predicate):
            def resolve(ref: ColumnRef) -> np.ndarray:
                ids = candidate.ids(ref.table)[selector]
                return tables[ref.table].column(ref.column).decoded_data[ids]

            mask = _vector_comparison_mask(predicate, resolve, length)
        if mask is None:
            mask = np.zeros(length, dtype=bool)
            for i, row in enumerate(selector.tolist()):
                binding = candidate.binding(row, tables)
                mask[i] = predicate.evaluate(binding, udfs)
        selector = selector[mask]
    return candidate.take(selector)
