"""Physical operators over row-id relations.

Three operators are enough for the left-deep plans used throughout the
repository:

* :func:`filter_table` — apply a table's unary predicates, producing the row
  positions that survive (pre-processing in the paper's terminology).
* :func:`hash_join_candidates` — extend an intermediate result by one table
  via a hash join on the applicable equality predicates.
* :func:`cross_candidates` — the fallback when no equality predicate links
  the new table to the current prefix (Cartesian product or generic/UDF-only
  join predicates).
* :func:`apply_residual` — filter candidates by the residual predicates.

A step charges its :class:`Candidates` whole, and then filters them range
by range (:meth:`~repro.engine.executor.PlanExecutor.run_order`);
:func:`hash_join_step` is a hash-join step in one range.

Every predicate but ``column <op> literal`` (which compares the physical
column once) is evaluated over arrays of the surviving rows by
:func:`repro.engine.vectorized.predicate_mask`, UDF calls included.

The hash join runs the columnar kernel from :mod:`repro.engine.joinkernels`:
the build side grouped by a stable sort into a
:class:`~repro.engine.joinkernels.GroupedJoinMap` (the caller's cached one, a
suffix view of it for a remainder), the probe side matched by direct
address or binary search (:meth:`~repro.engine.joinkernels.GroupedJoinMap.edge`),
and the candidates taken range by range from one of the two shapes of
:mod:`repro.engine.joinsteps`: partner rows where the build key is unique,
bucket runs otherwise, as in the multi-way join's frames.  A cross product
is runs too.  The dict-based build/probe reference the equivalence tests and
the kernel benchmark compare against is ``rows_hash_join_step`` in
``tests/oracles/hash_join.py``; both produce byte-identical relations and
charge identical meter work, and NaN float join keys never match in either
(see :mod:`repro.engine.joinkernels`).

All operators charge their work to a :class:`~repro.engine.meter.CostMeter`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.joinsteps import Partners, Runs, edge_candidates, scan
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.vectorized import predicate_mask
from repro.query.expressions import ColumnRef, Literal
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
    length = int(positions.shape[0])
    _charge_predicate(predicate, length, meter, udfs)
    if (
        predicate.op is not None
        and isinstance(predicate.left, ColumnRef)
        and isinstance(predicate.right, Literal)
    ):  # column <op> literal: compare the physical column once
        column = table.column(predicate.left.column)
        return column.compare(predicate.op, predicate.right.value)[positions]

    def resolve(ref: ColumnRef) -> np.ndarray:
        return table.column(ref.column).decoded_data[positions]

    return predicate_mask(predicate, resolve, length, udfs)


def _charge_predicate(
    predicate: Predicate, length: int, meter: CostMeter, udfs: UdfRegistry | None
) -> None:
    """Charge ``length`` evaluations of ``predicate``, with its UDF calls."""
    meter.charge_predicate(length)
    per_row = predicate.udf_cost(udfs) - 1
    if per_row > 0:  # meter only actual (registered) UDF invocations
        meter.charge_udf(length * per_row)


#: ``key_columns -> build side``: the rows a hash join builds on, grouped by
#: those columns of the new table (see :func:`hash_join_step`).
BuildSide = Callable[[tuple[str, ...]], GroupedJoinMap]


class Candidates:
    """A join step's candidate rows in probe order, built range by range by
    :meth:`take`: prefix row ``p`` pairs with ``positions[c]`` for every
    candidate ``c`` that ``shape`` gives it (:mod:`repro.engine.joinsteps`)."""

    def __init__(self, prefix: RowIdRelation, alias: str, positions: np.ndarray,
                 shape: Runs | Partners) -> None:
        self._prefix, self._alias, self._positions = prefix, alias, positions
        self.shape = shape
        self.total = shape.total

    def take(self, start: int, stop: int) -> RowIdRelation:
        """Candidates ``start:stop``, extending the prefix by the new alias."""
        parent, candidates = self.shape.take(start, stop)
        return self._prefix.extend(self._alias, self._positions[candidates], parent)


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
    lower: int = 0,
    build_side: BuildSide | None = None,
) -> RowIdRelation:
    """Extend ``prefix`` by ``alias`` using a hash join.

    ``equi_predicates`` must each connect ``alias`` to some alias already in
    the prefix via column equality.  ``residual_predicates`` are evaluated on
    each candidate combination.  The build side is ``positions[lower:]``:
    ``build_side(key_columns)`` returns those rows grouped by the join's key
    columns of ``table``, a map whose buckets hold indices into
    ``positions`` (the caller's cached map, or its
    :meth:`~repro.engine.joinkernels.GroupedJoinMap.suffix`); without it they
    are grouped for this join alone.
    """
    candidates = hash_join_candidates(prefix, alias, table, positions, equi_predicates,
                                      tables, meter, lower, build_side)
    return apply_residual(candidates.take(0, candidates.total), residual_predicates,
                           tables, meter, udfs)


def hash_join_candidates(
    prefix: RowIdRelation,
    alias: str,
    table: Table,
    positions: np.ndarray,
    equi_predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    lower: int = 0,
    build_side: BuildSide | None = None,
) -> Candidates:
    """:func:`hash_join_step`'s build and probe, the step charged whole."""
    # Building the hash side scans/hashes the new table's tuples once, so it
    # is charged as scan work, not as hash probes: the probe counter must
    # mean the same thing across join implementations for the weighted
    # reports and the Table-6 ablation to be comparable.  Every join is charged its
    # build, also one whose build side was grouped before, and before it is
    # asked for: a build that overruns the budget is never grouped.
    meter.charge_scan(positions.shape[0] - lower)
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
    if build_side is None:
        build = GroupedJoinMap([table.column(name) for name in key_columns], positions)
        build = build.suffix(lower)
    else:
        build = build_side(tuple(key_columns))
    shape = edge_candidates(build, build.edge(probe_values, probe_columns))
    # Charge before materializing so a work budget cuts off an exploding
    # join as soon as the budget is reached.  The dict-based reference charges
    # one probe row's matches at a time and stops at the group that crosses the
    # budget; to record the identical overshoot (Skinner-G/H merge aborted
    # meters into their reported work), a charge that would exceed the
    # remaining budget is truncated to the count through that same crossing
    # group before it raises.
    charged, remaining = shape.total, meter.remaining
    if remaining is not None and charged > remaining:
        charged = shape.through(remaining)
    meter.charge_intermediate(charged)
    return Candidates(prefix, alias, positions, shape)


def cross_candidates(
    prefix: RowIdRelation, alias: str, positions: np.ndarray, meter: CostMeter
) -> Candidates:
    """``prefix`` extended by ``alias`` as a cross product, charged whole
    before any of it is allocated (a work budget cuts an exploding product
    off here)."""
    shape = scan(len(prefix), 0, int(positions.shape[0]))
    meter.charge_intermediate(shape.total)
    return Candidates(prefix, alias, positions, shape)


def apply_residual(
    candidate: RowIdRelation,
    predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    udfs: UdfRegistry | None,
) -> RowIdRelation:
    """Filter a candidate relation by residual predicates.

    Predicates are applied sequentially to the shrinking survivor set, so
    the work charged is a row-at-a-time loop's short-circuit exactly; each
    is evaluated over decoded column arrays gathered for the survivors.
    """
    if not predicates or len(candidate) == 0:
        return candidate
    selector = np.arange(len(candidate), dtype=np.int64)
    for predicate in predicates:
        if selector.shape[0] == 0:
            break
        length = int(selector.shape[0])
        _charge_predicate(predicate, length, meter, udfs)

        def resolve(ref: ColumnRef) -> np.ndarray:
            ids = candidate.ids(ref.table)[selector]
            return tables[ref.table].column(ref.column).decoded_data[ids]

        selector = selector[predicate_mask(predicate, resolve, length, udfs)]
    return candidate.take(selector)
