"""A hash-join step in one range, and its dict-based reference.

:func:`hash_join_step` is the plan executor's hash join in one range:
:func:`~repro.engine.operators.hash_join_candidates` followed by
:func:`~repro.engine.operators.apply_residual` over all the candidates.
:func:`rows_hash_join_step` takes :func:`hash_join_step`'s
arguments and does what it does with a Python dict for the build side and
tuple keys read value by value: the same build scan charge, the same probe
and intermediate charges (one probe row's matches at a time, so a work
budget stops it at the same group), and the same residual filter
(``operators.apply_residual``).  The kernel must return a byte-identical
relation — same rows in the same order — and identical meter work.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.engine.meter import CostMeter
from repro.engine.operators import BuildSide, apply_residual, hash_join_candidates
from repro.engine.relation import RowIdRelation
from repro.query.predicates import Predicate
from repro.query.udf import UdfRegistry
from repro.storage.table import Table


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
    """Extend ``prefix`` by ``alias`` using the kernel's hash join, then
    evaluate ``residual_predicates`` on each candidate combination."""
    candidates = hash_join_candidates(prefix, alias, table, positions, equi_predicates,
                                      tables, meter, lower, build_side)
    return apply_residual(candidates.take(0, candidates.total), residual_predicates,
                          tables, meter, udfs)


def rows_hash_join_step(
    prefix: RowIdRelation,
    alias: str,
    table: Table,
    positions: np.ndarray,
    equi_predicates: Sequence[Predicate],
    residual_predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    udfs: UdfRegistry | None = None,
) -> RowIdRelation:
    """Extend ``prefix`` by ``alias`` with a dict-based build/probe."""
    meter.charge_scan(positions.shape[0])
    build_keys = _composite_keys_for_new(table, positions, alias, equi_predicates)
    buckets: dict[Any, list[int]] = {}
    for row, key in enumerate(build_keys):
        buckets.setdefault(key, []).append(row)

    probe_keys = _composite_keys_for_prefix(prefix, tables, alias, equi_predicates)
    selector: list[int] = []
    new_positions: list[int] = []
    meter.charge_probe(len(prefix))
    for prefix_row, key in enumerate(probe_keys):
        matches = buckets.get(key, ())
        if matches:
            # Charge before materializing so a work budget cuts off an
            # exploding join as soon as the budget is reached.
            meter.charge_intermediate(len(matches))
        for build_row in matches:
            selector.append(prefix_row)
            new_positions.append(int(positions[build_row]))
    candidate = prefix.extend(alias, np.asarray(new_positions, dtype=np.int64),
                              np.asarray(selector, dtype=np.int64))
    return apply_residual(candidate, residual_predicates, tables, meter, udfs)


def _composite_keys_for_new(
    table: Table,
    positions: np.ndarray,
    alias: str,
    equi_predicates: Sequence[Predicate],
) -> list[tuple[Any, ...]]:
    """Hash keys (one per position) on the build side of the join."""
    columns = []
    for predicate in equi_predicates:
        left, right = predicate.equi_join_columns()
        ref = left if left.table == alias else right
        columns.append(table.column(ref.column))
    keys: list[tuple[Any, ...]] = []
    for position in positions:
        keys.append(tuple(column.value(int(position)) for column in columns))
    return keys


def _composite_keys_for_prefix(
    prefix: RowIdRelation,
    tables: Mapping[str, Table],
    new_alias: str,
    equi_predicates: Sequence[Predicate],
) -> list[tuple[Any, ...]]:
    """Hash keys (one per prefix row) on the probe side of the join."""
    sources = []
    for predicate in equi_predicates:
        left, right = predicate.equi_join_columns()
        ref = right if left.table == new_alias else left
        sources.append((ref.table, tables[ref.table].column(ref.column)))
    keys: list[tuple[Any, ...]] = []
    for row in range(len(prefix)):
        key = tuple(column.value(int(prefix.ids(alias_)[row])) for alias_, column in sources)
        keys.append(key)
    return keys
