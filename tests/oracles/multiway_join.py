"""The scalar multi-way join: Algorithm 2 verbatim, one tuple index per iteration.

:func:`continue_scalar` takes the same arguments as
:meth:`~repro.skinner.multiway_join.MultiwayJoin.continue_join` (plus the
join it runs for) and reads the join's per-order context — cardinalities,
hash-jump specs and predicate plans — so both executors share one
classification of every predicate.  It enumerates result combinations in the
same lexicographic sequence and evaluates the same predicates per candidate
as the block executor, so the two emit identical rows in identical order,
finish in identical states and can take over from each other at any
suspension.  It additionally examines the reset index on every descent and
scans a band position instead of cutting it, so its slice boundaries and
scan charges differ (see ``tests/test_batched_join.py``).  It shares no
lookup code with production: a hash jump finds its bucket by plain binary
search (:func:`~tests.oracles.join_map.slots_reference`), and predicates are
evaluated per binding (:mod:`benchmarks.paper.scalar`).

:class:`NarrowJoin` is the block executor on its narrow schedule alone: every
step at most ``batch_size`` wide and a stop check between any two, the
definition of a slice that the production executor's wide steps must keep
(``tests/test_wide_steps.py``).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.engine.meter import CostMeter
from repro.skinner.multiway_join import MultiwayJoin, _Block, _JumpSpec, _OrderContext
from repro.skinner.preprocessor import PreprocessedQuery
from repro.skinner.result_set import JoinResultSet
from repro.skinner.state import JoinState

from benchmarks.paper.scalar import base_row, holds

from .join_map import slots_reference


class NarrowJoin(MultiwayJoin):
    """:class:`~repro.skinner.multiway_join.MultiwayJoin` whose merge hooks
    take no merged step: one narrow step at a time, as the slice defines it."""

    def _wide_width(
        self, context: _OrderContext, depth: int, frame: _Block, remaining: int, floor: int
    ) -> int:
        return self._batch_size

    def _trimmed_step(
        self,
        context: _OrderContext,
        frame: _Block,
        remaining: int,
        floor: int,
        offsets: Mapping[str, int],
        meter: CostMeter,
    ) -> tuple[int, _Block | None]:
        return 0, None


def continue_scalar(
    join: MultiwayJoin,
    state: JoinState,
    offsets: Mapping[str, int],
    budget: int,
    result_set: JoinResultSet,
    meter: CostMeter,
) -> bool:
    """Execute ``state.order`` of ``join`` for at most ``budget`` iterations.

    Returns ``True`` when the order is fully enumerated, ``False`` when the
    budget ran out; ``state`` is advanced in place.
    """
    context = join.context_for(state.order)
    prepared = join._prepared
    order = context.order
    cardinalities = context.cardinalities
    last = len(order) - 1
    if any(c == 0 for c in cardinalities):
        return True

    budget = max(budget, len(order) + 1)
    depth = 0
    iterations = 0
    while iterations < budget:
        iterations += 1
        meter.charge_scan(1)
        if state.indices[depth] < cardinalities[depth] and _satisfied(
            join, context, depth, state, meter
        ):
            if depth == last:
                result_set.emit(np.array([_result_tuple(prepared, state)], dtype=np.int64), None)
                meter.charge_output(1)
                depth = _next_tuple(prepared, context, state, offsets, depth)
            else:
                depth += 1
        else:
            depth = _next_tuple(prepared, context, state, offsets, depth)
        if depth < 0:
            return True
    return False


def _next_tuple(
    prepared: PreprocessedQuery,
    context: _OrderContext,
    state: JoinState,
    offsets: Mapping[str, int],
    depth: int,
) -> int:
    order = context.order
    cardinalities = context.cardinalities
    while True:
        if state.indices[depth] < cardinalities[depth]:
            state.indices[depth] = _advance_index(prepared, context, state, depth)
        else:
            state.indices[depth] = cardinalities[depth]
        if state.indices[depth] < cardinalities[depth]:
            return depth
        state.indices[depth] = offsets.get(order[depth], 0)
        depth -= 1
        if depth < 0:
            return -1


def _advance_index(
    prepared: PreprocessedQuery, context: _OrderContext, state: JoinState, depth: int
) -> int:
    spec = context.jump_at[depth]
    current = state.indices[depth]
    if not isinstance(spec, _JumpSpec):
        # A band position is scanned here: every predicate is evaluated
        # per candidate, so the reference checks the band's cut instead
        # of sharing it.
        return current + 1
    earlier_index = state.indices[spec.earlier_position]
    probe = prepared.physical_column(spec.earlier_alias, spec.earlier_column)
    source = prepared.tables[spec.earlier_alias].column(spec.earlier_column)
    join_map = prepared.join_maps[(context.order[depth], spec.own_column)]
    (slot,) = slots_reference(join_map, probe[earlier_index:earlier_index + 1], source).tolist()
    matches = join_map.rows[join_map._starts[slot]:join_map._ends[slot]]
    position = int(np.searchsorted(matches, current + 1, side="left"))
    if position >= matches.shape[0]:
        return context.cardinalities[depth]
    return int(matches[position])


def _satisfied(
    join: MultiwayJoin, context: _OrderContext, depth: int, state: JoinState, meter: CostMeter
) -> bool:
    plans = context.plans_at[depth]
    if not plans:
        return True
    prepared = join._prepared
    udfs = join._udfs
    order = context.order
    position_of = {alias: position for position, alias in enumerate(order[: depth + 1])}
    for plan in plans:
        binding: dict[str, dict[str, Any]] = {}
        for alias in plan.aliases:
            binding[alias] = _binding_for(prepared, alias, state.indices[position_of[alias]])
        meter.charge_predicate(1)
        per_row = plan.predicate.udf_cost(udfs) - 1
        if per_row > 0:  # meter only actual (registered) UDF invocations
            meter.charge_udf(per_row)
        if not holds(plan.predicate, binding, udfs):
            return False
    return True


def _result_tuple(prepared: PreprocessedQuery, state: JoinState) -> tuple[int, ...]:
    position_of = {alias: position for position, alias in enumerate(state.order)}
    return tuple(
        base_row(prepared, alias, state.indices[position_of[alias]])
        for alias in prepared.aliases
    )


def _binding_for(prepared: PreprocessedQuery, alias: str, filtered_index: int) -> dict[str, Any]:
    """Decoded row dict of ``alias`` at a filtered-array index."""
    return prepared.tables[alias].row(base_row(prepared, alias, filtered_index))
