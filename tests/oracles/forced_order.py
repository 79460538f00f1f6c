"""Skinner-C on one forced join order, without a task.

:func:`forced_order` is the body ``SkinnerC.execute_with_order`` had before
the forced order became an ordinary :class:`~repro.skinner.skinner_c.SkinnerCTask`:
one meter for pre-processing, the join and post-processing, one
:class:`~repro.skinner.state.JoinState` carried from one ``continue_join``
call to the next at the top budget factor, and an all-zero
``preprocess_work``.  The task must match it on rows, charges and the
reported order.
"""

from __future__ import annotations

import dataclasses
import time

from repro.engine.meter import CostMeter, WorkBreakdown
from repro.engine.postprocess import post_process
from repro.result import QueryMetrics, QueryResult
from repro.skinner.multiway_join import BATCH_SIZE, MAX_BUDGET_FACTOR, MultiwayJoin
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.skinner.state import JoinState


def forced_order(engine, query, order: tuple[str, ...], *, join_maps: bool = True) -> QueryResult:
    """Run ``query`` in ``order`` on the Skinner-C ``engine`` (a ``SkinnerC``);
    ``join_maps=False`` pre-processes without join maps."""
    started = time.perf_counter()
    meter = CostMeter()
    prepared = preprocess(
        engine._catalog, query, engine._udfs, meter, build_hash_maps=join_maps,
    )
    result_set = JoinResultSet(prepared.aliases)
    if query.num_tables == 1 and not prepared.is_empty():
        result_set.emit(prepared.filtered[prepared.aliases[0]][:, None], prepared.aliases)
    elif not prepared.is_empty():
        join = MultiwayJoin(prepared, engine._udfs, batch_size=BATCH_SIZE)
        state = JoinState(tuple(order))
        offsets = {alias: 0 for alias in prepared.aliases}
        finished = False
        budget = engine._config.slice_budget * MAX_BUDGET_FACTOR
        while not finished:
            finished = join.continue_join(state, offsets, budget, result_set, meter)
    relation = result_set.to_relation()
    output = post_process(query, relation, prepared.tables, engine._udfs, meter)
    metrics = QueryMetrics.measured(
        f"{engine.name}(forced)", meter.snapshot(), started, output.num_rows,
        intermediate_cardinality=meter.tuples_scanned,
        result_tuple_count=len(result_set),
        final_join_order=tuple(order),
        extra={"preprocess_work": dataclasses.asdict(WorkBreakdown())},
    )
    return QueryResult(output, metrics)
