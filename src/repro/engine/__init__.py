"""Relational execution substrate shared by all engines.

The engines in this repository (the traditional executor used as the
"existing DBMS" for Skinner-G/H and as a baseline, the Skinner-C multi-way
join, Eddies, ...) all operate on *row-id relations*: join results are
vectors of base-table row positions, one per joined alias, and values are
materialized lazily from the column store.

Costs are not measured in wall-clock time but in **work units** charged to a
:class:`~repro.engine.meter.CostMeter` (tuples scanned, predicate
evaluations, hash probes, intermediate tuples).  The benchmark harness
weights them per modelled system to compare engines the way the paper
compares Postgres, MonetDB, and SkinnerDB.  See ``docs/ci.md`` ("work units
on synthetic workloads") for the substitution rationale.
"""

from repro.engine.executor import PlanExecutor
from repro.engine.joinkernels import (
    CompositeKeySpace,
    GroupedJoinMap,
    GroupedRows,
    encode_composite_keys,
    group_rows,
)
from repro.engine.meter import CostMeter, WorkBreakdown
from repro.engine.postprocess import post_process
from repro.engine.relation import RowIdRelation
from repro.engine.task import EngineTask, ExecutionBackend

__all__ = [
    "CompositeKeySpace",
    "CostMeter",
    "EngineTask",
    "ExecutionBackend",
    "GroupedJoinMap",
    "GroupedRows",
    "PlanExecutor",
    "RowIdRelation",
    "WorkBreakdown",
    "encode_composite_keys",
    "group_rows",
    "post_process",
]
