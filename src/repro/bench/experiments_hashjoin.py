"""Hash-join kernel micro-benchmark: vectorized kernel vs dict-based path.

PR 3 replaced the plan executor's dict-based hash-join build/probe with the
columnar kernel of :mod:`repro.engine.joinkernels`.  This experiment isolates
that operator on join-heavy left-deep plans: a three-table chain with
controlled fan-out is joined step by step through
:func:`repro.engine.operators.hash_join_step` with ``mode="vectorized"`` (what
the plan executor runs) and ``mode="rows"`` (the dict-based reference),
reporting wall time per query and the kernel speedup.  Every run cross-checks
that the two modes produce **byte-identical** row-id relations (same rows,
same order) and identical meter charges, so the speedup numbers are always
backed by equivalent work.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.engine.executor import PlanExecutor
from repro.engine.meter import CostMeter
from repro.engine.operators import hash_join_step
from repro.engine.profiles import get_profile
from repro.engine.relation import RowIdRelation
from repro.query.expressions import ColumnRef
from repro.query.predicates import Predicate, column_equals_column
from repro.query.query import Query, make_query
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import make_rng, uniform_keys

_JOIN_ORDER = ("t0", "t1", "t2")


def _build_catalog(tuples_per_table: int, fanout: int, seed: int) -> Catalog:
    """Three chain-joinable tables with ~``fanout`` matches per key."""
    rng = make_rng(seed)
    catalog = Catalog()
    num_keys = max(1, tuples_per_table // max(1, fanout))
    for index in range(3):
        n = tuples_per_table
        catalog.add_table(Table(f"t{index}", {
            "k": uniform_keys(rng, n, num_keys),
            "g": uniform_keys(rng, n, 4),
            "v": uniform_keys(rng, n, 100),
        }))
    return catalog


def _queries() -> dict[str, Query]:
    tables = [(alias, alias) for alias in _JOIN_ORDER]
    return {
        "chain_fanout": make_query(
            tables,
            predicates=[
                column_equals_column("t0", "k", "t1", "k"),
                column_equals_column("t1", "k", "t2", "k"),
            ],
        ),
        "composite_residual": make_query(
            tables,
            predicates=[
                column_equals_column("t0", "k", "t1", "k"),
                column_equals_column("t0", "g", "t1", "g"),
                column_equals_column("t1", "k", "t2", "k"),
                Predicate(ColumnRef("t0", "v"), "<=", ColumnRef("t2", "v")),
            ],
        ),
    }


def _join_chain(executor: PlanExecutor, mode: str, meter: CostMeter) -> RowIdRelation:
    """The chain plan of ``executor``'s query, every step a hash join in ``mode``."""
    positions = executor.pre_process()
    tables = executor.tables
    first = _JOIN_ORDER[0]
    result = RowIdRelation.from_base(first, positions[first])
    for alias, equi, residual in executor.join_steps(_JOIN_ORDER):
        result = hash_join_step(result, alias, tables[alias], positions[alias],
                                equi, residual, tables, meter, mode=mode)
    return result


def _assert_equivalent(reference, vectorized, reference_work, vectorized_work, label):
    if vectorized.aliases != reference.aliases:
        raise AssertionError(f"{label}: alias sets diverge between join modes")
    for alias in reference.aliases:
        if not np.array_equal(vectorized.ids(alias), reference.ids(alias)):
            raise AssertionError(f"{label}: row ids of {alias!r} diverge between join modes")
    if vectorized_work != reference_work:
        raise AssertionError(f"{label}: meter charges diverge between join modes")


def hashjoin_kernel(
    tuples_per_table: int = 120_000,
    fanout: int = 2,
    seed: int = 13,
    repetitions: int = 3,
) -> dict[str, Any]:
    """Vectorized vs dict-based hash join over join-heavy left-deep plans."""
    catalog = _build_catalog(tuples_per_table, fanout, seed)
    profile = get_profile("postgres")
    rows: list[dict[str, Any]] = []
    records: list[dict[str, Any]] = []
    speedups: dict[str, float] = {}
    for name, query in _queries().items():
        timings: dict[str, float] = {}
        relations: dict[str, Any] = {}
        work: dict[str, Any] = {}
        executor = PlanExecutor(catalog, query)
        executor.pre_process(CostMeter())  # warm the filtered-position cache
        for mode in ("rows", "vectorized"):
            best = float("inf")
            for _ in range(max(1, repetitions)):
                meter = CostMeter()
                started = time.perf_counter()
                relations[mode] = _join_chain(executor, mode, meter)
                best = min(best, time.perf_counter() - started)
                work[mode] = meter.snapshot()
            timings[mode] = best
            records.append({
                "query": name,
                "mode": mode,
                "simulated_time": profile.simulated_time(work[mode]),
                "result_rows": len(relations[mode]),
            })
        _assert_equivalent(relations["rows"], relations["vectorized"],
                           work["rows"], work["vectorized"], name)
        speedup = timings["rows"] / max(timings["vectorized"], 1e-9)
        speedups[name] = speedup
        rows.append({
            "Query": name,
            "Rows Out": len(relations["vectorized"]),
            "Row Path (ms)": round(timings["rows"] * 1e3, 2),
            "Vectorized (ms)": round(timings["vectorized"] * 1e3, 2),
            "Speedup": round(speedup, 2),
        })
    return {
        "title": "Hash join: vectorized kernel vs dict-based path",
        "rows": rows,
        "records": records,
        "speedups": speedups,
        "parameters": {"tuples_per_table": tuples_per_table, "fanout": fanout,
                       "seed": seed, "repetitions": repetitions},
    }
