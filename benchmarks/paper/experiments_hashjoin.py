"""Hash-join kernel micro-benchmark: vectorized kernel vs dict-based path.

PR 3 replaced the plan executor's dict-based hash-join build/probe with the
columnar kernel of :mod:`repro.engine.joinkernels`.  This experiment isolates
that operator on join-heavy left-deep plans: a three-table chain with
controlled fan-out is joined step by step through
:func:`tests.oracles.hash_join_step` (the plan executor's hash step
in one range, its candidates taken from :mod:`repro.engine.joinsteps`, the
join-step kernel the multi-way join shares) and through the dict-based test
oracle ``rows_hash_join_step``
(``tests/oracles/hash_join.py``), reporting wall time per query and the
kernel speedup.  Every run cross-checks that the two paths produce
**byte-identical** row-id relations (same rows, same order) and identical
meter charges, so the speedup numbers are always backed by equivalent work.

A second series, ``batch_reuse``, measures what Skinner-G/H get from the
catalog's statement cache and the executor's suffix views: the chain plan is
invoked ten times on one batch of the left-most table and the remaining
suffixes of the others — suffixes that move on every few invocations, as
they do when batches complete — once through one executor kept across the
invocations and once through a fresh executor per invocation, each on a
catalog of its own.  Relations and meter charges must be identical call for
call.  The series counts how often a build side is grouped
(:class:`~repro.engine.joinkernels.GroupedJoinMap` constructions): once per
build side and catalog, however the suffixes move and however many
executors ask.  It reports work *units* beside the experiment's gated
``simulated_time`` total, not inside it.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

import numpy as np

from repro.engine.executor import PlanExecutor
from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.query.expressions import ColumnRef
from repro.query.predicates import Predicate, column_equals_column
from repro.query.query import Query
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import make_rng, uniform_keys
from tests.oracles import hash_join_step, rows_hash_join_step

from .profiles import get_profile
from .queries import make_query

_JOIN_ORDER = ("t0", "t1", "t2")

#: The hash join of each path: the dict-based oracle and the kernel.
_JOIN_STEPS = {"rows": rows_hash_join_step, "vectorized": hash_join_step}


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
    """The chain plan of ``executor``'s query, every step a hash join on ``mode``'s path."""
    join_step = _JOIN_STEPS[mode]
    positions = executor.pre_process()
    tables = executor.tables
    first = _JOIN_ORDER[0]
    result = RowIdRelation.from_base(first, positions[first])
    for alias, equi, residual in executor.join_steps(_JOIN_ORDER):
        result = join_step(result, alias, tables[alias], positions[alias],
                           equi, residual, tables, meter)
    return result


def _assert_equivalent(reference, vectorized, reference_work, vectorized_work, label):
    if vectorized.aliases != reference.aliases:
        raise AssertionError(f"{label}: alias sets diverge")
    for alias in reference.aliases:
        if not np.array_equal(vectorized.ids(alias), reference.ids(alias)):
            raise AssertionError(f"{label}: row ids of {alias!r} diverge")
    if vectorized_work != reference_work:
        raise AssertionError(f"{label}: meter charges diverge")


#: Invocations of the ``batch_reuse`` series, and after how many of them each
#: build side's suffix moves on (a completed batch of that table).
_BATCH_INVOCATIONS = 10
_SUFFIX_ADVANCES_EVERY = {"t1": 2, "t2": 5}


@contextmanager
def _counting_groupings() -> Iterator[list[int]]:
    """``[n]``: the :class:`GroupedJoinMap` constructions inside the block
    (a suffix view is not one: it groups nothing)."""
    count = [0]
    real = GroupedJoinMap.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        real(self, *args, **kwargs)

    GroupedJoinMap.__init__ = counted
    try:
        yield count
    finally:
        GroupedJoinMap.__init__ = real


def _batch_reuse(make_catalog: Callable[[], Catalog], query: Query) -> list[dict[str, Any]]:
    """One kept executor vs a fresh one per invocation, over shrinking suffixes."""
    catalogs = {"kept": make_catalog(), "fresh": make_catalog()}
    kept = PlanExecutor(catalogs["kept"], query)
    filtered = kept.pre_process(CostMeter())
    left = _JOIN_ORDER[0]
    # The pieces ``np.array_split`` would cut, as Skinner-G cuts its batches.
    size, larger = divmod(filtered[left].shape[0], _BATCH_INVOCATIONS)
    edges = [index * size + min(index, larger) for index in range(_BATCH_INVOCATIONS + 1)]
    walls = {"kept": 0.0, "fresh": 0.0}
    groupings = {"kept": 0, "fresh": 0}
    work_units = 0
    for invocation in range(_BATCH_INVOCATIONS):
        batch = (edges[invocation], edges[invocation + 1])
        lower = {alias: (invocation // every) * filtered[alias].shape[0] // _BATCH_INVOCATIONS
                 for alias, every in _SUFFIX_ADVANCES_EVERY.items()}
        fresh = PlanExecutor(catalogs["fresh"], query)
        fresh.pre_process(CostMeter())
        outcomes = {}
        for label, executor in (("kept", kept), ("fresh", fresh)):
            meter = CostMeter()
            with _counting_groupings() as grouped:
                started = time.perf_counter()
                relation = executor.execute_order(_JOIN_ORDER, meter, batch, lower)
                walls[label] += time.perf_counter() - started
            groupings[label] += grouped[0]
            outcomes[label] = (relation, meter.snapshot())
        _assert_equivalent(outcomes["fresh"][0], outcomes["kept"][0], outcomes["fresh"][1],
                           outcomes["kept"][1],
                           f"batch_reuse invocation {invocation}, fresh vs kept executor")
        work_units += outcomes["kept"][1].total
    return [
        {
            "Executor": name,
            "Invocations": _BATCH_INVOCATIONS,
            "Groupings": groupings[label],
            "Wall (ms)": round(walls[label] * 1e3, 2),
            "Work Units": work_units,
        }
        for label, name in (("kept", "kept across invocations"), ("fresh", "fresh per invocation"))
    ]


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
                           work["rows"], work["vectorized"], f"{name}, rows vs vectorized")
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
        "batch_reuse": _batch_reuse(
            lambda: _build_catalog(tuples_per_table, fanout, seed), _queries()["chain_fanout"]
        ),
        "parameters": {"tuples_per_table": tuples_per_table, "fanout": fanout,
                       "seed": seed, "repetitions": repetitions},
    }
