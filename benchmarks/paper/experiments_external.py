"""Skinner-G on an external DBMS vs the host optimizer's own plan.

The claim behind Skinner-G (paper §3, Table 1): a learned join order forced
onto an existing database can beat the plan that database's optimizer
picks, because the optimizer trusts cardinality estimates the data
violates.  This experiment builds the trap explicitly:

* ``t0`` is the fat end of a high-fanout join with ``t1``, dressed up with
  three wide range predicates (``a < 10**6 AND b < 10**6 AND c < 10**6``)
  that keep every row but *look* selective to an estimator that assumes
  independent, uniform filters;
* ``t2`` is the genuinely selective end — one modest-looking predicate
  keeps a single row — so every cheap plan starts there.

sqlite's planner (no ``ANALYZE``; the mirror is a scratch database) takes
the bait and drives the join from ``t0``; ``skinner_g_sqlite`` learns the
``t2``-first order from batch completions alone.  Both plans then run to
completion on the same mirror and are priced on the adapter's
deterministic work clock (progress ticks + delivered rows), and the
experiment asserts the learned order is strictly cheaper.  Rows are
cross-checked byte-identical between the external engine, the internal
Skinner-G, and both forced full-query plans.
"""

from __future__ import annotations

import time
from typing import Any

from repro.api.connection import connect
from repro.config import SkinnerConfig
from repro.external.emitter import SqlEmitter
from repro.external.engines import sqlite_adapter_for

from .metrics import modelled_time

#: Small batch budget so fat-end batches overrun low pyramid levels while
#: ``t2``-first batches complete — that contrast *is* the learning signal.
_BENCH_CONFIG = SkinnerConfig(
    batches_per_table=5,
    base_timeout=80,
    serving_warm_start=False,
    seed=42,
)

_SQL = (
    "SELECT t0.a, t2.v2 FROM t0, t1, t2 "
    "WHERE t0.k1 = t1.k1 AND t1.k2 = t2.k2 "
    "AND t0.a < 1000000 AND t0.b < 1000000 AND t0.c < 1000000 "
    "AND t2.v2 < 1"
)


def _build_tables(connection, tuples_per_table: int) -> None:
    """The fanout trap: t0 x30 t1 (fat), t1 -> t2 (one surviving row)."""
    n = tuples_per_table
    keys = max(2, n // 30)
    m = max(4, n // 4)
    connection.create_table("t0", {
        "k1": [i % keys for i in range(n)],
        "a": list(range(n)),
        "b": list(range(n)),
        "c": list(range(n)),
    }, replace=True)
    connection.create_table("t1", {
        "k1": [i % keys for i in range(n)],
        "k2": list(range(n)),
    }, replace=True)
    connection.create_table("t2", {
        "k2": [i * 2 for i in range(m)],
        "v2": list(range(m)),
    }, replace=True)
    connection.commit()


def _result_rows(result) -> list[tuple]:
    return sorted(tuple(row.values()) for row in result.rows)


def external_sqlite(tuples_per_table: int = 400) -> dict[str, Any]:
    """Learned-order-on-sqlite vs sqlite's default plan on the trap workload."""
    connection = connect(_BENCH_CONFIG)
    try:
        _build_tables(connection, tuples_per_table)
        query = connection.parse(_SQL)

        started = time.perf_counter()
        external = connection.execute_direct(query, engine="skinner_g_sqlite")
        external_wall = time.perf_counter() - started
        internal = connection.execute_direct(query, engine="skinner-g")
        if _result_rows(external) != _result_rows(internal):
            raise AssertionError("external and internal Skinner-G rows differ")

        learned_order = external.metrics.final_join_order
        adapter = sqlite_adapter_for(connection.catalog)
        emitter = SqlEmitter(connection.catalog, query)

        def plan_cost(order):
            """Full-query cost of one plan on the deterministic work clock."""
            sql, params = emitter.join_sql(order)
            outcome = adapter.run_batch(sql, params, budget=None)
            return outcome.ticks + outcome.delivered, outcome

        learned_cost, learned_outcome = plan_cost(learned_order)
        default_cost, default_outcome = plan_cost(None)
        if sorted(learned_outcome.rows) != sorted(default_outcome.rows):
            raise AssertionError("forced and default plans returned different tuples")

        speedup = default_cost / max(1, learned_cost)
        if speedup <= 1.0:
            raise AssertionError(
                f"learned order {learned_order} (cost {learned_cost}) does not "
                f"beat sqlite's default plan (cost {default_cost})"
            )

        records = [
            {
                "engine": "skinner_g_sqlite",
                "simulated_time": modelled_time(external.metrics, "postgres"),
                "work": external.metrics.work,
                "result_rows": len(external.rows),
                "wall_time_seconds": external_wall,
            },
            {
                "engine": "skinner-g",
                "simulated_time": modelled_time(internal.metrics, "postgres"),
                "work": internal.metrics.work,
                "result_rows": len(internal.rows),
            },
        ]
        rows = [
            {"plan": "learned " + "-".join(learned_order), "cost": learned_cost},
            {"plan": "sqlite default", "cost": default_cost},
        ]
        return {
            "title": "Skinner-G learned order vs sqlite's default plan",
            "rows": rows,
            "records": records,
            "learned_order": list(learned_order),
            "learned_cost": learned_cost,
            "default_cost": default_cost,
            "speedup_learned_vs_default": round(speedup, 3),
            "parameters": {
                "tuples_per_table": tuples_per_table,
                "base_timeout": _BENCH_CONFIG.base_timeout,
                "batches_per_table": _BENCH_CONFIG.batches_per_table,
            },
        }
    finally:
        connection.close()
