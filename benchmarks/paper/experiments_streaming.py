"""Streaming-cursor benchmark: time-to-first-batch vs completion delivery.

Before the PEP 249 API, results were only handed back after a query fully
completed, so a client's time-to-first-row equaled the completion time.  A
streaming cursor pulls completed result batches out of the episode tasks as
they materialize; this experiment measures, on the deterministic work-unit
clock, when the first batch becomes fetchable versus when the query
completes — the gap is exactly what completion-time delivery wastes.

Every run cross-checks the streamed rows against ``execute_direct`` (same
multiset of rows) and the meter charges (streaming must not change what a
query is charged); the benchmark asserts the first batch arrives *strictly*
before completion for every streamed query.
"""

from __future__ import annotations

from typing import Any

from repro.api.connection import Connection, connect
from repro.config import SkinnerConfig
from repro.storage.table import Table
from repro.workloads.generators import make_rng, uniform_keys

from .metrics import modelled_time

#: Modest slices so even smoke-sized runs take several episodes per query —
#: otherwise "streaming" degenerates to a single episode; warm start off so
#: runs are independent of submission order.
_BENCH_CONFIG = SkinnerConfig(slice_budget=200, serving_warm_start=False)


def _build_connection(tuples_per_table: int, seed: int) -> Connection:
    """Three join tables with ~6x key fan-out.

    The fan-out makes the join phase dominate pre-processing, which is the
    regime where streaming pays: for a query whose join is cheap relative
    to filtering/hash builds, rows only exist near completion anyway.
    """
    rng = make_rng(seed)
    connection = connect(_BENCH_CONFIG, autocommit=True)
    num_keys = max(1, tuples_per_table // 6)
    for name in ("a", "b", "c"):
        connection.add_table(Table(name, {
            "k": uniform_keys(rng, tuples_per_table, num_keys),
            "v": uniform_keys(rng, tuples_per_table, 100),
        }))
    return connection


def _workload() -> list[tuple[str, str]]:
    return [
        ("q0_2way_selective",
         "SELECT a.v, b.v FROM a, b WHERE a.k = b.k AND a.v < 30"),
        ("q1_2way_broad",
         "SELECT a.v, b.v FROM a, b WHERE a.k = b.k AND a.v < 60"),
        ("q2_3way_chain",
         "SELECT a.v, c.v FROM a, b, c WHERE a.k = b.k AND b.k = c.k AND a.v < 10"),
    ]


def streaming_cursor(tuples_per_table: int = 3_000, seed: int = 23) -> dict[str, Any]:
    """Cursor streaming vs completion-time delivery on the work-unit clock."""
    connection = _build_connection(tuples_per_table, seed)
    rows: list[dict[str, Any]] = []
    records: list[dict[str, Any]] = []
    speedups: list[float] = []

    for name, sql in _workload():
        # The ledger clock is shared by all queries on the connection; the
        # reading at submission is this query's zero point.
        base = connection.server.ledger.grand_total()
        cursor = connection.cursor()
        cursor.execute(sql, use_result_cache=False)
        streamed = list(cursor.fetchmany(32))
        session = connection.server.session(cursor.ticket)
        # The acceptance check: the first batch was fetched while the query
        # was still running (completion had no work-clock reading yet).
        preempted = bool(streamed) and session.completed_at_work is None
        streamed.extend(cursor.fetchall())
        assert session.completed_at_work is not None, name
        first_at = (
            session.stream.first_rows_at_work - base
            if session.stream.first_rows_at_work is not None
            else None
        )
        completed_at = session.completed_at_work - base

        # -- correctness: streamed rows and charges match the direct path.
        direct = connection.execute_direct(sql)
        names = direct.table.column_names
        reference = sorted(
            tuple(row[column] for column in names) for row in direct.rows
        )
        if sorted(streamed) != reference:
            raise AssertionError(f"{name}: streamed rows diverge from execute()")
        served_work = cursor.result().metrics.work
        if served_work != direct.metrics.work:
            raise AssertionError(f"{name}: streaming changed the meter charges")
        if streamed:
            # Even when a smoke-sized query finishes within its first
            # scheduling grant, the work clock must order the first batch
            # strictly before completion (finalization charges after it).
            assert first_at is not None and first_at < completed_at, name
        else:
            first_at = completed_at  # empty result: nothing to stream

        speedup = completed_at / max(1, first_at)
        speedups.append(speedup)
        rows.append({
            "Query": name,
            "Rows": len(streamed),
            "Work": direct.metrics.work.total,
            "First batch @": first_at,
            "Completed @": completed_at,
            "Preempted": preempted,
            "TTFB Gain": round(speedup, 2),
        })
        records.append({
            "query": name,
            "result_rows": len(streamed),
            "simulated_time": modelled_time(direct.metrics, "skinner"),
            "first_batch_work": first_at,
            "completion_work": completed_at,
            "preempted_completion": preempted,
        })
        cursor.close()

    return {
        "title": "Streaming cursor: time-to-first-batch vs completion delivery",
        "rows": rows,
        "records": records,
        "all_preempted_completion": all(r["preempted_completion"] for r in records),
        "min_ttfb_speedup": round(min(speedups), 2),
        "mean_ttfb_speedup": round(sum(speedups) / len(speedups), 2),
        "parameters": {"tuples_per_table": tuples_per_table, "seed": seed},
    }
