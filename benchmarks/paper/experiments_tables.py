"""Experiment drivers for the paper's tables (Tables 1-7)."""

from __future__ import annotations

import dataclasses
import time
from typing import Any

from repro.baselines.traditional import TraditionalEngine
from repro.skinner.skinner_c import SkinnerC
from repro.workloads.job import make_job_workload
from repro.workloads.tpch import make_tpch_workload

from .harness import run_workload
from .metrics import QueryRecord, aggregate_records, relative_overheads
from .oracle import optimal_plan
from .specs import (
    BENCH_CONFIG,
    job_multi_threaded_specs,
    job_single_threaded_specs,
    skinner_c_spec,
    skinner_g_spec,
    skinner_h_spec,
    traditional_spec,
)


def table1(scale: float = 0.6, seed: int = 13) -> dict[str, Any]:
    """Table 1: join order benchmark, single-threaded.

    Compares Skinner-C, Postgres, MonetDB, and Skinner-G/H on both systems
    by total/maximum time and total/maximum intermediate-result cardinality.
    """
    workload = make_job_workload(scale=scale, seed=seed)
    records = run_workload(job_single_threaded_specs(), workload)
    rows = [summary.as_row() for summary in aggregate_records(records)]
    return {
        "title": "Table 1: Join order benchmark, single-threaded",
        "rows": rows,
        "records": records,
        "parameters": {"scale": scale, "seed": seed},
    }


def table2(
    scale: float = 0.6, seed: int = 13, threads: int = 8, workers: int = 1
) -> dict[str, Any]:
    """Table 2: join order benchmark, multi-threaded.

    ``workers > 1`` additionally runs Skinner-C morsel-parallel over that
    many worker processes and reports the measured single-process versus
    parallel wall-clock under ``output["parallel"]`` (rows and charges are
    byte-identical by design, so only wall time is interesting).
    """
    workload = make_job_workload(scale=scale, seed=seed)
    records = run_workload(
        job_multi_threaded_specs(threads, workers=workers), workload
    )
    rows = [summary.as_row() for summary in aggregate_records(records)]
    return {
        "title": f"Table 2: Join order benchmark, multi-threaded ({threads} threads)",
        "rows": rows,
        "records": records,
        "parallel": _parallel_wall_clock(workload, workers),
        "parameters": {
            "scale": scale, "seed": seed, "threads": threads, "workers": workers,
        },
    }


def _parallel_wall_clock(
    workload: Any, workers: int, query_names: list[str] | None = None
) -> dict[str, Any] | None:
    """A/B wall-clock of Skinner-C: single-process versus morsel-parallel.

    Runs the workload's queries twice on directly constructed engines and
    measures real elapsed time — the simulated-time records above model the
    paper's hardware, while this measures what the worker pool actually
    buys on the machine at hand.  Returns ``None`` when ``workers <= 1``.
    """
    if workers <= 1:
        return None
    from repro.skinner.parallel import shutdown_workers

    queries = workload.queries
    if query_names is not None:
        wanted = set(query_names)
        queries = [q for q in queries if q.name in wanted]
    walls: dict[str, float] = {}
    variants = (
        ("single", BENCH_CONFIG),
        ("parallel", BENCH_CONFIG.with_overrides(parallel_workers=workers)),
    )
    for label, config in variants:
        engine = SkinnerC(workload.catalog, workload.udfs, config)
        started = time.perf_counter()
        for workload_query in queries:
            engine.execute(workload_query.query)
        walls[label] = time.perf_counter() - started
    shutdown_workers()
    return {
        "workers": workers,
        "single_wall_seconds": round(walls["single"], 3),
        "parallel_wall_seconds": round(walls["parallel"], 3),
        "speedup": round(walls["single"] / max(walls["parallel"], 1e-9), 3),
    }


def _order_quality_records(
    scale: float,
    seed: int,
    threads: int,
    max_tables_for_optimal: int,
    query_names: list[str] | None,
    workers: int = 1,
) -> list[QueryRecord]:
    """Shared driver for Tables 3 and 4: cross-executing join orders.

    ``threads`` re-weights every record for that many modelled cores; a
    forced order on the Skinner engine spreads nothing and stays as run.
    """
    workload = make_job_workload(scale=scale, seed=seed)
    queries = workload.queries
    if query_names is not None:
        wanted = set(query_names)
        queries = [q for q in queries if q.name in wanted]

    skinner_config = BENCH_CONFIG if workers <= 1 else BENCH_CONFIG.with_overrides(
        parallel_workers=workers
    )
    skinner = SkinnerC(workload.catalog, workload.udfs, skinner_config)
    traditional = TraditionalEngine(workload.catalog, workload.udfs)
    # Postgres and MonetDB run the same optimizer and executor; only the
    # profile their work is weighted with differs.
    systems = {"Postgres": "postgres", "MonetDB": "monetdb"}
    records: list[QueryRecord] = []

    def record(label: str, query_name: str, result: Any, profile: str) -> None:
        records.append(QueryRecord.from_metrics(
            label, query_name, result.metrics, profile=profile, threads=threads))

    for workload_query in queries:
        query = workload_query.query
        learned = skinner.execute(query)
        record("Skinner/Skinner", workload_query.name, learned, "skinner")
        skinner_order = learned.metrics.final_join_order
        optimal_order = None
        if query.num_tables <= max_tables_for_optimal:
            optimal_order = optimal_plan(workload.catalog, query, workload.udfs).order
        if optimal_order is not None:
            forced = skinner.execute_with_order(query, optimal_order)
            record("Skinner/Optimal", workload_query.name, forced, "skinner")
        runs = {"Original": traditional.execute(query)}
        if skinner_order is not None:
            runs["Skinner"] = traditional.execute_with_order(query, skinner_order)
        if optimal_order is not None:
            runs["Optimal"] = traditional.execute_with_order(query, optimal_order)
        for system, profile in systems.items():
            for order, result in runs.items():
                record(f"{system}/{order}", workload_query.name, result, profile)
    return records


def _order_quality_rows(records: list[QueryRecord]) -> list[dict[str, Any]]:
    rows = []
    for summary in aggregate_records(records):
        engine, order = summary.engine.split("/", 1)
        rows.append({
            "Engine": engine,
            "Order": order,
            "Total Time": round(summary.total_time, 1),
            "Max Time": round(summary.max_time, 1),
        })
    return rows


def table3(
    scale: float = 0.5,
    seed: int = 13,
    *,
    max_tables_for_optimal: int = 6,
    query_names: list[str] | None = None,
) -> dict[str, Any]:
    """Table 3: join order quality across execution engines, single-threaded.

    Each engine executes (a) its own optimizer's order, (b) the order Skinner
    learned, and (c) the C_out-optimal order computed with true cardinalities.
    """
    records = _order_quality_records(scale, seed, 1, max_tables_for_optimal, query_names)
    return {
        "title": "Table 3: Join orders across engines, single-threaded",
        "rows": _order_quality_rows(records),
        "records": records,
        "parameters": {"scale": scale, "seed": seed},
    }


def table4(
    scale: float = 0.5,
    seed: int = 13,
    threads: int = 8,
    workers: int = 1,
    *,
    max_tables_for_optimal: int = 6,
    query_names: list[str] | None = None,
) -> dict[str, Any]:
    """Table 4: join order quality across execution engines, multi-threaded.

    ``workers > 1`` runs the learning Skinner-C passes morsel-parallel and
    reports the measured A/B wall-clock under ``output["parallel"]``; the
    learned orders — and therefore every forced-order baseline row — are
    unchanged because parallel execution is byte-identical by design.
    """
    records = _order_quality_records(
        scale, seed, threads, max_tables_for_optimal, query_names, workers
    )
    records = [r for r in records if r.engine.startswith(("Skinner", "MonetDB"))]
    workload = make_job_workload(scale=scale, seed=seed)
    return {
        "title": f"Table 4: Join orders across engines, multi-threaded ({threads} threads)",
        "rows": _order_quality_rows(records),
        "records": records,
        "parallel": _parallel_wall_clock(workload, workers, query_names),
        "parameters": {
            "scale": scale, "seed": seed, "threads": threads, "workers": workers,
        },
    }


def table5(scale: float = 0.5, seed: int = 13) -> dict[str, Any]:
    """Table 5: learned versus randomized join-order selection."""
    workload = make_job_workload(scale=scale, seed=seed)
    specs = [
        skinner_c_spec("Skinner-C / Original"),
        skinner_c_spec("Skinner-C / Random", random_orders=True),
        skinner_h_spec("S-H(PG) / Original", "postgres"),
        skinner_h_spec("S-H(PG) / Random", "postgres", random_orders=True),
        skinner_h_spec("S-H(MDB) / Original", "monetdb"),
        skinner_h_spec("S-H(MDB) / Random", "monetdb", random_orders=True),
    ]
    records = run_workload(specs, workload)
    rows = []
    for summary in aggregate_records(records):
        engine, optimizer = summary.engine.split(" / ", 1)
        rows.append({
            "Engine": engine,
            "Optimizer": optimizer,
            "Time": round(summary.total_time, 1),
            "Max Time": round(summary.max_time, 1),
        })
    return {
        "title": "Table 5: Reinforcement learning versus randomization",
        "rows": rows,
        "records": records,
        "parameters": {"scale": scale, "seed": seed},
    }


def table6(scale: float = 0.5, seed: int = 13, threads: int = 8) -> dict[str, Any]:
    """Table 6: impact of SkinnerDB features (indexes, parallelism, learning)."""
    workload = make_job_workload(scale=scale, seed=seed)
    specs = [
        (skinner_c_spec("indexes, parallelization, learning"), threads),
        (skinner_c_spec("parallelization, learning", join_maps=False), threads),
        (skinner_c_spec("learning", join_maps=False), 1),
        (skinner_c_spec("none", random_orders=True, join_maps=False), 1),
    ]
    records: list[QueryRecord] = []
    for spec, spec_threads in specs:
        records.extend(run_workload([dataclasses.replace(spec, threads=spec_threads)], workload))
    rows = [{
        "Enabled Features": summary.engine,
        "Total Time": round(summary.total_time, 1),
        "Max Time": round(summary.max_time, 1),
    } for summary in aggregate_records(records)]
    return {
        "title": "Table 6: Impact of SkinnerDB features",
        "rows": rows,
        "records": records,
        "parameters": {"scale": scale, "seed": seed, "threads": threads},
    }


def table7(scale: float = 0.6, seed: int = 29) -> dict[str, Any]:
    """Table 7: TPC-H and TPC-H-with-UDFs summary."""
    specs = [
        skinner_c_spec("Skinner-C"),
        traditional_spec("Postgres", "postgres"),
        skinner_g_spec("S-G(Postgres)", "postgres"),
        skinner_h_spec("S-H(Postgres)", "postgres"),
        traditional_spec("MonetDB", "monetdb"),
    ]
    rows: list[dict[str, Any]] = []
    all_records: list[QueryRecord] = []
    for variant, label in (("standard", "TPC-H"), ("udf", "TPC-UDF")):
        workload = make_tpch_workload(scale=scale, seed=seed, variant=variant)
        records = run_workload(specs, workload)
        all_records.extend(records)
        overheads = relative_overheads(records)
        for summary in aggregate_records(records):
            rows.append({
                "Scenario": label,
                "Approach": summary.engine,
                "Time": round(summary.total_time, 1),
                "Max. Rel.": round(overheads.get(summary.engine, 1.0), 1),
            })
    return {
        "title": "Table 7: TPC-H variants summary",
        "rows": rows,
        "records": all_records,
        "parameters": {"scale": scale, "seed": seed},
    }
