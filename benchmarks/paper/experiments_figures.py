"""Experiment drivers for the paper's figures (Figures 6-13)."""

from __future__ import annotations

from typing import Any

from repro.skinner.skinner_c import SkinnerC
from repro.workloads.job import make_job_workload
from repro.workloads.torture import (
    make_correlation_torture,
    make_trivial_workload,
    make_udf_torture,
)
from repro.workloads.tpch import make_tpch_workload

from .harness import run_workload
from .metrics import (
    QueryRecord,
    count_failures_and_disasters,
    per_query_speedups,
    time_share_of_top_queries,
)
from .specs import (
    BENCH_CONFIG,
    skinner_c_spec,
    skinner_g_spec,
    skinner_h_spec,
    torture_specs,
    traditional_spec,
)

#: Default per-query work budget ("timeout") for the torture benchmarks.
TORTURE_BUDGET = 120_000


def figure6(scale: float = 0.6, seed: int = 13) -> dict[str, Any]:
    """Figure 6: where SkinnerDB's speedups over MonetDB come from.

    Panel (a): cumulative share of total time spent in the top-k most
    expensive queries per system.  Panel (b): per-query speedup of Skinner-C
    over MonetDB, paired with MonetDB's time for that query.
    """
    workload = make_job_workload(scale=scale, seed=seed)
    specs = [skinner_c_spec("Skinner-C"), traditional_spec("MonetDB", "monetdb")]
    records = run_workload(specs, workload)
    monetdb_times = {
        r.query: r.simulated_time for r in records if r.engine == "MonetDB"
    }
    speedups = per_query_speedups(records, baseline="MonetDB", subject="Skinner-C")
    scatter = sorted(
        ({"query": name, "monetdb_time": monetdb_times[name], "speedup": round(value, 3)}
         for name, value in speedups.items()),
        key=lambda row: row["monetdb_time"],
    )
    return {
        "title": "Figure 6: Source of speedups versus MonetDB",
        "series": {
            "skinner_top_query_time_share": [
                round(v, 3) for v in time_share_of_top_queries(records, "Skinner-C")
            ],
            "monetdb_top_query_time_share": [
                round(v, 3) for v in time_share_of_top_queries(records, "MonetDB")
            ],
        },
        "scatter": scatter,
        "records": records,
        "parameters": {"scale": scale, "seed": seed},
    }


def figure7(
    scale: float = 0.6,
    seed: int = 13,
    query_name: str = "job_q14",
    budgets: tuple[int, ...] = (10, 100),
) -> dict[str, Any]:
    """Figure 7: convergence of Skinner-C to optimal join orders.

    Panel (a): growth of the UCT search tree over (normalized) execution
    time.  Panel (b): share of time slices spent in the top-k join orders for
    small and large time-slice budgets.
    """
    workload = make_job_workload(scale=scale, seed=seed)
    query = workload.query(query_name).query

    trace_engine = SkinnerC(workload.catalog, workload.udfs, BENCH_CONFIG)
    traced = trace_engine.execute(query, trace=True)
    trace = traced.metrics.extra["trace"]
    growth = [
        {"fraction_of_slices": round((i + 1) / len(trace), 3), "uct_nodes": entry["uct_nodes"]}
        for i, entry in enumerate(trace)
    ]

    top_order_shares: dict[str, list[float]] = {}
    for budget in budgets:
        config = BENCH_CONFIG.with_overrides(slice_budget=budget)
        engine = SkinnerC(workload.catalog, workload.udfs, config)
        result = engine.execute(query)
        slices = max(1, result.metrics.time_slices)
        top_orders = result.metrics.extra["top_orders"]
        shares = []
        cumulative = 0
        for _, count in top_orders[:5]:
            cumulative += count
            shares.append(round(cumulative / slices, 3))
        top_order_shares[f"budget_{budget}"] = shares
    return {
        "title": "Figure 7: Convergence of Skinner-C",
        "series": {"uct_tree_growth": [entry["uct_nodes"] for entry in growth],
                   **top_order_shares},
        "growth": growth,
        "records": [QueryRecord.from_metrics("Skinner-C", query_name, traced.metrics)],
        "parameters": {"scale": scale, "seed": seed, "query": query_name,
                       "budgets": list(budgets)},
    }


def figure8(scale: float = 0.6, seed: int = 13) -> dict[str, Any]:
    """Figure 8: memory consumption of Skinner-C by query size."""
    workload = make_job_workload(scale=scale, seed=seed)
    engine = SkinnerC(workload.catalog, workload.udfs, BENCH_CONFIG)
    rows: list[dict[str, Any]] = []
    records: list[QueryRecord] = []
    for workload_query in workload.queries:
        result = engine.execute(workload_query.query)
        metrics = result.metrics
        records.append(QueryRecord.from_metrics("Skinner-C", workload_query.name, metrics))
        total_bytes = (
            metrics.extra["result_bytes"]
            + metrics.extra["tracker_bytes"]
            + metrics.extra["uct_bytes"]
        )
        rows.append({
            "query": workload_query.name,
            "joined_tables": workload_query.query.num_tables,
            "uct_nodes": metrics.uct_nodes,
            "tracker_nodes": metrics.tracker_nodes,
            "result_tuples": metrics.result_tuple_count,
            "total_bytes": total_bytes,
        })
    rows.sort(key=lambda row: (row["joined_tables"], row["query"]))
    return {
        "title": "Figure 8: Memory consumption of Skinner-C",
        "rows": rows,
        "records": records,
        "parameters": {"scale": scale, "seed": seed},
    }


def _torture_sweep(
    workload_factory,
    table_counts: tuple[int, ...],
    budget: int,
    label: str,
    **factory_kwargs,
) -> dict[str, Any]:
    """Shared sweep driver for Figures 9, 10, and 12."""
    specs = torture_specs()
    series: dict[str, list[float]] = {spec.name: [] for spec in specs}
    all_records: list[QueryRecord] = []
    for num_tables in table_counts:
        workload = workload_factory(num_tables, **factory_kwargs)
        records = run_workload(specs, workload, work_budget=budget)
        all_records.extend(records)
        per_engine = {r.engine: r.simulated_time for r in records}
        for spec in specs:
            series[spec.name].append(round(per_engine.get(spec.name, float("nan")), 1))
    return {
        "title": label,
        "series": {"num_tables": list(table_counts), **series},
        "records": all_records,
        "parameters": {"table_counts": list(table_counts), "budget": budget,
                       **factory_kwargs},
    }


def figure9(
    table_counts: tuple[int, ...] = (4, 6, 8),
    tuples_per_table: int = 60,
    budget: int = TORTURE_BUDGET,
) -> dict[str, Any]:
    """Figure 9: UDF Torture benchmark (chain and star queries)."""
    chain = _torture_sweep(
        lambda n, **kw: make_udf_torture(n, shape="chain", **kw),
        table_counts, budget,
        "Figure 9 (chain): UDF torture",
        tuples_per_table=tuples_per_table,
    )
    star = _torture_sweep(
        lambda n, **kw: make_udf_torture(n, shape="star", **kw),
        table_counts, budget,
        "Figure 9 (star): UDF torture",
        tuples_per_table=tuples_per_table,
    )
    return {
        "title": "Figure 9: UDF Torture benchmark",
        "chain": chain,
        "star": star,
        "records": chain["records"] + star["records"],
        "parameters": {"table_counts": list(table_counts),
                       "tuples_per_table": tuples_per_table, "budget": budget},
    }


def figure10(
    table_counts: tuple[int, ...] = (4, 6, 8),
    tuples_per_table: int = 150,
    budget: int = TORTURE_BUDGET,
) -> dict[str, Any]:
    """Figure 10: Correlation Torture benchmark (m=1 and m=n/2)."""
    head = _torture_sweep(
        lambda n, **kw: make_correlation_torture(n, good_position=1, **kw),
        table_counts, budget,
        "Figure 10 (m=1): correlation torture",
        tuples_per_table=tuples_per_table,
    )
    middle = _torture_sweep(
        lambda n, **kw: make_correlation_torture(n, good_position=max(1, n // 2), **kw),
        table_counts, budget,
        "Figure 10 (m=n/2): correlation torture",
        tuples_per_table=tuples_per_table,
    )
    return {
        "title": "Figure 10: Correlation Torture benchmark",
        "m1": head,
        "m_half": middle,
        "records": head["records"] + middle["records"],
        "parameters": {"table_counts": list(table_counts),
                       "tuples_per_table": tuples_per_table, "budget": budget},
    }


def figure11(
    table_counts: tuple[int, ...] = (4, 5, 6, 7),
    tuples_per_table: int = 400,
    fanout: int = 20,
    budget: int = 60_000,
) -> dict[str, Any]:
    """Figure 11: optimizer failures and disasters on correlation torture.

    Restricted (like the paper) to the baselines sharing Skinner's execution
    engine: Skinner-C, Eddy, the traditional optimizer, and the re-optimizer.
    """
    from .specs import eddy_spec, optimizer_spec, reoptimizer_spec

    specs = [skinner_c_spec("Skinner"), eddy_spec("Eddy"),
             optimizer_spec("Optimizer"), reoptimizer_spec("Reoptimizer")]
    all_records: list[QueryRecord] = []
    for num_tables in table_counts:
        for good_position in (1, max(1, num_tables // 2), num_tables):
            workload = make_correlation_torture(
                num_tables, tuples_per_table, good_position=good_position, fanout=fanout,
            )
            all_records.extend(run_workload(specs, workload, work_budget=budget))
    by_time = count_failures_and_disasters(all_records, metric="time")
    by_evaluations = count_failures_and_disasters(all_records, metric="evaluations")
    rows = []
    for engine in sorted({r.engine for r in all_records}):
        rows.append({
            "Approach": engine,
            "Failures (time)": by_time.get(engine, {}).get("failures", 0),
            "Disasters (time)": by_time.get(engine, {}).get("disasters", 0),
            "Failures (evals)": by_evaluations.get(engine, {}).get("failures", 0),
            "Disasters (evals)": by_evaluations.get(engine, {}).get("disasters", 0),
        })
    return {
        "title": "Figure 11: Optimizer failures and disasters",
        "rows": rows,
        "records": all_records,
        "parameters": {"table_counts": list(table_counts),
                       "tuples_per_table": tuples_per_table, "budget": budget},
    }


def figure12(
    table_counts: tuple[int, ...] = (4, 6, 8),
    tuples_per_table: int = 200,
    budget: int = TORTURE_BUDGET,
) -> dict[str, Any]:
    """Figure 12: the Trivial Optimization benchmark (all plans equivalent)."""
    return {
        **_torture_sweep(
            make_trivial_workload,
            table_counts, budget,
            "Figure 12: Trivial optimization benchmark",
            tuples_per_table=tuples_per_table,
        ),
        "title": "Figure 12: Trivial optimization benchmark",
    }


def figure13(scale: float = 0.6, seed: int = 29) -> dict[str, Any]:
    """Figure 13: per-query times on TPC-H and TPC-H with UDF predicates."""
    specs = [
        skinner_c_spec("Skinner-C"),
        traditional_spec("Postgres", "postgres"),
        skinner_g_spec("S-G(Postgres)", "postgres"),
        skinner_h_spec("S-H(Postgres)", "postgres"),
        traditional_spec("MonetDB", "monetdb"),
    ]
    output: dict[str, Any] = {
        "title": "Figure 13: TPC-H per-query times",
        "parameters": {"scale": scale, "seed": seed},
        "records": [],
    }
    for variant, label in (("standard", "standard"), ("udf", "udf")):
        workload = make_tpch_workload(scale=scale, seed=seed, variant=variant)
        records = run_workload(specs, workload)
        output["records"].extend(records)
        per_query: dict[str, dict[str, float]] = {}
        for record in records:
            per_query.setdefault(record.query, {})[record.engine] = round(
                record.simulated_time, 1
            )
        output[label] = [
            {"query": name, **times} for name, times in sorted(per_query.items())
        ]
    return output
