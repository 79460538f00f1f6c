"""Concurrent-serving benchmark: episode-sliced scheduler vs FIFO execution.

Two measurements on the deterministic work-unit clock (no wall-clock noise):

* **Time-to-first-result under head-of-line blocking.**  A mixed 8-query
  workload — one expensive 3-way join submitted first, then seven cheap
  queries across Skinner-C/G/H — is executed (a) FIFO one-at-a-time, the
  only mode the repository supported before the serving subsystem, and (b)
  through the :class:`~repro.serving.server.QueryServer`'s fair episode
  scheduler.  A query's time-to-first-result (TTFR) is the shared virtual
  clock (total work units consumed by the whole workload) at the moment the
  query completes.  FIFO makes every cheap query wait for the expensive
  one; the episode scheduler interleaves, so the cheap queries finish
  almost as if the heavy one did not exist.  Reported is the p95 TTFR
  (nearest-lower-rank percentile over the 8 queries).  Every run
  cross-checks that the served results are **byte-identical** to the solo
  runs — same tables, same per-query meter charges — so the speedup is
  never bought with divergent answers.

* **Warm-starting from the join-order cache.**  A repeated-template
  workload (same join graph, different unary predicates) runs through two
  servers: one with ``serving_warm_start`` off, one seeding each query's
  UCT tree from the orders its predecessors learned.  Reported is the
  total-makespan ratio (warm / cold, lower is better).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.config import SkinnerConfig
from repro.query.parser import parse_query
from repro.serving.server import QueryServer
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.skinner_h import SkinnerH
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import make_rng, uniform_keys

#: Serving configuration of the benchmark: defaults, warm start disabled so
#: the mixed-workload comparison is exactly solo-equivalent.
_BENCH_CONFIG = SkinnerConfig(serving_warm_start=False, serving_max_inflight=8)


def _build_catalog(tuples_per_table: int, seed: int) -> Catalog:
    """Big chain-joinable tables, a small dimension table, and a 6-chain.

    ``big0..big2`` (``~3x`` join fan-out) power the expensive analytics
    query of the mixed workload; ``dim`` powers the cheap lookups; and the
    six ``c0..c5`` chain tables power the repeated-template warm-start
    workload (a join graph large enough that cold-start exploration costs
    real work).
    """
    rng = make_rng(seed)
    catalog = Catalog()
    num_keys = max(1, tuples_per_table // 3)  # ~3x fan-out per key
    for index in range(3):
        catalog.add_table(Table(f"big{index}", {
            "k": uniform_keys(rng, tuples_per_table, num_keys),
            "g": uniform_keys(rng, tuples_per_table, 8),
            "v": uniform_keys(rng, tuples_per_table, 1000),
        }))
    dim_rows = max(4, tuples_per_table // 20)
    catalog.add_table(Table("dim", {
        "g": uniform_keys(rng, dim_rows, 8),
        "name": [f"g{int(value) % 8}" for value in uniform_keys(rng, dim_rows, 8)],
    }))
    chain_rows = max(8, tuples_per_table // 10)
    chain_keys = max(1, chain_rows // 2)
    for index in range(6):
        catalog.add_table(Table(f"c{index}", {
            "k": uniform_keys(rng, chain_rows, chain_keys),
            "k2": uniform_keys(rng, chain_rows, chain_keys),
            "v": uniform_keys(rng, chain_rows, 1000),
        }))
    return catalog


def _workload() -> list[tuple[str, str, str]]:
    """The mixed 8-query workload: (name, engine, sql), heavy query first."""
    heavy = ("SELECT COUNT(*) AS n FROM big0 b0, big1 b1, big2 b2 "
             "WHERE b0.k = b1.k AND b1.k = b2.k")
    lights = [
        "SELECT d.g, COUNT(*) AS n FROM dim d GROUP BY d.g",
        "SELECT COUNT(*) AS n FROM big0 b0, dim d WHERE b0.g = d.g AND b0.v < 25",
        "SELECT b1.v FROM big1 b1 WHERE b1.v < 20 ORDER BY b1.v LIMIT 5",
        "SELECT COUNT(*) AS n FROM big1 b1, dim d WHERE b1.g = d.g AND b1.v < 15",
        "SELECT DISTINCT d.name FROM dim d",
    ]
    queries = [("q0_heavy_3way", "skinner-c", heavy)]
    queries += [(f"q{i + 1}_light", "skinner-c", sql) for i, sql in enumerate(lights)]
    queries.append((
        "q6_light_g", "skinner-g",
        "SELECT COUNT(*) AS n FROM big2 b2, dim d WHERE b2.g = d.g AND b2.v < 20",
    ))
    queries.append((
        "q7_light_h", "skinner-h",
        "SELECT COUNT(*) AS n FROM big2 b2 WHERE b2.v < 60",
    ))
    return queries


def _solo_result(catalog: Catalog, sql: str, engine: str, config: SkinnerConfig):
    query = parse_query(sql, catalog)
    if engine == "skinner-c":
        return SkinnerC(catalog, None, config).execute(query)
    if engine == "skinner-g":
        return SkinnerG(catalog, None, config).execute(query)
    return SkinnerH(catalog, None, config).execute(query)


def _assert_identical(name: str, solo, served) -> None:
    if solo.metrics.work != served.metrics.work:
        raise AssertionError(f"{name}: meter charges diverge between solo and served runs")
    solo_table, served_table = solo.table, served.table
    if solo_table.column_names != served_table.column_names:
        raise AssertionError(f"{name}: result schemas diverge")
    for column in solo_table.column_names:
        left, right = solo_table.column(column).values(), served_table.column(column).values()
        if left != right:
            raise AssertionError(f"{name}: result values of {column!r} diverge")


def _p95_lower(values: list[int]) -> float:
    """Nearest-lower-rank 95th percentile (deterministic, small-n friendly)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), 95, method="lower"))


def concurrent_serving(
    tuples_per_table: int = 3_000,
    seed: int = 17,
    template_queries: int = 6,
) -> dict[str, Any]:
    """Serving scheduler vs FIFO on TTFR, plus join-order warm-start gains."""
    catalog = _build_catalog(tuples_per_table, seed)
    config = _BENCH_CONFIG
    workload = _workload()

    # -- FIFO one-at-a-time: every query waits for all earlier submissions.
    solo_results: dict[str, Any] = {}
    fifo_ttfr: dict[str, int] = {}
    clock = 0
    fifo_started = time.perf_counter()
    for name, engine, sql in workload:
        result = _solo_result(catalog, sql, engine, config)
        solo_results[name] = result
        clock += result.metrics.work.total
        fifo_ttfr[name] = clock
    fifo_seconds = time.perf_counter() - fifo_started

    # -- Episode-sliced serving: all eight in flight, fair interleaving.
    server = QueryServer(catalog, config=config)
    served_started = time.perf_counter()
    tickets = {name: server.submit(sql, engine=engine, use_result_cache=False)
               for name, engine, sql in workload}
    server.drain()
    served_seconds = time.perf_counter() - served_started
    served_ttfr: dict[str, int] = {}
    rows: list[dict[str, Any]] = []
    records: list[dict[str, Any]] = []
    for name, engine, _sql in workload:
        served = server.result(tickets[name])
        _assert_identical(name, solo_results[name], served)
        ttfr = server.session(tickets[name]).completed_at_work
        assert ttfr is not None
        served_ttfr[name] = ttfr
        rows.append({
            "Query": name,
            "Engine": engine,
            "Work": solo_results[name].metrics.work.total,
            "FIFO TTFR": fifo_ttfr[name],
            "Served TTFR": ttfr,
            "TTFR Gain": round(fifo_ttfr[name] / max(1, ttfr), 2),
        })
        records.append({
            "query": name,
            "engine": engine,
            "simulated_time": solo_results[name].metrics.simulated_time,
            "result_rows": solo_results[name].metrics.result_rows,
        })

    fifo_p95 = _p95_lower(list(fifo_ttfr.values()))
    served_p95 = _p95_lower(list(served_ttfr.values()))
    p95_speedup = fifo_p95 / max(1.0, served_p95)

    # -- Warm start: repeated-template workload, cold vs seeded UCT trees.
    # Six chain tables: a join-order space with dozens of eligible orders,
    # so a cold UCT tree pays several episodes sampling bad orders before
    # it concentrates — exactly the episodes the seeded tree skips.
    joins = " AND ".join(f"c{i}.k = c{i + 1}.k2" for i in range(5))
    template = ("SELECT COUNT(*) AS n FROM c0, c1, c2, c3, c4, c5 "
                f"WHERE {joins} AND c0.v < {{threshold}}")
    thresholds = [60 + 10 * i for i in range(template_queries)]

    def template_makespan(warm: bool) -> int:
        cfg = config.with_overrides(serving_warm_start=warm)
        template_server = QueryServer(catalog, config=cfg)
        for threshold in thresholds:
            template_server.result(template_server.submit(
                template.format(threshold=threshold), use_result_cache=False))
        return template_server.ledger.grand_total()

    cold_makespan = template_makespan(warm=False)
    warm_makespan = template_makespan(warm=True)
    warm_ratio = warm_makespan / max(1, cold_makespan)

    rows.append({
        "Query": f"template x{template_queries} (cold)", "Engine": "skinner-c",
        "Work": cold_makespan, "FIFO TTFR": cold_makespan,
        "Served TTFR": cold_makespan, "TTFR Gain": 1.0,
    })
    rows.append({
        "Query": f"template x{template_queries} (warm)", "Engine": "skinner-c",
        "Work": warm_makespan, "FIFO TTFR": cold_makespan,
        "Served TTFR": warm_makespan,
        "TTFR Gain": round(cold_makespan / max(1, warm_makespan), 2),
    })

    return {
        "title": "Concurrent serving: episode-sliced scheduler vs FIFO",
        "rows": rows,
        "records": records,
        "fifo_p95_ttfr": fifo_p95,
        "served_p95_ttfr": served_p95,
        "p95_speedup": round(p95_speedup, 2),
        "cold_makespan": cold_makespan,
        "warm_makespan": warm_makespan,
        "warm_start_makespan_ratio": round(warm_ratio, 4),
        "wall_seconds": {"fifo": round(fifo_seconds, 3), "served": round(served_seconds, 3)},
        "parameters": {"tuples_per_table": tuples_per_table, "seed": seed,
                       "template_queries": template_queries},
    }
