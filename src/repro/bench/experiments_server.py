"""Multi-tenant network front-door benchmark: remote serving over TCP.

Three measurements, one deterministic and two live:

* **Reference runs (deterministic).**  Every distinct query of the client
  workload is executed once on a fresh local connection with the exact
  server configuration.  Their meter charges are the byte-identity oracle
  for the remote runs and their ``simulated_time`` values feed the CI
  work-fingerprint gate (wall-clock noise never does).

* **p95 time-to-first-batch over the wire.**  A real
  :class:`~repro.net.server.ServerThread` serves the catalog over TCP while
  ``clients`` threads connect via ``repro://`` DSNs (three tenants,
  round-robin), each running ``queries_per_client`` streaming queries.
  Time-to-first-batch (TTFB) is the wall-clock span from
  ``cursor.execute`` to the first non-empty ``fetchmany`` — the latency a
  dashboard user feels under a mixed concurrent workload.  Every remote
  result is checked **byte-identical** (rows and meter charges) against
  its reference, so concurrency never buys throughput with divergent
  answers.

* **Fairness under an adversarial heavy tenant (deterministic).**  On the
  work-unit clock, a light tenant's lone aggregate is timed three ways:
  solo, against a flood of ``heavy_sessions`` expensive joins from another
  tenant at equal quota, and against the same flood with the light tenant
  quota-protected (``set_tenant_quota``).  Stride scheduling bounds the
  flooded delay near the two-tenant fair share; the quota raises the light
  tenant's share further.  (Session setup work is charged eagerly at
  submit time, so delays are measured from the post-submission clock.)
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.api.connection import connect
from repro.config import SkinnerConfig
from repro.net.server import ServerThread
from repro.serving.server import QueryServer
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import make_rng, uniform_keys

#: Server configuration: warm start off so every run is solo-equivalent,
#: enough admission slots that concurrency (not queueing) is measured.
_BENCH_CONFIG = SkinnerConfig(serving_warm_start=False, serving_max_inflight=8)

#: Tenants the remote clients round-robin across.
_TENANTS = ("alpha", "beta", "gamma")


def _build_columns(tuples_per_table: int, seed: int) -> dict[str, dict[str, list]]:
    """Column data for two joinable fact tables and a small dimension."""
    rng = make_rng(seed)
    num_keys = max(1, tuples_per_table // 3)  # ~3x join fan-out per key
    columns: dict[str, dict[str, list]] = {}
    for name in ("fact", "fact2"):
        columns[name] = {
            "k": uniform_keys(rng, tuples_per_table, num_keys),
            "g": uniform_keys(rng, tuples_per_table, 8),
            "v": uniform_keys(rng, tuples_per_table, 1000),
        }
    dim_rows = max(4, tuples_per_table // 20)
    columns["dim"] = {
        "g": uniform_keys(rng, dim_rows, 8),
        "name": [f"g{int(value) % 8}" for value in uniform_keys(rng, dim_rows, 8)],
    }
    return columns


def _client_workload() -> list[tuple[str, str]]:
    """The query mix each client cycles through: (name, sql).

    One pure streaming scan, one expensive join, one blocking aggregate,
    and one LIMIT query that exercises the push-down's early completion
    over the wire.
    """
    return [
        ("scan_stream", "SELECT f.v FROM fact f WHERE f.v < 40"),
        ("join_count",
         "SELECT COUNT(*) AS n FROM fact f, fact2 h WHERE f.k = h.k"),
        ("group_by", "SELECT f.g, COUNT(*) AS n FROM fact f GROUP BY f.g"),
        ("limit_pushdown",
         "SELECT f.v, h.v FROM fact f, fact2 h WHERE f.k = h.k LIMIT 8"),
    ]


def _seed_connection(connection, columns: dict[str, dict[str, list]]) -> None:
    for name, data in columns.items():
        connection.create_table(name, data)
    connection.commit()


def _reference_runs(
    columns: dict[str, dict[str, list]]
) -> dict[str, tuple[list[tuple[Any, ...]], Any, Any]]:
    """Each distinct query solo on a fresh local connection: the oracle."""
    references: dict[str, tuple[list, Any, Any]] = {}
    for name, sql in _client_workload():
        local = connect(_BENCH_CONFIG)
        _seed_connection(local, columns)
        cursor = local.cursor()
        cursor.execute(sql, use_result_cache=False)
        rows = cursor.fetchall()
        metrics = cursor.result().metrics
        references[name] = (rows, metrics.work, metrics)
        local.close()
    return references


def _p95_lower(values: list[float]) -> float:
    """Nearest-lower-rank 95th percentile (deterministic, small-n friendly)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), 95, method="lower"))


def _remote_clients(
    columns: dict[str, dict[str, list]],
    references: dict[str, tuple[list, Any, Any]],
    clients: int,
    queries_per_client: int,
) -> dict[str, Any]:
    """Live TCP server + concurrent clients; returns TTFB samples."""
    import threading

    workload = _client_workload()
    live = ServerThread(config=_BENCH_CONFIG).start()
    ttfb_seconds: dict[int, list[float]] = {}
    errors: list[BaseException] = []
    try:
        _seed_connection(live.connection, columns)

        def run_client(index: int) -> None:
            samples: list[float] = []
            try:
                conn = connect(live.dsn, tenant=_TENANTS[index % len(_TENANTS)])
                try:
                    for step in range(queries_per_client):
                        name, sql = workload[(index + step) % len(workload)]
                        cursor = conn.cursor()
                        started = time.perf_counter()
                        cursor.execute(sql, use_result_cache=False)
                        first = cursor.fetchmany(16)
                        samples.append(time.perf_counter() - started)
                        rows = first + cursor.fetchall()
                        work = cursor.result().metrics.work
                        expected_rows, expected_work, _ = references[name]
                        if rows != expected_rows:
                            raise AssertionError(f"{name}: remote rows diverge from solo run")
                        if work != expected_work:
                            raise AssertionError(f"{name}: remote charges diverge from solo run")
                        cursor.close()
                finally:
                    conn.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced by the caller
                errors.append(exc)
            ttfb_seconds[index] = samples

        threads = [
            threading.Thread(target=run_client, args=(index,), daemon=True)
            for index in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        wall_seconds = time.perf_counter() - started
    finally:
        live.stop()
    if errors:
        raise errors[0]
    samples = [value for per_client in ttfb_seconds.values() for value in per_client]
    return {
        "ttfb_samples": len(samples),
        "p95_ttfb_seconds": round(_p95_lower(samples), 4) if samples else 0.0,
        "max_ttfb_seconds": round(max(samples), 4) if samples else 0.0,
        "wall_seconds": round(wall_seconds, 3),
    }


def _light_tenant_delay(
    catalog: Catalog,
    heavy_sessions: int,
    light_quota: float | None,
) -> tuple[int, dict[str, Any]]:
    """Work-clock delay of the light tenant's query under a heavy flood."""
    server = QueryServer(catalog, config=_BENCH_CONFIG)
    if light_quota is not None:
        server.set_tenant_quota("light", light_quota)
    heavy_sql = "SELECT COUNT(*) AS n FROM fact f, fact2 h WHERE f.k = h.k"
    light_sql = "SELECT f.g, COUNT(*) AS n FROM fact f GROUP BY f.g"
    for _ in range(heavy_sessions):
        server.submit(heavy_sql, tenant="heavy", use_result_cache=False)
    light = server.submit(light_sql, tenant="light", use_result_cache=False)
    # Session setup work is charged eagerly inside submit(), so the flood's
    # activations already advanced the clock: measure from here.
    baseline = server.ledger.grand_total()
    server.result(light)
    completed = server.session(light).completed_at_work
    assert completed is not None
    return completed - baseline, server.tenant_stats()


def multitenant_server(
    tuples_per_table: int = 3_000,
    seed: int = 17,
    clients: int = 6,
    queries_per_client: int = 3,
    heavy_sessions: int = 5,
) -> dict[str, Any]:
    """Remote p95 TTFB, byte-identity over the wire, and tenant fairness."""
    columns = _build_columns(tuples_per_table, seed)
    references = _reference_runs(columns)

    remote = _remote_clients(columns, references, clients, queries_per_client)

    catalog = Catalog()
    for name, data in columns.items():
        catalog.add_table(Table(name, data))
    solo_delay, _ = _light_tenant_delay(catalog, 0, None)
    flood_delay, flood_stats = _light_tenant_delay(catalog, heavy_sessions, None)
    shielded_delay, shielded_stats = _light_tenant_delay(catalog, heavy_sessions, 3.0)

    rows = [
        {
            "Query": name,
            "Work": references[name][1].total,
            "Result Rows": len(references[name][0]),
            "Simulated Time": round(references[name][2].simulated_time, 4),
        }
        for name, _sql in _client_workload()
    ]
    records = [
        {
            "query": name,
            "simulated_time": references[name][2].simulated_time,
            "result_rows": references[name][2].result_rows,
        }
        for name, _sql in _client_workload()
    ]

    return {
        "title": "Multi-tenant network front door: remote TTFB and fairness",
        "rows": rows,
        "records": records,
        "remote": remote,
        "fairness": {
            "light_solo_delay": solo_delay,
            "light_flooded_delay": flood_delay,
            "light_shielded_delay": shielded_delay,
            "flooded_slowdown": round(flood_delay / max(1, solo_delay), 2),
            "shielded_slowdown": round(shielded_delay / max(1, solo_delay), 2),
            "flooded_light_share": round(
                flood_stats["light"]["grant_share"], 4),
            "shielded_light_share": round(
                shielded_stats["light"]["grant_share"], 4),
        },
        "parameters": {
            "tuples_per_table": tuples_per_table,
            "seed": seed,
            "clients": clients,
            "queries_per_client": queries_per_client,
            "heavy_sessions": heavy_sessions,
        },
    }
