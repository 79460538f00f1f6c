"""Cold-vs-warm-start benchmark for the durable storage backend.

A *cold* start parses CSV files, writes every column to ``data_dir``, and
commits; a *warm* start is a fresh connection over the same ``data_dir``
that must answer its first query without re-parsing anything — the catalog
recovers from disk and ``load_csv`` becomes a fingerprint check.  The
experiment measures both paths on the same workload and cross-checks the
acceptance properties on every run:

* the warm start performs **zero** CSV parses (:func:`counted_parses`
  sees none during the warm ingest);
* rows and meter charges are byte-identical across cold, warm, and a plain
  in-memory reference connection.

All on-disk state lives in one ``repro-bench-data-*`` temporary directory
that is removed on the way out (``benchmarks/conftest.py`` sweeps strays
should a run die mid-way).
"""

from __future__ import annotations

import contextlib
import csv
import shutil
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from repro.api.connection import connect
from repro.config import SkinnerConfig
from repro.storage import loader
from repro.storage.table import Table
from repro.workloads.generators import make_rng, uniform_keys

from .metrics import modelled_time

#: Modest slices, warm-start caching off: runs are order-independent, so
#: charge comparisons across the three connections are exact.
_BENCH_CONFIG = SkinnerConfig(slice_budget=200, serving_warm_start=False)

_TABLES = ("a", "b", "c")


@contextlib.contextmanager
def counted_parses() -> Iterator[list[Path]]:
    """The CSV files parsed while the block runs, one entry per parse.

    ``Connection.load_csv`` looks ``repro.storage.loader.load_csv`` up when
    it is called, so the block's loads go through the counting wrapper put
    there; the loader itself keeps no count.
    """
    parsed: list[Path] = []
    original = loader.load_csv

    def load_csv(path: str | Path, *args: Any, **kwargs: Any) -> Table:
        parsed.append(Path(path))
        return original(path, *args, **kwargs)

    loader.load_csv = load_csv
    try:
        yield parsed
    finally:
        loader.load_csv = original


def save_csv(table: Table, path: str | Path) -> None:
    """Write a table to a CSV file with a header row."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        for position in range(table.num_rows):
            row = table.row(position)
            writer.writerow([row[column] for column in table.column_names])


def _write_workload_csvs(csv_dir: Path, tuples_per_table: int, seed: int) -> list[Path]:
    rng = make_rng(seed)
    num_keys = max(1, tuples_per_table // 6)
    paths = []
    for name in _TABLES:
        table = Table(name, {
            "k": uniform_keys(rng, tuples_per_table, num_keys),
            "v": uniform_keys(rng, tuples_per_table, 100),
        })
        path = csv_dir / f"{name}.csv"
        save_csv(table, path)
        paths.append(path)
    return paths


def _workload() -> list[tuple[str, str]]:
    return [
        ("q0_2way_selective",
         "SELECT a.v, b.v FROM a, b WHERE a.k = b.k AND a.v < 30"),
        ("q1_3way_chain",
         "SELECT a.v, c.v FROM a, b, c WHERE a.k = b.k AND b.k = c.k AND a.v < 10"),
        ("q2_aggregate",
         "SELECT a.v, COUNT(*) AS n FROM a, b WHERE a.k = b.k AND a.v < 20 "
         "GROUP BY a.v ORDER BY a.v"),
    ]


def _run_workload(connection) -> list[dict[str, Any]]:
    results = []
    for name, sql in _workload():
        result = connection.execute_direct(sql)
        names = result.table.column_names
        rows = sorted(
            tuple(row[column] for column in names) for row in result.table.rows()
        )
        results.append({
            "query": name,
            "rows": rows,
            "work": result.metrics.work,
            "simulated_time": modelled_time(result.metrics, "skinner"),
        })
    return results


def _ingest(connection, csv_paths: list[Path]) -> None:
    """Load every workload CSV and commit."""
    for path in csv_paths:
        connection.load_csv(path)
    connection.commit()


def cold_vs_warm_start(tuples_per_table: int = 3_000, seed: int = 31) -> dict[str, Any]:
    """Cold CSV ingest vs warm ``data_dir`` reopen on the same workload."""
    data_root = Path(tempfile.mkdtemp(prefix="repro-bench-data-"))
    try:
        csv_dir = data_root / "csv"
        csv_dir.mkdir()
        data_dir = data_root / "db"
        csv_paths = _write_workload_csvs(csv_dir, tuples_per_table, seed)

        # -- cold: parse CSVs, persist columns, answer the workload.
        started = time.perf_counter()
        cold = connect(_BENCH_CONFIG, data_dir=data_dir)
        with counted_parses() as parsed:
            _ingest(cold, csv_paths)
        cold_load = time.perf_counter() - started
        cold_parses = len(parsed)
        cold_results = _run_workload(cold)
        cold.close()

        # -- warm: a fresh connection over the same data_dir.  The same
        # load_csv calls must resolve via fingerprints without parsing.
        started = time.perf_counter()
        warm = connect(_BENCH_CONFIG, data_dir=data_dir)
        with counted_parses() as parsed:
            _ingest(warm, csv_paths)
        warm_load = time.perf_counter() - started
        warm_parses = len(parsed)
        if warm_parses != 0:
            raise AssertionError(
                f"warm start re-parsed {warm_parses} CSV files; expected 0"
            )
        warm_results = _run_workload(warm)
        warm.close()

        # -- in-memory reference: the A/B contract of the buffer manager.
        started = time.perf_counter()
        memory = connect(_BENCH_CONFIG)
        _ingest(memory, csv_paths)
        memory_load = time.perf_counter() - started
        memory_results = _run_workload(memory)
        memory.close()

        for cold_r, warm_r, memory_r in zip(cold_results, warm_results, memory_results):
            name = cold_r["query"]
            if not (cold_r["rows"] == warm_r["rows"] == memory_r["rows"]):
                raise AssertionError(f"{name}: rows diverge across storage backends")
            if not (cold_r["work"] == warm_r["work"] == memory_r["work"]):
                raise AssertionError(f"{name}: charges diverge across storage backends")

        rows = [
            {
                "Start": label,
                "Ingest (s)": round(seconds, 4),
                "CSV parses": parses,
                "Result rows": sum(len(r["rows"]) for r in results),
            }
            for label, seconds, parses, results in (
                ("cold (parse + persist)", cold_load, cold_parses, cold_results),
                ("warm (data_dir reopen)", warm_load, 0, warm_results),
                ("in-memory reference", memory_load, len(csv_paths), memory_results),
            )
        ]
        records = [
            {"query": r["query"], "result_rows": len(r["rows"]),
             "simulated_time": r["simulated_time"]}
            for r in cold_results
        ]
        return {
            "title": f"Cold vs warm start ({tuples_per_table} tuples/table)",
            "rows": rows,
            "records": records,
            "warm_parses": warm_parses,
            "warm_speedup": round(cold_load / max(warm_load, 1e-9), 2),
            "parameters": {"tuples_per_table": tuples_per_table, "seed": seed},
        }
    finally:
        shutil.rmtree(data_root, ignore_errors=True)
