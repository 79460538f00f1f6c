"""Running engine configurations over workloads."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.query.query import Query
from repro.result import QueryResult
from repro.workloads.generators import Workload, WorkloadQuery

from .metrics import QueryRecord


@dataclass(frozen=True)
class EngineSpec:
    """A named engine configuration to benchmark.

    Attributes
    ----------
    name:
        Label used in the produced tables (e.g. ``"Skinner-C"``,
        ``"S-G(PG)"``, ``"Postgres"``).
    factory:
        Callable building the engine for a given workload; receives the
        workload and returns an object with ``execute(query, ...)``.
    supports_budget:
        Whether ``execute`` accepts the ``work_budget`` keyword used to
        emulate per-query timeouts.
    profile, threads:
        The modelled system the records report: the engine profile the
        factory's engine runs under, and the core count its
        ``simulated_time`` is re-weighted for when a record is built (see
        :func:`benchmarks.paper.metrics.modelled_time`).  No execution sees
        ``threads``.
    """

    name: str
    factory: Callable[[Workload], Any]
    supports_budget: bool = False
    profile: str = "skinner"
    threads: int = 1


def run_query(
    spec: EngineSpec,
    workload: Workload,
    workload_query: WorkloadQuery | Query,
    *,
    work_budget: int | None = None,
) -> tuple[QueryRecord, QueryResult]:
    """Run one query on one engine configuration and record the metrics."""
    if isinstance(workload_query, WorkloadQuery):
        query = workload_query.query
        query_name = workload_query.name
    else:
        query = workload_query
        query_name = query.display()[:40]
    engine = spec.factory(workload)
    if spec.supports_budget and work_budget is not None:
        result = engine.execute(query, work_budget=work_budget)
    else:
        result = engine.execute(query)
    record = QueryRecord.from_metrics(
        spec.name, query_name, result.metrics, profile=spec.profile, threads=spec.threads
    )
    return record, result


def run_workload(
    specs: Sequence[EngineSpec],
    workload: Workload,
    *,
    queries: Sequence[str] | None = None,
    work_budget: int | None = None,
    verify_results: bool = False,
) -> list[QueryRecord]:
    """Run every engine over (a subset of) a workload's queries.

    Parameters
    ----------
    queries:
        Optional subset of query names; defaults to all.
    work_budget:
        Per-query timeout (work units) applied to engines that support it.
    verify_results:
        When True, asserts that all engines that completed a query returned
        the same number of result rows (a cheap cross-engine consistency
        check used by the integration tests).
    """
    selected = workload.queries
    if queries is not None:
        wanted = set(queries)
        selected = [q for q in workload.queries if q.name in wanted]
    records: list[QueryRecord] = []
    for workload_query in selected:
        row_counts: set[int] = set()
        for spec in specs:
            record, result = run_query(spec, workload, workload_query, work_budget=work_budget)
            records.append(record)
            if verify_results and not record.timed_out:
                row_counts.add(result.table.num_rows)
        if verify_results and len(row_counts) > 1:
            raise AssertionError(
                f"engines disagree on {workload_query.name}: row counts {sorted(row_counts)}"
            )
    return records
