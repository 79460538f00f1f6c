"""Per-query records and the aggregations the paper's tables report."""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.engine.meter import WorkBreakdown
from repro.result import QueryMetrics

from .profiles import get_profile


def modelled_time(metrics: QueryMetrics, profile: str, threads: int = 1) -> float:
    """``metrics.work`` as simulated time under ``profile`` on ``threads`` cores.

    The one place a report turns work units into time (abstract
    milliseconds): ``profile`` names the modelled system, and the paper's
    multi-threaded tables are the single-threaded executions weighted for
    more cores (§6.1), so this is also the only place a core count enters.

    Skinner-C reports its pre-processing breakdown in
    ``extra["preprocess_work"]``, the share the modelled system spreads;
    every other engine spreads all of ``work``.  An all-zero share (a
    forced-order run) spreads nothing.  Otherwise the run is two phases,
    the share at ``threads`` cores plus the rest of ``work`` at one, each
    weighted separately — so a learned Skinner-C run pays the profile's
    start-up cost twice, as the engine's own simulated time always did.
    """
    weights = get_profile(profile)
    spread = metrics.extra.get("preprocess_work")
    if spread is None:
        return weights.simulated_time(metrics.work, threads=threads)
    pre = WorkBreakdown(**spread)
    if not pre.total:
        return weights.simulated_time(metrics.work)
    rest = WorkBreakdown(*(
        total - part
        for total, part in zip(dataclasses.astuple(metrics.work), dataclasses.astuple(pre))
    ))
    return weights.simulated_time(pre, threads=threads) + weights.simulated_time(rest)


@dataclass(frozen=True)
class QueryRecord:
    """One (engine, query) execution."""

    engine: str
    query: str
    simulated_time: float
    intermediate_cardinality: int
    predicate_evaluations: int
    result_rows: int
    timed_out: bool = False
    final_join_order: tuple[str, ...] | None = None
    wall_time_seconds: float = 0.0

    @classmethod
    def from_metrics(
        cls,
        engine: str,
        query: str,
        metrics: QueryMetrics,
        *,
        profile: str,
        threads: int = 1,
    ) -> "QueryRecord":
        """Build a record from an engine's reported metrics.

        Its time is the work under ``profile`` on ``threads`` cores (see
        :func:`modelled_time`).
        """
        return cls(
            engine=engine,
            query=query,
            simulated_time=modelled_time(metrics, profile, threads),
            intermediate_cardinality=metrics.intermediate_cardinality,
            predicate_evaluations=metrics.work.predicate_evals + metrics.work.udf_invocations,
            result_rows=metrics.result_rows,
            timed_out=bool(metrics.extra.get("timed_out", False)),
            final_join_order=metrics.final_join_order,
            wall_time_seconds=metrics.wall_time_seconds,
        )


@dataclass(frozen=True)
class EngineSummary:
    """Aggregate of one engine over a whole workload (a Table 1 style row)."""

    engine: str
    total_time: float
    max_time: float
    total_cardinality: int
    max_cardinality: int
    queries: int
    timeouts: int

    def as_row(self) -> dict[str, object]:
        """Dictionary form used by the report formatter."""
        return {
            "Approach": self.engine,
            "Total Time": round(self.total_time, 1),
            "Max Time": round(self.max_time, 1),
            "Total Card.": self.total_cardinality,
            "Max Card.": self.max_cardinality,
            "Timeouts": self.timeouts,
        }


def aggregate_records(records: Sequence[QueryRecord]) -> list[EngineSummary]:
    """Aggregate per-query records into one summary row per engine."""
    by_engine: dict[str, list[QueryRecord]] = {}
    for record in records:
        by_engine.setdefault(record.engine, []).append(record)
    summaries = []
    for engine, engine_records in by_engine.items():
        summaries.append(EngineSummary(
            engine=engine,
            total_time=sum(r.simulated_time for r in engine_records),
            max_time=max(r.simulated_time for r in engine_records),
            total_cardinality=sum(r.intermediate_cardinality for r in engine_records),
            max_cardinality=max(r.intermediate_cardinality for r in engine_records),
            queries=len(engine_records),
            timeouts=sum(1 for r in engine_records if r.timed_out),
        ))
    return summaries


def relative_overheads(records: Sequence[QueryRecord]) -> dict[str, float]:
    """Per-engine maximum of (time / best time for that query) — Table 7's metric."""
    best_per_query: dict[str, float] = {}
    for record in records:
        best = best_per_query.get(record.query)
        if best is None or record.simulated_time < best:
            best_per_query[record.query] = record.simulated_time
    worst_ratio: dict[str, float] = {}
    for record in records:
        best = max(best_per_query[record.query], 1e-9)
        ratio = record.simulated_time / best
        if ratio > worst_ratio.get(record.engine, 0.0):
            worst_ratio[record.engine] = ratio
    return worst_ratio


def count_failures_and_disasters(
    records: Sequence[QueryRecord],
    *,
    metric: str = "time",
    failure_factor: float = 10.0,
    disaster_factor: float = 100.0,
) -> dict[str, dict[str, int]]:
    """Count optimizer failures and disasters per engine (Figure 11).

    A test case counts as a *failure* for an engine when its cost exceeds the
    best cost among all engines for that query by ``failure_factor``, and as
    a *disaster* at ``disaster_factor``.  ``metric`` selects simulated time
    or predicate-evaluation counts, mirroring the paper's two panels.
    """
    if metric not in ("time", "evaluations"):
        raise ValueError("metric must be 'time' or 'evaluations'")

    def value(record: QueryRecord) -> float:
        if metric == "time":
            return record.simulated_time
        return float(record.predicate_evaluations)

    best_per_query: dict[str, float] = {}
    for record in records:
        best = best_per_query.get(record.query)
        if best is None or value(record) < best:
            best_per_query[record.query] = value(record)
    counts: dict[str, dict[str, int]] = {}
    for record in records:
        entry = counts.setdefault(record.engine, {"failures": 0, "disasters": 0})
        best = max(best_per_query[record.query], 1e-9)
        ratio = value(record) / best
        if record.timed_out or ratio >= failure_factor:
            entry["failures"] += 1
        if record.timed_out or ratio >= disaster_factor:
            entry["disasters"] += 1
    return counts


def per_query_speedups(
    records: Sequence[QueryRecord], baseline: str, subject: str
) -> dict[str, float]:
    """Speedup of ``subject`` over ``baseline`` per query (Figure 6b)."""
    baseline_times: Mapping[str, float] = {
        r.query: r.simulated_time for r in records if r.engine == baseline
    }
    speedups: dict[str, float] = {}
    for record in records:
        if record.engine != subject or record.query not in baseline_times:
            continue
        speedups[record.query] = baseline_times[record.query] / max(record.simulated_time, 1e-9)
    return speedups


def time_share_of_top_queries(records: Sequence[QueryRecord], engine: str) -> list[float]:
    """Cumulative share of total time spent in the top-k most expensive queries.

    Element ``k-1`` of the returned list is the fraction of the engine's
    total time spent in its ``k`` most expensive queries (Figure 6a).
    """
    times = sorted(
        (r.simulated_time for r in records if r.engine == engine), reverse=True
    )
    total = sum(times) or 1.0
    shares: list[float] = []
    running = 0.0
    for value in times:
        running += value
        shares.append(running / total)
    return shares
