"""Query results and execution metrics shared by every engine."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.engine.meter import WorkBreakdown
from repro.storage.table import Table


@dataclass
class QueryMetrics:
    """What an engine reports about one query execution.

    Attributes
    ----------
    engine:
        Engine name (``skinner-c``, ``traditional``, ``skinner-g(sqlite)``, ...).
    work:
        Work-unit breakdown charged during execution (join phase plus
        pre/post-processing) — the deterministic clock every budget,
        reward and benchmark fingerprint reads.
    wall_time_seconds:
        Python wall-clock seconds of the execution.
    intermediate_cardinality:
        Total intermediate-result tuples produced by the executed plan(s);
        the engine-independent join-order-quality metric of Tables 1 and 2.
    result_rows:
        Number of rows in the final result.
    final_join_order:
        For learning engines, the join order considered best at the end.
    time_slices:
        Number of time slices / iterations executed (learning engines).
    uct_nodes, tracker_nodes, result_tuple_count:
        Memory-related counters used by Figure 8.
    extra:
        Engine-specific details (timeout levels used, re-optimization
        count, ...).  Skinner-C adds ``preprocess_work``, the
        :class:`~repro.engine.meter.WorkBreakdown` of its pre-processing as
        a plain dict (all zero for a forced-order run): the share of
        ``work`` that the paper's multi-core systems spread over cores
        (§6.1), which ``benchmarks/paper`` re-weights; no execution reads it.
    """

    engine: str
    work: WorkBreakdown = field(default_factory=WorkBreakdown)
    wall_time_seconds: float = 0.0
    intermediate_cardinality: int = 0
    result_rows: int = 0
    final_join_order: tuple[str, ...] | None = None
    time_slices: int = 0
    uct_nodes: int = 0
    tracker_nodes: int = 0
    result_tuple_count: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def measured(
        cls,
        engine: str,
        work: WorkBreakdown,
        started: float,
        result_rows: int,
        **fields: Any,
    ) -> "QueryMetrics":
        """Metrics of a run that began at ``started`` and charged ``work``.

        The one assembler every engine reports through: ``started`` is a
        ``time.perf_counter()`` reading and the intermediate cardinality is
        ``work``'s own unless ``fields`` name it (Skinner-C's join phase
        does); the other ``fields`` go to the constructor as they are.
        """
        fields.setdefault("intermediate_cardinality", work.intermediate_tuples)
        return cls(
            engine=engine,
            work=work,
            wall_time_seconds=time.perf_counter() - started,
            result_rows=result_rows,
            **fields,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        order = " ".join(self.final_join_order) if self.final_join_order else "-"
        return (
            f"{self.engine}: work={self.work.total} "
            f"card={self.intermediate_cardinality} rows={self.result_rows} order=[{order}]"
        )


@dataclass
class QueryResult:
    """A result table together with the metrics of producing it."""

    table: Table
    metrics: QueryMetrics

    @property
    def rows(self) -> list[dict[str, Any]]:
        """Result rows as dictionaries (decoded values)."""
        return self.table.rows()

