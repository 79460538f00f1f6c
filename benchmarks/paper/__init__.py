"""Benchmark harness regenerating the paper's tables and figures.

* :mod:`~benchmarks.paper.metrics` — per-query records, aggregation into the
  table rows the paper reports (total/max time, intermediate cardinality,
  relative overhead, optimizer failures and disasters).
* :mod:`~benchmarks.paper.harness` — runs a set of engine configurations over
  a workload, with optional per-query work budgets (timeouts).
* :mod:`~benchmarks.paper.report` — plain-text rendering of result tables and
  series.
* :mod:`~benchmarks.paper.experiments` — one entry point per table and figure
  of the paper (``table1`` ... ``table7``, ``figure6`` ... ``figure13``).

``python -m benchmarks.paper table1 figure7 --small`` prints any of them
(run from the repository root with ``PYTHONPATH=src``).
"""

from .harness import EngineSpec, run_query, run_workload
from .metrics import (
    QueryRecord,
    aggregate_records,
    count_failures_and_disasters,
    relative_overheads,
)
from .report import format_series, format_table

__all__ = [
    "EngineSpec",
    "QueryRecord",
    "aggregate_records",
    "count_failures_and_disasters",
    "format_series",
    "format_table",
    "relative_overheads",
    "run_query",
    "run_workload",
]
