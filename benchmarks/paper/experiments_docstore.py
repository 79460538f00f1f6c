"""XPath-axes workload: learned join ordering vs the traditional optimizer.

Axis paths over a shredded node table are the estimator's worst case by
construction: every alias of the self-join binds the *same* relation, so
per-column statistics describe the *marginal* tag/value distributions
only.  String equality is priced at one-in-distinct, so a praise comment
that covers most reviews looks unique; range predicates are priced on the
marginal ``val_num`` histogram, where view counters and prices drown the
rating scale, so the genuinely rare ``rating >= 5`` looks broad.  The
traditional optimizer anchors its one static plan on the falsely
selective end and drives the nested-loop ancestor/descendant joins with a
fat outer; Skinner-C learns the order from executed episodes and pays no
estimation tax.

The experiment runs every query of the generated workload
(:func:`repro.docstore.workload.make_docstore_workload`) on both engines,
cross-checks byte-identical rows, totals the deterministic work clock
(``simulated_time``), and asserts the learned engine is strictly cheaper
in aggregate — the gate in ``benchmarks/baseline.json`` then pins the
fingerprint so regressions cannot ship silently.
"""

from __future__ import annotations

import time
from typing import Any

from repro.api.connection import connect
from repro.config import SkinnerConfig
from repro.docstore.workload import make_docstore_workload

from .metrics import modelled_time

#: Each engine, and the system its work is modelled as.
_ENGINES = {"traditional": "postgres", "skinner-c": "skinner"}

#: Small episode budgets: enough learning signal on the smoke-sized forest
#: without inflating the work clock on the full one.
_BENCH_CONFIG = SkinnerConfig(
    batches_per_table=4,
    base_timeout=120,
    serving_warm_start=False,
    seed=42,
)


def _result_rows(result) -> list[tuple]:
    return sorted(tuple(row.values()) for row in result.rows)


def docstore_axes(
    documents: int = 6,
    items_per_document: int = 18,
    depth: int = 2,
    seed: int = 7,
) -> dict[str, Any]:
    """Every axes template on traditional vs Skinner-C, work-clock totals."""
    workload = make_docstore_workload(
        documents=documents, items_per_document=items_per_document,
        depth=depth, seed=seed,
    )
    connection = connect(_BENCH_CONFIG)
    try:
        connection.add_table(workload.catalog.table("doc_nodes"))
        connection.commit()
        totals = {engine: 0 for engine in _ENGINES}
        walls = {engine: 0.0 for engine in _ENGINES}
        records: list[dict[str, Any]] = []
        for entry in workload.queries:
            rows_seen: dict[str, list[tuple]] = {}
            for engine in _ENGINES:
                started = time.perf_counter()
                result = connection.execute_direct(entry.query, engine=engine)
                walls[engine] += time.perf_counter() - started
                rows_seen[engine] = _result_rows(result)
                totals[engine] += modelled_time(result.metrics, _ENGINES[engine])
                records.append({
                    "query": entry.name,
                    "engine": engine,
                    "simulated_time": modelled_time(result.metrics, _ENGINES[engine]),
                    "work": result.metrics.work,
                    "result_rows": len(result.rows),
                })
            if rows_seen["traditional"] != rows_seen["skinner-c"]:
                raise AssertionError(
                    f"{entry.name}: engines disagree on the result rows"
                )
        speedup = totals["traditional"] / max(1, totals["skinner-c"])
        if speedup <= 1.0:
            raise AssertionError(
                f"Skinner-C (work {totals['skinner-c']}) does not beat the "
                f"traditional optimizer (work {totals['traditional']}) on "
                "the axes workload"
            )
        rows = [
            {
                "engine": engine,
                "work_clock": totals[engine],
                "wall_seconds": round(walls[engine], 4),
            }
            for engine in _ENGINES
        ]
        return {
            "title": "XPath axes self-joins: traditional vs Skinner-C",
            "rows": rows,
            "records": records,
            "queries": len(workload.queries),
            "node_rows": workload.catalog.table("doc_nodes").num_rows,
            "speedup_learned_vs_traditional": round(speedup, 3),
            "parameters": dict(workload.parameters),
        }
    finally:
        connection.close()
