"""Post-processing micro-benchmark: columnar pipeline vs row pipeline.

PR 1 vectorized the multi-way join, which moved the bottleneck downstream
into post-processing.  This experiment isolates that stage: it materializes
one large join result (a row-id relation over a single wide table) and runs
aggregation-, DISTINCT-, and ORDER-BY-heavy queries through
:func:`repro.engine.postprocess.post_process` (the production columnar
pipeline) and through the row-pipeline test oracle ``rows_post_process``
(``tests/oracles/postprocess.py``), reporting wall time per query and the
columnar speedup.  Outputs are cross-checked for equality on every run, so
the speedup numbers are always backed by identical results.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.engine.postprocess import post_process
from repro.engine.relation import RowIdRelation
from repro.query.expressions import ColumnRef, FunctionCall, Literal, Star
from repro.query.query import AggregateSpec, OrderItem, Query, SelectItem, make_query
from repro.storage.table import Table
from repro.workloads.generators import choice_strings, make_rng, uniform_keys, zipf_keys
from tests.oracles import rows_post_process

_CATEGORIES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]

#: The post-processing of each path: the row-pipeline oracle and production.
_PIPELINES = {"rows": rows_post_process, "columnar": post_process}


def _build_table(tuples_per_table: int, groups: int, seed: int) -> Table:
    rng = make_rng(seed)
    # Dyadic weights keep float sums exact in any accumulation order, so the
    # equality cross-check between the two pipelines is bitwise.
    weights = uniform_keys(rng, tuples_per_table, 64).astype(np.float64) / 4.0
    return Table("facts", {
        "key": zipf_keys(rng, tuples_per_table, max(1, groups), skew=0.8),
        "val": uniform_keys(rng, tuples_per_table, 1000),
        "weight": weights,
        "cat": choice_strings(rng, tuples_per_table, _CATEGORIES),
    })


def _queries() -> dict[str, Query]:
    f = ("f", "facts")
    revenue = FunctionCall("mul", (ColumnRef("f", "val"), ColumnRef("f", "weight")))
    return {
        "group_aggregate": make_query(
            [f],
            select_items=[
                SelectItem(expression=ColumnRef("f", "key"), alias="key"),
                SelectItem(aggregate=AggregateSpec("count", Star()), alias="n"),
                SelectItem(aggregate=AggregateSpec("sum", ColumnRef("f", "val")),
                           alias="total"),
                SelectItem(aggregate=AggregateSpec("avg", ColumnRef("f", "weight")),
                           alias="mean_weight"),
                SelectItem(aggregate=AggregateSpec("min", ColumnRef("f", "val")), alias="lo"),
                SelectItem(aggregate=AggregateSpec("max", ColumnRef("f", "val")), alias="hi"),
            ],
            group_by=[ColumnRef("f", "key")],
            order_by=[OrderItem(ColumnRef("f", "total"), ascending=False)],
        ),
        "computed_distinct": make_query(
            [f],
            select_items=[
                SelectItem(expression=ColumnRef("f", "cat"), alias="cat"),
                SelectItem(expression=FunctionCall("mod", (ColumnRef("f", "val"),
                                                           Literal(16))),
                           alias="bucket"),
            ],
            distinct=True,
            order_by=[OrderItem(ColumnRef("f", "cat")),
                      OrderItem(ColumnRef("f", "bucket"), ascending=False)],
        ),
        "top_k_projection": make_query(
            [f],
            select_items=[
                SelectItem(expression=ColumnRef("f", "key"), alias="key"),
                SelectItem(expression=revenue, alias="revenue"),
                SelectItem(expression=ColumnRef("f", "cat"), alias="cat"),
            ],
            order_by=[OrderItem(ColumnRef("f", "revenue"), ascending=False),
                      OrderItem(ColumnRef("f", "key"))],
            limit=100,
        ),
    }


def _assert_equal_outputs(expected: Table, actual: Table, label: str) -> None:
    if expected.column_names != actual.column_names:
        raise AssertionError(f"{label}: column names diverge")
    for name in expected.column_names:
        if expected.column(name).values() != actual.column(name).values():
            raise AssertionError(f"{label}: column {name!r} diverges between modes")


def postprocess_pipeline(
    tuples_per_table: int = 150_000,
    groups: int = 256,
    seed: int = 7,
    repetitions: int = 3,
) -> dict[str, Any]:
    """Columnar vs row post-processing over one large materialized join result."""
    table = _build_table(tuples_per_table, groups, seed)
    relation = RowIdRelation.from_base("f", np.arange(table.num_rows, dtype=np.int64))
    tables = {"f": table}

    rows: list[dict[str, Any]] = []
    speedups: dict[str, float] = {}
    for name, query in _queries().items():
        timings: dict[str, float] = {}
        outputs: dict[str, Table] = {}
        for mode in ("rows", "columnar"):
            best = float("inf")
            for _ in range(max(1, repetitions)):
                started = time.perf_counter()
                outputs[mode] = _PIPELINES[mode](query, relation, tables)
                best = min(best, time.perf_counter() - started)
            timings[mode] = best
        _assert_equal_outputs(outputs["rows"], outputs["columnar"], name)
        speedup = timings["rows"] / max(timings["columnar"], 1e-9)
        speedups[name] = speedup
        rows.append({
            "Query": name,
            "Rows In": table.num_rows,
            "Rows Out": outputs["columnar"].num_rows,
            "Row Path (ms)": round(timings["rows"] * 1e3, 2),
            "Columnar (ms)": round(timings["columnar"] * 1e3, 2),
            "Speedup": round(speedup, 2),
        })
    return {
        "title": "Post-processing: columnar pipeline vs row pipeline",
        "rows": rows,
        "speedups": speedups,
        "parameters": {"tuples_per_table": tuples_per_table, "groups": groups,
                       "seed": seed, "repetitions": repetitions},
    }
