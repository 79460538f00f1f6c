"""Shared fixtures and a brute-force reference oracle for differential tests."""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

import pytest

from repro.engine.joinkernels import GroupedJoinMap
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.job import make_job_workload


def reference_join_count(catalog: Catalog, query: Query, udfs: UdfRegistry | None = None) -> int:
    """Count result tuples by brute-force enumeration (independent oracle).

    Enumerates the full cross product of all query tables and evaluates every
    predicate per combination.  Exponential — only use on tiny inputs.
    """
    return len(reference_join_tuples(catalog, query, udfs))


def reference_join_tuples(
    catalog: Catalog, query: Query, udfs: UdfRegistry | None = None
) -> set[tuple[int, ...]]:
    """Brute-force set of result index tuples (in query alias order)."""
    tables = {alias: catalog.table(name) for alias, name in query.tables}
    aliases = query.aliases
    ranges = [range(tables[alias].num_rows) for alias in aliases]
    result: set[tuple[int, ...]] = set()
    for combination in itertools.product(*ranges):
        binding = {
            alias: tables[alias].row(row) for alias, row in zip(aliases, combination)
        }
        if all(predicate.evaluate(binding, udfs) for predicate in query.predicates):
            result.add(tuple(combination))
    return result


def result_multiset(result) -> list[tuple[Any, ...]]:
    """Rows of a QueryResult as a sorted list of value tuples (order-insensitive)."""
    names = result.table.column_names
    rows = [tuple(row[name] for name in names) for row in result.table.rows()]
    return sorted(rows, key=repr)


@contextmanager
def counting_groupings() -> Iterator[list[int]]:
    """``[n]``: the :class:`GroupedJoinMap` constructions inside the block
    (a suffix view is none: it groups nothing)."""
    count = [0]
    real = GroupedJoinMap.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        real(self, *args, **kwargs)

    GroupedJoinMap.__init__ = counted
    try:
        yield count
    finally:
        GroupedJoinMap.__init__ = real


def same_tables(catalog: Catalog) -> Catalog:
    """A catalog of its own (and so a statement cache of its own) over the
    very tables of ``catalog``."""
    fresh = Catalog()
    for table in catalog:
        fresh.add_table(table)
    return fresh


@pytest.fixture
def tiny_catalog() -> Catalog:
    """Three small joinable tables (orders / customers / items style)."""
    catalog = Catalog()
    catalog.add_table(Table("customers", {
        "cid": [1, 2, 3, 4, 5],
        "country": ["us", "de", "us", "fr", "de"],
        "score": [10, 20, 30, 40, 50],
    }))
    catalog.add_table(Table("orders", {
        "oid": [10, 11, 12, 13, 14, 15],
        "cid": [1, 1, 2, 3, 5, 5],
        "amount": [100, 250, 80, 120, 500, 60],
    }))
    catalog.add_table(Table("items", {
        "oid": [10, 10, 11, 12, 13, 14, 14, 15],
        "product": ["a", "b", "a", "c", "b", "a", "c", "b"],
        "quantity": [1, 2, 3, 1, 5, 2, 2, 4],
    }))
    return catalog


@pytest.fixture
def tiny_join_query() -> Query:
    """customers ⋈ orders ⋈ items with one filter per table."""
    from repro.query.predicates import column_compare_literal, column_equals_column
    from repro.query.query import make_query

    return make_query(
        [("c", "customers"), ("o", "orders"), ("i", "items")],
        predicates=[
            column_equals_column("c", "cid", "o", "cid"),
            column_equals_column("o", "oid", "i", "oid"),
            column_compare_literal("c", "score", ">", 10),
            column_compare_literal("i", "quantity", ">=", 2),
        ],
    )


@pytest.fixture(scope="session")
def job_workload():
    """A very small JOB-analogue workload shared by engine integration tests."""
    return make_job_workload(scale=0.12, seed=5)


@pytest.fixture
def baseline_engines() -> Iterator[tuple[str, ...]]:
    """The benchmark harness's ``eddy`` and ``reoptimizer`` plug-ins, in the
    default registry for one test."""
    from benchmarks.paper import baselines

    specs = baselines.register()
    yield tuple(spec.name for spec in specs)
    baselines.unregister()
