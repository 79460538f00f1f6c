"""Shared fixtures and a brute-force reference oracle for differential tests."""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterator
from contextlib import contextmanager
from typing import Any

import numpy as np
import pytest

from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.relation import RowIdRelation
from repro.engine.statement_cache import StatementCache
from repro.engine.versioned_lru import Entry, VersionedLru
from repro.query.expressions import ColumnRef, FunctionCall
from repro.query.predicates import Predicate
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.skinner.multiway_join import MultiwayJoin
from repro.skinner.result_set import JoinResultSet
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.workloads.job import make_job_workload
from benchmarks.paper.scalar import holds
from benchmarks.paper.queries import make_query


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
        if all(holds(predicate, binding, udfs) for predicate in query.predicates):
            result.add(tuple(combination))
    return result


def index_tuples(relation: RowIdRelation, aliases=None) -> list[tuple[int, ...]]:
    """A relation's rows as index tuples ordered by ``aliases`` (default: its own)."""
    return [tuple(row) for row in relation.matrix(aliases).tolist()]


def lookup(jmap: GroupedJoinMap, value):
    """The rows ``jmap`` holds for one decoded ``value``, ``None`` where it holds
    none: the value probed as a one-row column through ``slots`` and ``bounds``."""
    source = Table("p", {"c": [value]}).column("c")
    starts, counts = jmap.bounds(jmap.slots(source.data, source))
    start, count = int(starts[0]), int(counts[0])
    return jmap.rows[start:start + count] if count else None


def matching_rows(keys: Column, probes: Column) -> list[list[int]]:
    """Per row of ``probes``, the rows of ``keys`` holding an equal value: a
    join map over all of ``keys`` probed with the whole of ``probes``."""
    jmap = GroupedJoinMap(keys, np.arange(len(keys), dtype=np.int64))
    starts, counts = jmap.bounds(jmap.slots(probes.data, probes))
    return [jmap.rows[start:start + count].tolist() for start, count in zip(starts, counts)]


def udf_predicate(name: str, *columns: tuple[str, str]) -> Predicate:
    """A bare boolean UDF predicate over the given (table, column) refs."""
    return Predicate(FunctionCall(name, tuple(ColumnRef(table, column)
                                              for table, column in columns)))


def parked_frame_sets(join: MultiwayJoin) -> int:
    """How many suspended orders ``join`` keeps the look-ahead of."""
    return len(join._parked)


def lru_items(lru: VersionedLru) -> list[tuple[Hashable, Entry]]:
    """The entries a cache holds (stale ones dropped), least recently used first."""
    lru._sync()
    return list(lru._entries.items())


def statement_versions(cache: StatementCache) -> dict[str, int | None]:
    """Per table with statement-cache entries: the version they were built on
    (``None``: a parse naming a table the catalog did not hold)."""
    return {name: version for _, entry in lru_items(cache.lru)
            for name, version in zip(entry.tables, entry.versions[1:])}


def add_rows(results: JoinResultSet, rows) -> int:
    """Add rows that may repeat anything (``emit`` with no source) and
    return how many were new, which settles distinctness on the spot."""
    matrix = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=np.int64)
    if matrix.ndim != 2:
        matrix = matrix.reshape(-1, len(results.aliases))
    before = len(results)
    results.emit(matrix, None)
    return len(results) - before


def result_tuples(results: JoinResultSet) -> list[tuple[int, ...]]:
    """A result set's rows as tuples in discovery order, draining nothing."""
    results._settle()
    return [tuple(row) for row in results._stacked(results._blocks).tolist()]


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
