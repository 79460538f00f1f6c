"""Table and column statistics for the traditional optimizer.

Statistics are collected by sampling (or scanning, for small tables) each
column: row counts, distinct counts, min/max, and a small equi-width
histogram for numeric columns.  The estimator in
:mod:`repro.optimizer.cardinality` combines them under the textbook
independence and uniformity assumptions, which is exactly what the
correlation-torture workloads exploit to mislead the baseline optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table

_HISTOGRAM_BUCKETS = 16
_SAMPLE_LIMIT = 10_000


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics of one column."""

    distinct_count: int
    min_value: float | None
    max_value: float | None
    histogram: tuple[int, ...] = field(default_factory=tuple)
    histogram_edges: tuple[float, ...] = field(default_factory=tuple)
    null_fraction: float = 0.0

    def equality_selectivity(self) -> float:
        """Estimated selectivity of ``column = literal``."""
        if self.distinct_count <= 0:
            return 1.0
        return 1.0 / self.distinct_count

    def range_selectivity(self, op: str, literal: float) -> float:
        """Estimated selectivity of ``column <op> literal`` for numeric columns."""
        if self.min_value is None or self.max_value is None:
            return 0.33
        if self.histogram and self.histogram_edges:
            return self._histogram_selectivity(op, literal)
        span = self.max_value - self.min_value
        if span <= 0:
            return 1.0 if _literal_matches(op, self.min_value, literal) else 0.0
        if op in ("<", "<="):
            fraction = (literal - self.min_value) / span
        elif op in (">", ">="):
            fraction = (self.max_value - literal) / span
        else:
            fraction = 0.33
        return float(min(1.0, max(0.0, fraction)))

    def _histogram_selectivity(self, op: str, literal: float) -> float:
        total = sum(self.histogram)
        if total == 0:
            return 0.0
        edges = self.histogram_edges
        below = 0.0
        for bucket, count in enumerate(self.histogram):
            low, high = edges[bucket], edges[bucket + 1]
            if high <= literal:
                below += count
            elif low < literal:
                width = high - low
                below += count * ((literal - low) / width if width > 0 else 0.5)
        fraction_below = below / total
        if op in ("<", "<="):
            return float(min(1.0, max(0.0, fraction_below)))
        if op in (">", ">="):
            return float(min(1.0, max(0.0, 1.0 - fraction_below)))
        return 0.33


@dataclass(frozen=True)
class TableStatistics:
    """Statistics of one table."""

    row_count: int
    columns: dict[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics | None:
        """Statistics of a column, or ``None`` if not collected."""
        return self.columns.get(name)


class StatisticsCatalog:
    """Statistics for all tables of a catalog, each table at one version."""

    def __init__(self) -> None:
        self._tables: dict[str, TableStatistics] = {}
        #: Table -> the catalog version its statistics describe.
        self._versions: dict[str, int] = {}
        #: ``Catalog.latest_version`` when these were collected.
        self._latest = -1

    @classmethod
    def of(cls, catalog: Catalog) -> "StatisticsCatalog":
        """The statistics of ``catalog`` as it stands, collected at most once
        per table version.

        The one holder of optimizer statistics: they are kept on the catalog
        they describe, so every engine, connection and server over one
        catalog shares them.  Once a table is added, replaced or dropped, or
        a rollback restores an earlier state, the next call returns new
        statistics, re-collecting only the tables whose version moved.
        """
        held = catalog.cached_statistics
        if held is None or held._latest != catalog.latest_version:
            catalog.cached_statistics = held = cls.collect(catalog)
        return held

    @classmethod
    def collect(cls, catalog: Catalog, sample_limit: int = _SAMPLE_LIMIT) -> "StatisticsCatalog":
        """Collect statistics for every table in the catalog.

        A table whose version the statistics held by :meth:`of` already
        describe is taken from them: columns are sampled with a fixed seed,
        so collecting it again would yield the same numbers.
        """
        held = catalog.cached_statistics if sample_limit == _SAMPLE_LIMIT else None
        stats = cls()
        stats._latest = catalog.latest_version
        for table in catalog:
            version = catalog.version(table.name)
            if held is not None and held._versions.get(table.name) == version:
                stats._tables[table.name] = held._tables[table.name]
            else:
                stats._tables[table.name] = _collect_table(table, sample_limit)
            stats._versions[table.name] = version
        return stats

    def table(self, name: str) -> TableStatistics | None:
        """Statistics for a table, or ``None`` if unknown."""
        return self._tables.get(name)


def _collect_table(table: Table, sample_limit: int) -> TableStatistics:
    columns: dict[str, ColumnStatistics] = {}
    for name in table.column_names:
        columns[name] = _collect_column(table.column(name), sample_limit)
    return TableStatistics(row_count=table.num_rows, columns=columns)


def _collect_column(column: Column, sample_limit: int) -> ColumnStatistics:
    n = len(column)
    if n == 0:
        return ColumnStatistics(distinct_count=0, min_value=None, max_value=None)
    if n > sample_limit:
        rng = np.random.default_rng(7)
        positions = rng.choice(n, size=sample_limit, replace=False)
        sampled = column.take(np.sort(positions))
        scale = n / sample_limit
    else:
        sampled = column
        scale = 1.0
    distinct = max(1, int(round(sampled.distinct_count() * min(scale, 1.0 + (scale - 1.0) * 0.5))))
    if column.ctype is ColumnType.STRING:
        return ColumnStatistics(distinct_count=distinct, min_value=None, max_value=None)
    data = sampled.data.astype(np.float64)
    # NaN entries (e.g. the "no numeric value" marker of shredded document
    # tables) carry no range information and would poison the histogram's
    # autodetected bounds; statistics describe the finite values only.
    finite = data[np.isfinite(data)]
    if finite.size == 0:
        return ColumnStatistics(distinct_count=distinct, min_value=None,
                                max_value=None)
    histogram, edges = np.histogram(finite, bins=_HISTOGRAM_BUCKETS)
    return ColumnStatistics(
        distinct_count=distinct,
        min_value=float(finite.min()),
        max_value=float(finite.max()),
        histogram=tuple(int(c) for c in histogram),
        histogram_edges=tuple(float(e) for e in edges),
    )


def _literal_matches(op: str, value: float, literal: float) -> bool:
    if op == "<":
        return value < literal
    if op == "<=":
        return value <= literal
    if op == ">":
        return value > literal
    if op == ">=":
        return value >= literal
    return value == literal
