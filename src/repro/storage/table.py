"""Tables: named, equal-length collections of columns."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import CatalogError, SchemaError
from repro.storage.column import Column, ColumnType


class Table:
    """An immutable in-memory table.

    Parameters
    ----------
    name:
        Table name as referenced in queries.
    columns:
        Mapping from column name to :class:`Column` (or raw value sequences,
        which are wrapped).  All columns must have the same length.
    """

    def __init__(self, name: str, columns: Mapping[str, Column | Sequence[Any]]) -> None:
        self.name = name
        self._columns: dict[str, Column] = {}
        length: int | None = None
        for col_name, col in columns.items():
            if not isinstance(col, Column):
                col = Column(col)
            if length is None:
                length = len(col)
            elif len(col) != length:
                raise SchemaError(
                    f"column {col_name!r} of table {name!r} has length {len(col)}, "
                    f"expected {length}"
                )
            self._columns[col_name] = col
        self._num_rows = length or 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        column_names: Sequence[str],
        rows: Iterable[Sequence[Any]],
    ) -> "Table":
        """Build a table from an iterable of row tuples."""
        rows = list(rows)
        columns = {
            col_name: [row[i] for row in rows] for i, col_name in enumerate(column_names)
        }
        return cls(name, columns)

    def renamed(self, new_name: str) -> "Table":
        """Return a view of this table under a different name (for aliases)."""
        return Table(new_name, self._columns)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return self._num_rows

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return list(self._columns)

    def column(self, name: str) -> Column:
        """Return a column by name."""
        try:
            return self._columns[name]
        except KeyError as exc:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from exc

    def has_column(self, name: str) -> bool:
        """Whether the table defines a column called ``name``."""
        return name in self._columns

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self._num_rows}, cols={self.column_names})"

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def row(self, position: int) -> dict[str, Any]:
        """Return one row as a dict of decoded values."""
        return {name: col.value(position) for name, col in self._columns.items()}

    def rows(self) -> list[dict[str, Any]]:
        """Return all rows (decoded); intended for small tables and tests."""
        return [self.row(i) for i in range(self._num_rows)]

    def row_tuples(self) -> list[tuple[Any, ...]]:
        """All rows as plain tuples in column-declaration order."""
        return list(zip(*(col.values() for col in self._columns.values())))

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int | None = None) -> "Table":
        """Rows ``start:stop`` as views of this table's columns (no copy)."""
        return Table(
            self.name, {name: col.slice(start, stop) for name, col in self._columns.items()}
        )

    @staticmethod
    def concat(parts: Sequence["Table"]) -> "Table":
        """The rows of ``parts`` in order (same columns in every part)."""
        first = parts[0]
        if len(parts) == 1:
            return first
        return Table(
            first.name,
            {
                name: Column.concat([part.column(name) for part in parts])
                for name in first.column_names
            },
        )

    def select(self, positions: np.ndarray | Sequence[int]) -> "Table":
        """Return a new table containing only the given row positions."""
        positions = np.asarray(positions, dtype=np.int64)
        return Table(self.name, {name: col.take(positions) for name, col in self._columns.items()})

    def filter_mask(self, mask: np.ndarray) -> "Table":
        """Return a new table containing rows where ``mask`` is True."""
        if mask.shape[0] != self._num_rows:
            raise SchemaError("filter mask has wrong length")
        return self.select(np.flatnonzero(mask))

    def column_types(self) -> dict[str, ColumnType]:
        """Mapping from column name to its logical type."""
        return {name: col.ctype for name, col in self._columns.items()}
