"""Tables: named, equal-length collections of columns."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.errors import CatalogError, SchemaError
from repro.storage.column import Column


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
        #: Number of rows in the table.
        self.num_rows = length or 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def row(self, position: int) -> dict[str, Any]:
        """Return one row as a dict of decoded values."""
        return {name: col.value(position) for name, col in self._columns.items()}

    def rows(self) -> list[dict[str, Any]]:
        """Return all rows (decoded); intended for small tables and tests."""
        return [self.row(i) for i in range(self.num_rows)]

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
