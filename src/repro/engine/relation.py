"""Row-id relations: join results as vectors of base-table row positions.

A join result over aliases ``(a, b, c)`` is stored as three equally long
integer arrays: row ``i`` of the result is the combination of base-table
rows ``ids['a'][i]``, ``ids['b'][i]``, ``ids['c'][i]``.  This mirrors the
paper's concise tuple representation (§4.5): tuples are described by arrays
of tuple indices and materialized only on demand.  A relation may even
defer its index arrays (:meth:`RowIdRelation.deferred`): it knows its
aliases and length, and builds the arrays the first time one is read, so a
statement that reads none — ``COUNT(*)`` — never builds them.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.storage.table import Table


class RowIdRelation:
    """A (possibly intermediate) join result in row-id representation."""

    def __init__(self, ids: Mapping[str, np.ndarray]) -> None:
        self._columns: dict[str, np.ndarray] | None = {}
        length: int | None = None
        for alias, positions in ids.items():
            positions = np.asarray(positions, dtype=np.int64)
            if length is None:
                length = positions.shape[0]
            elif positions.shape[0] != length:
                raise ExecutionError("row-id vectors must have equal length")
            self._columns[alias] = positions
        self._aliases = tuple(self._columns)
        self._length = length or 0
        self._build: Callable[[], np.ndarray] | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def deferred(
        cls, aliases: Sequence[str], length: int, build: Callable[[], np.ndarray]
    ) -> "RowIdRelation":
        """A relation of ``length`` rows whose ``(rows, aliases)`` matrix
        ``build()`` makes the first time anything reads an index array."""
        relation = cls({})
        relation._columns, relation._build = None, build
        relation._aliases, relation._length = tuple(aliases), length
        return relation

    @classmethod
    def from_base(cls, alias: str, positions: np.ndarray | Sequence[int]) -> "RowIdRelation":
        """A relation over a single base table."""
        return cls({alias: np.asarray(positions, dtype=np.int64)})

    @classmethod
    def empty(cls, aliases: Sequence[str]) -> "RowIdRelation":
        """An empty relation over the given aliases."""
        return cls({alias: np.empty(0, dtype=np.int64) for alias in aliases})

    @classmethod
    def from_index_tuples(
        cls, aliases: Sequence[str], tuples: Sequence[Sequence[int]]
    ) -> "RowIdRelation":
        """Build from a list of index tuples ordered like ``aliases``."""
        if not tuples:
            return cls.empty(aliases)
        return cls.from_matrix(aliases, np.asarray(tuples, dtype=np.int64))

    @classmethod
    def from_matrix(cls, aliases: Sequence[str], matrix: np.ndarray) -> "RowIdRelation":
        """Build from a ``(rows, aliases)`` int64 matrix (one column per alias)."""
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(aliases):
            raise ExecutionError("matrix shape must be (rows, num_aliases)")
        return cls({alias: matrix[:, i] for i, alias in enumerate(aliases)})

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def aliases(self) -> list[str]:
        """Aliases covered by this relation."""
        return list(self._aliases)

    @property
    def _ids(self) -> dict[str, np.ndarray]:
        """The index arrays, built now if they were deferred."""
        if self._columns is None:
            matrix = self._build()
            if matrix.shape != (self._length, len(self._aliases)):
                raise ExecutionError("deferred matrix shape must be (length, num_aliases)")
            self._columns = {alias: matrix[:, i] for i, alias in enumerate(self._aliases)}
            self._build = None
        return self._columns

    def ids(self, alias: str) -> np.ndarray:
        """Row positions for one alias."""
        try:
            return self._ids[alias]
        except KeyError as exc:
            raise ExecutionError(f"relation does not cover alias {alias!r}") from exc

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return f"RowIdRelation(aliases={self.aliases}, rows={self._length})"

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def take(self, selector: np.ndarray) -> "RowIdRelation":
        """Return a new relation restricted to the selected result rows."""
        return RowIdRelation({alias: positions[selector] for alias, positions in self._ids.items()})

    def extend(self, alias: str, positions: np.ndarray, selector: np.ndarray) -> "RowIdRelation":
        """Join in a new alias.

        ``selector`` picks, for each output row, which existing result row it
        derives from; ``positions`` gives the new alias's base-table row for
        each output row.
        """
        ids = {existing: values[selector] for existing, values in self._ids.items()}
        ids[alias] = np.asarray(positions, dtype=np.int64)
        return RowIdRelation(ids)

    def canonical_order(self, aliases: Sequence[str] | None = None) -> "RowIdRelation":
        """Rows lexsorted by the given alias order.

        The same canonical order :meth:`JoinResultSet.to_matrix` produces,
        so a materialized row order becomes a pure function of the result
        *set* — never of the executor (hash join, external scan, ...) that
        happened to find the tuples.
        """
        if self._length == 0:
            return self
        order = np.lexsort(self.matrix(aliases).T[::-1])
        return RowIdRelation({alias: ids[order] for alias, ids in self._ids.items()})

    def matrix(self, aliases: Sequence[str] | None = None) -> np.ndarray:
        """The result as a ``(rows, aliases)`` int64 matrix, one column per alias."""
        order = list(aliases) if aliases is not None else self.aliases
        return np.stack([self._ids[alias] for alias in order], axis=1)

    def index_tuples(self, aliases: Sequence[str] | None = None) -> list[tuple[int, ...]]:
        """Return the result as a list of index tuples ordered by ``aliases``."""
        order = list(aliases) if aliases is not None else self.aliases
        columns = [self._ids[alias] for alias in order]
        return [tuple(int(column[row]) for column in columns) for row in range(self._length)]

    # ------------------------------------------------------------------
    # materialization helpers
    # ------------------------------------------------------------------
    def binding(self, row: int, tables: Mapping[str, Table]) -> dict[str, dict[str, Any]]:
        """Materialize result row ``row`` as ``alias -> {column: value}``."""
        bound: dict[str, dict[str, Any]] = {}
        for alias, positions in self._ids.items():
            table = tables[alias]
            bound[alias] = table.row(int(positions[row]))
        return bound
