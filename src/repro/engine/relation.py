"""Row-id relations: join results as vectors of base-table row positions.

A join result over aliases ``(a, b, c)`` is stored as three equally long
integer arrays: row ``i`` of the result is the combination of base-table
rows ``ids['a'][i]``, ``ids['b'][i]``, ``ids['c'][i]``.  This mirrors the
paper's concise tuple representation (§4.5): tuples are described by arrays
of tuple indices and materialized only on demand.  A relation may even
defer its index arrays (:meth:`RowIdRelation.from_blocks`): it knows its
aliases and length, and sorts the arrays into the canonical order (one
function sorts every one) the first time one is read, so a statement that
reads none — ``COUNT(*)`` — never sorts.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import ExecutionError

_INT64_RANGE = 1 << 63


def _lexicographic_order(matrix: np.ndarray) -> np.ndarray:
    """The permutation sorting a matrix of *distinct* int64 rows like tuples.

    Columns are packed mixed-radix, most significant first and each shifted
    to start at zero, into as few int64 keys as hold them — one key
    whenever the column ranges (at most the base tables' row counts)
    multiply to less than 2^63 — so the sort compares one integer per row,
    not one per alias.  Ties cannot occur between distinct rows, so the
    single-key sort need not be stable.
    """
    if not matrix.shape[0]:
        return np.empty(0, dtype=np.intp)
    lows, highs = matrix.min(axis=0).tolist(), matrix.max(axis=0).tolist()
    keys: list[np.ndarray] = []
    size = 0  # the key being packed holds values in [0, size); 0: packs no more
    for column, (low, high) in enumerate(zip(lows, highs)):
        span = high - low + 1
        if size and size * span <= _INT64_RANGE:
            keys[-1] = keys[-1] * span + (matrix[:, column] - low)
            size *= span
        elif span <= _INT64_RANGE:
            keys.append(matrix[:, column] - low)
            size = span
        else:  # a range too wide to shift into int64 sorts as it is
            keys.append(matrix[:, column])
            size = 0
    return np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])


def stack_blocks(blocks: Sequence[np.ndarray], width: int) -> np.ndarray:
    """The blocks' rows as one matrix of ``width`` columns."""
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        return np.empty((0, width), dtype=np.int64)
    return np.concatenate(blocks)


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
        self._blocks: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(cls, aliases: Sequence[str], blocks: Sequence[np.ndarray]) -> "RowIdRelation":
        """Distinct rows in ``(rows, aliases)`` int64 blocks, sorted on first
        read.  The caller must not write to the blocks afterwards."""
        relation = cls({})
        relation._aliases, relation._columns, relation._blocks = tuple(aliases), None, list(blocks)
        relation._length = sum(block.shape[0] for block in relation._blocks)
        return relation

    @classmethod
    def from_base(cls, alias: str, positions: np.ndarray | Sequence[int]) -> "RowIdRelation":
        """A relation over a single base table."""
        return cls({alias: np.asarray(positions, dtype=np.int64)})

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
        """The index arrays, stacked and sorted now if they were deferred."""
        if self._columns is None:
            matrix = stack_blocks(self._blocks, len(self._aliases))
            matrix = matrix[_lexicographic_order(matrix)]
            self._columns = {alias: matrix[:, i] for i, alias in enumerate(self._aliases)}
            self._blocks = None
        return self._columns

    def ids(self, alias: str) -> np.ndarray:
        """Row positions for one alias."""
        try:
            return self._ids[alias]
        except KeyError as exc:
            raise ExecutionError(f"relation does not cover alias {alias!r}") from exc

    def __len__(self) -> int:
        return self._length

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
        """Rows sorted like tuples over the given alias order (all aliases).

        The order :meth:`from_blocks` sorts into, so a materialized row
        order is a pure function of the result *set* — never of the
        executor (hash join, external scan, ...) that found the tuples.
        """
        if self._length == 0:
            return self
        order = _lexicographic_order(self.matrix(aliases))
        return RowIdRelation({alias: ids[order] for alias, ids in self._ids.items()})

    def matrix(self, aliases: Sequence[str] | None = None) -> np.ndarray:
        """The result as a ``(rows, aliases)`` int64 matrix, one column per alias."""
        order = list(aliases) if aliases is not None else self.aliases
        return np.stack([self._ids[alias] for alias in order], axis=1)
