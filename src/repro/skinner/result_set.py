"""Result set of tuple-index vectors with duplicate elimination.

Different join orders can regenerate the same result tuple; Skinner-C stores
result tuples as vectors of base-table row positions (one per query alias,
in a canonical alias order), so duplicates across join orders are
eliminated before materialization (paper §4.5 and Theorem 5.3).

The tuples stay arrays from the join's emit onward: the store is a list of
int64 matrix blocks in discovery order plus a membership set holding one
key per row, the row's bytes.  Nothing is ever turned into a Python tuple
unless a caller asks for :meth:`JoinResultSet.tuples`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.engine.relation import RowIdRelation


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


class JoinResultSet:
    """A set of result tuples in tuple-index representation."""

    def __init__(self, aliases: Sequence[str]) -> None:
        self._aliases = tuple(aliases)
        #: One opaque element per matrix row: viewing a block through it
        #: yields the rows' bytes, the membership keys.
        self._row = np.dtype((np.void, 8 * len(self._aliases)))
        self._keys: set[bytes] = set()
        #: The new rows of every batch, in the order they were added.  The
        #: blocks are the store; a streaming consumer drains the suffix it
        #: has not seen yet, which never touches what finalization reads.
        self._blocks: list[np.ndarray] = []
        self._drained = 0

    @property
    def aliases(self) -> tuple[str, ...]:
        """Canonical alias order of the stored index vectors."""
        return self._aliases

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, index_tuple: Sequence[int]) -> bool:
        return np.asarray(index_tuple, dtype=np.int64).tobytes() in self._keys

    def add(self, index_tuple: Sequence[int]) -> bool:
        """Add one index vector; returns True if it was new."""
        return self.add_many([index_tuple]) == 1

    def add_many(self, index_tuples: Iterable[Sequence[int]]) -> int:
        """Add several index vectors; returns how many were new."""
        matrix = np.asarray(list(index_tuples), dtype=np.int64)
        return self.add_batch(matrix.reshape(-1, len(self._aliases)))

    def add_batch(self, matrix: np.ndarray) -> int:
        """Bulk-add a ``(rows, aliases)`` int matrix of index vectors.

        The rows not stored yet are kept, first occurrences first, as one
        block; returns how many there were.  The matrix is adopted when all
        of it is new (what the multi-way join emits almost always is), so
        the caller must not write to it afterwards.
        """
        matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._aliases):
            raise ValueError("batch shape must be (rows, num_aliases)")
        keys = matrix.view(self._row).ravel().tolist()
        stored = self._keys
        before = len(stored)
        whole = stored.isdisjoint(keys)
        if whole:
            stored.update(keys)
            whole = len(stored) - before == len(keys)
            if not whole:  # repeats inside the batch: undo, filter row by row
                stored.difference_update(keys)
        if not whole:
            store = stored.add
            matrix = matrix[[row for row, key in enumerate(keys)
                             if key not in stored and not store(key)]]
        if matrix.shape[0]:
            self._blocks.append(matrix)
        return len(stored) - before

    def tuples(self) -> list[tuple[int, ...]]:
        """All stored index vectors as tuples, in discovery order."""
        return list(map(tuple, self._stacked(self._blocks).tolist()))

    def drain_new(self) -> np.ndarray:
        """Rows added since the last drain, in discovery order, as a matrix.

        Only a cursor advances: the blocks stay, so finalization is
        byte-identical whether or not the result was streamed.
        """
        fresh = self._blocks[self._drained:]
        self._drained = len(self._blocks)
        return self._stacked(fresh)

    def to_matrix(self) -> np.ndarray:
        """The stored index vectors as a ``(rows, aliases)`` int64 matrix.

        Rows are sorted lexicographically (same order ``sorted`` gives the
        tuples), so downstream consumers — materialization, the columnar
        post-processing pipeline — see a deterministic row order regardless
        of which join orders produced the tuples.
        """
        matrix = self._stacked(self._blocks)
        return matrix[_lexicographic_order(matrix)]

    def to_relation(self) -> RowIdRelation:
        """Materialize the set as a row-id relation over the alias order."""
        return RowIdRelation.from_matrix(self._aliases, self.to_matrix())

    def estimated_bytes(self) -> int:
        """Rough memory footprint: 8 bytes per stored index."""
        return len(self._keys) * len(self._aliases) * 8

    def _stacked(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return np.empty((0, len(self._aliases)), dtype=np.int64)
        return np.concatenate(blocks)
