"""Result set of tuple-index vectors with duplicate elimination.

Different join orders can regenerate the same result tuple; Skinner-C stores
result tuples as vectors of base-table row positions (one per query alias,
in a canonical alias order) inside a set, so duplicates across join orders
are eliminated before materialization (paper §4.5 and Theorem 5.3).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.engine.relation import RowIdRelation


class JoinResultSet:
    """A set of result tuples in tuple-index representation."""

    def __init__(self, aliases: Sequence[str]) -> None:
        self._aliases = tuple(aliases)
        self._tuples: set[tuple[int, ...]] = set()
        #: Completion-safe streaming journal: when enabled, every *new* tuple
        #: is also appended here in insertion order, and a streaming consumer
        #: drains the undelivered suffix between episodes.  Draining never
        #: touches the set, so finalization stays byte-identical whether or
        #: not the result was streamed.
        self._stream_log: list[tuple[int, ...]] | None = None
        self._stream_cursor = 0

    @property
    def aliases(self) -> tuple[str, ...]:
        """Canonical alias order of the stored index vectors."""
        return self._aliases

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, index_tuple: tuple[int, ...]) -> bool:
        return tuple(index_tuple) in self._tuples

    def add(self, index_tuple: Sequence[int]) -> bool:
        """Add one index vector; returns True if it was new."""
        key = tuple(int(i) for i in index_tuple)
        if key in self._tuples:
            return False
        self._tuples.add(key)
        if self._stream_log is not None:
            self._stream_log.append(key)
        return True

    def add_many(self, index_tuples: Iterable[Sequence[int]]) -> int:
        """Add several index vectors; returns how many were new."""
        added = 0
        for index_tuple in index_tuples:
            if self.add(index_tuple):
                added += 1
        return added

    def add_batch(self, matrix: np.ndarray) -> int:
        """Bulk-add a ``(rows, aliases)`` int matrix of index vectors.

        Used by the batched multi-way join to emit a whole surviving batch in
        one call.  ``ndarray.tolist`` yields plain Python ints, so the stored
        keys are identical to those produced by :meth:`add`.
        """
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._aliases):
            raise ValueError("batch shape must be (rows, num_aliases)")
        tuples = self._tuples
        before = len(tuples)
        keys = map(tuple, matrix.tolist())
        if self._stream_log is None:
            tuples.update(keys)
        else:
            # The journal takes exactly the new tuples, in batch order
            # (``dict.fromkeys`` drops repeats inside the batch, keeping the
            # first of each).
            fresh = [key for key in dict.fromkeys(keys) if key not in tuples]
            tuples.update(fresh)
            self._stream_log.extend(fresh)
        return len(tuples) - before

    def tuples(self) -> list[tuple[int, ...]]:
        """All stored index vectors (unordered)."""
        return list(self._tuples)

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def enable_streaming(self) -> None:
        """Start journaling newly added tuples for incremental delivery.

        Tuples already present (e.g. the single-table fast path populates
        the set at task construction) enter the journal in ascending order,
        which for that path equals their insertion order — the journal is
        deterministic regardless of set iteration order.
        """
        if self._stream_log is None:
            self._stream_log = sorted(self._tuples)
            self._stream_cursor = 0

    @property
    def streaming(self) -> bool:
        """Whether the streaming journal is active."""
        return self._stream_log is not None

    def drain_new(self) -> list[tuple[int, ...]]:
        """Journaled tuples not yet delivered (advances the drain cursor)."""
        if self._stream_log is None:
            return []
        batch = self._stream_log[self._stream_cursor:]
        self._stream_cursor = len(self._stream_log)
        return batch

    def to_matrix(self) -> np.ndarray:
        """The stored index vectors as a ``(rows, aliases)`` int64 matrix.

        Rows are sorted lexicographically (same order ``sorted`` gives the
        tuples), so downstream consumers — materialization, the columnar
        post-processing pipeline — see a deterministic row order regardless
        of which join orders produced the tuples.
        """
        if not self._tuples:
            return np.empty((0, len(self._aliases)), dtype=np.int64)
        matrix = np.array(list(self._tuples), dtype=np.int64)
        if matrix.ndim == 1:  # zero aliases cannot happen, but be explicit
            matrix = matrix.reshape(len(self._tuples), -1)
        order = np.lexsort(matrix.T[::-1])
        return matrix[order]

    def to_relation(self) -> RowIdRelation:
        """Materialize the set as a row-id relation over the alias order."""
        return RowIdRelation.from_matrix(self._aliases, self.to_matrix())

    def estimated_bytes(self) -> int:
        """Rough memory footprint: 8 bytes per stored index."""
        return len(self._tuples) * len(self._aliases) * 8
