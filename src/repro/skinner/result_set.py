"""Skinner-C's result set: the tuples of all join orders, repeats dropped.

Different join orders can regenerate the same result tuple; Skinner-C stores
result tuples as vectors of base-table row positions (one per query alias,
in a canonical alias order), so duplicates across join orders are
eliminated before materialization (paper §4.5 and Theorem 5.3).

One join order cannot: resumed from its own saved state it only moves
forward lexicographically, so it never emits a tuple twice.  The store is
therefore a list of int64 matrix blocks, appended as they are emitted, and
distinctness is established only once a second source has emitted — then
lazily, when somebody looks (:meth:`JoinResultSet.drain_new`,
:meth:`~JoinResultSet.to_relation`, ``len``), by sorting packed integer
keys.  No Python object is ever made per row.

Only Skinner-C's join orders need this: rows distinct by construction —
Skinner-G's batches, one morsel's — go straight to
:meth:`RowIdRelation.from_blocks`, which sorts this set's rows too.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.engine.relation import RowIdRelation, stack_blocks


_KEY_BITS = 63


class JoinResultSet:
    """A set of result tuples in tuple-index representation.

    Rows arrive in blocks.  A block comes with a *source*: a promise that
    blocks carrying the same source never repeat a row, neither inside a
    block nor across blocks — a join order resumed from its own saved
    state, the disjoint morsels of one partition.  While every block so far
    carries one source the rows are distinct as they stand and nothing is
    checked; from the first block of another source on (or of none, which
    promises nothing) new blocks wait until somebody looks, and are then
    filtered against everything before them, first occurrences kept.
    """

    def __init__(self, aliases: Sequence[str]) -> None:
        self._aliases = tuple(aliases)
        #: Rows in the order they were added; a streaming consumer drains
        #: the suffix it has not seen yet, which never touches what
        #: finalization reads.  The first ``_settled`` blocks hold
        #: ``_rows`` rows known distinct, the rest are unchecked.
        self._blocks: list[np.ndarray] = []
        self._settled = 0
        self._rows = 0
        self._drained = 0
        #: Sources of the unchecked blocks.
        self._unchecked: list[Hashable | None] = []
        #: Sorted keys of the settled rows, built by the first distinctness
        #: pass (until then one source has emitted everything), and the
        #: bits each column takes in a key (``None``: the values do not fit
        #: one int64 and the key is the row's bytes).
        self._seen: np.ndarray | None = None
        self._widths: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        #: The source whose blocks were the last to be settled, and their
        #: keys: its next block cannot repeat them, so they are sorted in
        #: among ``_seen`` only when a block of another source has to be
        #: compared with them.
        self._run: Hashable | None = None
        self._run_keys: list[np.ndarray] = []
        #: How many times rows had to be compared to settle distinctness.
        self.distinctness_passes = 0

    @property
    def aliases(self) -> tuple[str, ...]:
        """Canonical alias order of the stored index vectors."""
        return self._aliases

    def __len__(self) -> int:
        self._settle()
        return self._rows

    def emit(self, matrix: np.ndarray, source: Hashable | None) -> None:
        """Append a block as it is; ``source`` is the promise described above.

        The matrix is adopted, so the caller must not write to it afterwards.
        """
        matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._aliases):
            raise ValueError("batch shape must be (rows, num_aliases)")
        if not matrix.shape[0]:
            return
        alone = self._seen is None and not self._unchecked and source is not None
        if alone and (not self._blocks or source == self._run):
            self._run = source
            self._settled += 1
            self._rows += matrix.shape[0]
        else:
            self._unchecked.append(source)
        self._blocks.append(matrix)

    def drain_new(self) -> np.ndarray:
        """Rows added since the last drain, in discovery order, as a matrix.

        Only a cursor advances: the blocks stay, so finalization is
        byte-identical whether or not the result was streamed.
        """
        self._settle()
        fresh = self._blocks[self._drained:]
        self._drained = len(self._blocks)
        return stack_blocks(fresh, len(self._aliases))

    def to_relation(self) -> RowIdRelation:
        """The set as a row-id relation over the alias order.

        Only distinctness is settled now, for the length; the relation
        sorts the rows the first time post-processing reads an alias, which
        a ``COUNT(*)`` never does.  Rows emitted after this call are not in
        the relation, and the relation holds the blocks alone, not the
        set's keys.
        """
        self._settle()
        return RowIdRelation.from_blocks(self._aliases, self._blocks)

    def estimated_bytes(self) -> int:
        """Rough memory footprint: 8 bytes per stored index."""
        return len(self) * len(self._aliases) * 8

    # ------------------------------------------------------------------
    # distinctness, once more than one source has emitted
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Drop from the unchecked blocks every row stored before it.

        What survives replaces them as one block, in the order it arrived
        — what adding the rows one by one to a set would have kept.
        """
        blocks = self._blocks
        if self._settled == len(blocks):
            return
        self.distinctness_passes += 1
        sources = set(self._unchecked)
        source = sources.pop() if len(sources) == 1 else None
        self._unchecked = []
        pending = stack_blocks(blocks[self._settled:], len(self._aliases))
        keys = self._keys(pending) if self._seen is not None else None
        if keys is None:
            keys = self._rekey(pending)
        if source is None or source != self._run:
            self._close_run()
        seen = self._seen
        if seen.shape[0]:
            fresh = seen.take(seen.searchsorted(keys), mode="clip") != keys
        else:
            fresh = np.ones(keys.shape[0], dtype=bool)
        if source is None:  # nothing promised: the rows may repeat each other
            arrival = keys.argsort(kind="stable")
            ranked = keys[arrival]
            fresh[arrival[1:][ranked[1:] == ranked[:-1]]] = False
        if not fresh.all():
            keys = keys[fresh]
            blocks[self._settled:] = [pending[fresh]] if keys.shape[0] else []
        self._run = source
        self._run_keys.append(keys)
        self._settled = len(blocks)
        self._rows += keys.shape[0]

    def _close_run(self) -> None:
        """Sort the keys of the run that just ended in among the rest."""
        if self._run_keys:
            self._seen = np.concatenate((self._seen, *self._run_keys))
            # A sorted array and a short tail: the stable sort merges them
            # in linear time where the default one would start over.
            self._seen.sort(kind="stable")
            self._run_keys = []

    def _keys(self, matrix: np.ndarray) -> np.ndarray | None:
        """One key per row, comparable with ``_seen``; ``None`` if one does not fit."""
        if self._widths is None:
            return matrix.view(np.dtype((np.void, 8 * matrix.shape[1]))).ravel()
        if (matrix >> self._widths).any():  # too large, or negative
            return None
        return matrix @ self._weights

    def _rekey(self, pending: np.ndarray) -> np.ndarray:
        """Choose keys that hold every row so far; returns those of ``pending``.

        A column takes the bits of its largest value and an equal share of
        the bits that leaves over, so the keys stand until a value outgrows
        that.  Negative values, or more than 63 bits in all, and the key is
        the row's bytes from then on.
        """
        rows = stack_blocks(self._blocks[: self._settled] + [pending], len(self._aliases))
        widths = [high.bit_length() for high in rows.max(axis=0).tolist()]
        spare = (_KEY_BITS - sum(widths)) // len(widths)
        self._widths = None
        if rows.min() >= 0 and spare >= 0:
            self._widths = np.array(widths) + spare
            # A column's weight is two to the bits of the columns after it.
            self._weights = 1 << (self._widths[::-1].cumsum()[::-1] - self._widths)
        keys = self._keys(rows)
        settled = keys.shape[0] - pending.shape[0]
        self._seen = np.sort(keys[:settled])
        self._run_keys = []
        return keys[settled:]
