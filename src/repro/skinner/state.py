"""Execution state of the multi-way join: tuple indices and offsets.

The whole point of Skinner-C's engine design is that the execution state of
a partially evaluated join order is tiny: one integer per table (the current
tuple index into the filtered table) plus the shared per-table offsets of
tuples that are globally finished.  That makes backup and restore when
switching join orders essentially free (paper §4.5).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field


@dataclass
class JoinState:
    """Tuple indices for one join order.

    ``indices[p]`` is the current index (into the *filtered* tuple array) of
    the table at position ``p`` of the join order.  Indices are 0-based; an
    index equal to the table's filtered cardinality means "exhausted".
    """

    order: tuple[str, ...]
    indices: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.indices:
            self.indices = [0] * len(self.order)
        if len(self.indices) != len(self.order):
            raise ValueError("state length must match join order length")

    def copy(self) -> "JoinState":
        """Deep copy of the state."""
        copy = object.__new__(JoinState)  # a valid state: nothing to check
        copy.order, copy.indices = self.order, list(self.indices)
        return copy

    def as_tuple(self) -> tuple[int, ...]:
        """The indices as an immutable tuple (position order)."""
        return tuple(self.indices)

    def progress_fraction(self, cardinalities: Mapping[str, int]) -> float:
        """Fraction of the lexicographic index space already covered.

        ``sum_p index_p / prod_{q <= p} card_q`` — the quantity the refined
        reward function is the delta of.
        """
        fraction = 0.0
        scale = 1.0
        for alias, index in zip(self.order, self.indices):
            cardinality = cardinalities[alias]
            scale *= cardinality if cardinality > 1 else 1
            fraction += index / scale
        return min(1.0, fraction)


def clamp_in_place(
    state: JoinState, offsets: Mapping[str, int], cardinalities: Mapping[str, int]
) -> JoinState:
    """Raise ``state``'s indices to at least the shared offsets, in place.

    Tuples below an offset are globally finished, so raising an index to the
    offset never skips unprocessed results.  Raising an index at position
    ``p`` does, however, invalidate the meaning of all deeper indices (they
    recorded progress for the *old* value at ``p``), so every position after
    the first raised one is reset to its offset.

    An alias absent from ``cardinalities`` is treated as unbounded: clamping
    its index *down* to a defaulted cardinality of 0 would silently rewind a
    valid state without setting ``raised``, leaving the deeper indices with
    stale meaning (they recorded progress for the original index).  The
    state is returned; pass a copy of one somebody else holds.
    """
    indices = state.indices
    raised = False
    for position, alias in enumerate(state.order):
        low = offsets.get(alias, 0)
        if raised:
            indices[position] = low
            continue
        index = indices[position]
        if index < low:
            indices[position] = low
            raised = True
            continue
        cardinality = cardinalities.get(alias)
        if cardinality is not None and index > cardinality and index > low:
            indices[position] = max(low, cardinality)
    return state


def initial_state(order: Sequence[str], offsets: Mapping[str, int]) -> JoinState:
    """The state at which a join order starts: every index at its offset."""
    order = tuple(order)
    return JoinState(order, [offsets.get(alias, 0) for alias in order])
