"""The progress tracker: saving, sharing, and restoring execution state.

Skinner-C never loses work when it switches join orders: the state of every
join order tried so far (one tuple index per table) is kept, and join orders
sharing a *prefix* share progress.  The tracker stores, for every join-order
prefix seen so far, the lexicographically most advanced index vector backed
up for that prefix.  A full-length prefix is one join order, so its leaf
holds that order's own last state (fully resumable); every shorter prefix
holds the most advanced state of any order sharing it: all index
combinations strictly below the stored prefix vector are known to be fully
processed, so the restored order may "fast-forward" to it with the deeper
positions reset to the shared offsets (paper §4.5).

The number of tracker nodes is reported for the memory analysis (Figure 8).
Nodes are never removed, so the tracker counts them, and the bytes of their
states, as it makes them: reading either costs nothing.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from repro.skinner.state import JoinState, clamp_in_place, initial_state


class _PrefixNode:
    """Tree node for one join-order prefix."""

    __slots__ = ("children", "best_prefix_state")

    def __init__(self) -> None:
        self.children: dict[str, _PrefixNode] = {}
        self.best_prefix_state: tuple[int, ...] | None = None


class ProgressTracker:
    """Stores execution progress per join order and per join-order prefix."""

    def __init__(self, aliases: tuple[str, ...]) -> None:
        self._root = _PrefixNode()
        #: Nodes made so far, the root included, and 8 bytes per index they store.
        self._node_count = 1
        self._state_bytes = 0
        self._offsets: dict[str, int] = dict.fromkeys(aliases, 0)
        self._offsets_view = MappingProxyType(self._offsets)

    # ------------------------------------------------------------------
    # offsets
    # ------------------------------------------------------------------
    @property
    def offsets(self) -> Mapping[str, int]:
        """Per-alias count of leading filtered tuples that are fully processed.

        A read-only view that follows :meth:`advance_offset`, not a copy.
        """
        return self._offsets_view

    def advance_offset(self, alias: str, index: int) -> None:
        """Record that all filtered tuples of ``alias`` below ``index`` are done."""
        if index > self._offsets[alias]:
            self._offsets[alias] = index

    # ------------------------------------------------------------------
    # backup
    # ------------------------------------------------------------------
    def backup(self, state: JoinState) -> None:
        """Store the state of a join order after a time slice."""
        indices = state.as_tuple()
        node = self._root
        for position, alias in enumerate(state.order):
            child = node.children.get(alias)
            if child is None:
                # A new node stores a state of this prefix's length just below.
                child = node.children[alias] = _PrefixNode()
                self._node_count += 1
                self._state_bytes += 8 * (position + 1)
            node = child
            prefix_state = indices[: position + 1]
            if node.best_prefix_state is None or prefix_state > node.best_prefix_state:
                node.best_prefix_state = prefix_state

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def restore(self, order: tuple[str, ...], cardinalities: Mapping[str, int]) -> JoinState:
        """Return the most advanced safe state to resume ``order`` from."""
        candidates: list[tuple[int, ...]] = []
        node = self._root
        for position, alias in enumerate(order):
            node = node.children.get(alias)
            if node is None:
                break
            if node.best_prefix_state is not None:
                prefix = node.best_prefix_state
                rest = tuple(
                    self._offsets.get(order[p], 0) for p in range(position + 1, len(order))
                )
                candidates.append(prefix + rest)
        if not candidates:  # every index at its offset: nothing to clamp
            return initial_state(order, self._offsets)
        return clamp_in_place(JoinState(order, list(max(candidates))), self._offsets,
                              cardinalities)

    # ------------------------------------------------------------------
    # memory accounting (Figure 8)
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Number of prefix-tree nodes currently materialized (root included)."""
        return self._node_count

    def estimated_bytes(self) -> int:
        """Rough memory footprint of the stored states."""
        return self._state_bytes
