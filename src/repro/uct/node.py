"""Nodes of the materialized UCT search tree."""

from __future__ import annotations


class UctNode:
    """One materialized node of the UCT tree.

    A node represents a join-order prefix.  Outgoing edges are labelled with
    the table alias chosen next; only edges that have been expanded carry a
    child node (the tree grows by at most one node per round).
    """

    __slots__ = ("prefix", "visits", "reward_sum", "children", "fully_expanded")

    def __init__(self, prefix: tuple[str, ...]) -> None:
        self.prefix = prefix
        self.visits = 0
        self.reward_sum = 0.0
        self.children: dict[str, UctNode] = {}
        #: Set once every eligible action has a child; children are never
        #: removed, so selection need not look for unexplored actions again.
        self.fully_expanded = False

    @property
    def average_reward(self) -> float:
        """Mean reward of all rounds that passed through this node."""
        if self.visits == 0:
            return 0.0
        return self.reward_sum / self.visits

    def child(self, action: str) -> "UctNode | None":
        """The materialized child for ``action``, or ``None``."""
        return self.children.get(action)

    def add_child(self, action: str) -> "UctNode":
        """Materialize (or return the existing) child for ``action``."""
        node = self.children.get(action)
        if node is None:
            node = UctNode(self.prefix + (action,))
            self.children[action] = node
        return node

    def update(self, reward: float) -> None:
        """Record one visit with the given reward."""
        self.visits += 1
        self.reward_sum += reward

    def seed(self, reward: float, visits: int) -> None:
        """Bulk-record ``visits`` pseudo-visits of average reward ``reward``.

        Used to warm-start a tree from statistics learned by an earlier query
        on the same join graph; equivalent to ``visits`` calls to
        :meth:`update` without the per-call overhead.
        """
        if visits < 0:
            raise ValueError("visits must be non-negative")
        self.visits += visits
        self.reward_sum += reward * visits

