"""UCT references: the UCB1 score one child at a time, and tree counts by walking.

:func:`ucb_score` is the formula :meth:`~repro.uct.tree.UctJoinTree._select_ucb`
inlines (with the parent's logarithm taken once); :func:`subtree_size`
counts a subtree's nodes by walking it, the reference of the tree's running
:meth:`~repro.uct.tree.UctJoinTree.node_count`; :func:`tracker_nodes` walks
a :class:`~repro.skinner.progress.ProgressTracker`'s prefix tree the same
way; :func:`selection_counts` reads how often the tree chose each complete
order.
"""

from __future__ import annotations

import math

from repro.skinner.progress import ProgressTracker
from repro.uct.node import UctNode
from repro.uct.policy import DEFAULT_EXPLORATION_WEIGHT
from repro.uct.tree import UctJoinTree


def ucb_score(
    average_reward: float,
    visits: int,
    parent_visits: int,
    exploration_weight: float = DEFAULT_EXPLORATION_WEIGHT,
) -> float:
    """UCB1 score of a child node.

    Unvisited children receive an infinite score so they are always explored
    before any child is revisited.
    """
    if visits <= 0:
        return math.inf
    if parent_visits <= 0:
        return average_reward
    exploration = exploration_weight * math.sqrt(math.log(parent_visits) / visits)
    return average_reward + exploration


def subtree_size(node: UctNode) -> int:
    """Number of materialized nodes in ``node``'s subtree (including itself)."""
    return 1 + sum(subtree_size(child) for child in node.children.values())


def tracker_nodes(tracker: ProgressTracker) -> list:
    """Every materialized node of ``tracker``'s prefix tree below the root."""
    nodes = []
    pending = list(tracker._root.children.values())
    while pending:
        node = pending.pop()
        nodes.append(node)
        pending.extend(node.children.values())
    return nodes


def selection_counts(tree: UctJoinTree) -> dict[tuple[str, ...], int]:
    """How often each complete join order was selected."""
    return dict(tree._selection_counts)
