"""The UCT search tree over join orders.

Implements the two operations the paper's algorithms use as primitives
(§4.2):

* ``UctChoice(T)`` — :meth:`UctJoinTree.choose_order`: select a complete join
  order by walking from the root, using UCB1 where node statistics exist,
  random choices elsewhere, and materializing at most one new node.
* ``RewardUpdate(T, j, r)`` — :meth:`UctJoinTree.update`: register the reward
  observed for a join order in all materialized nodes on its path.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from repro.query.join_graph import JoinGraph
from repro.uct.node import UctNode
from repro.uct.policy import DEFAULT_EXPLORATION_WEIGHT


class UctJoinTree:
    """A lazily materialized UCT tree over Cartesian-avoiding join orders."""

    def __init__(
        self,
        join_graph: JoinGraph,
        exploration_weight: float = DEFAULT_EXPLORATION_WEIGHT,
        seed: int | None = None,
    ) -> None:
        self._graph = join_graph
        self._weight = exploration_weight
        self._rng = random.Random(seed)
        self._root = UctNode(())
        #: Materialized nodes, the root included: nodes are never removed, so
        #: :meth:`_expand` counts them as it makes them.
        self._node_count = 1
        self._num_tables = len(join_graph.aliases)
        self._selection_counts: dict[tuple[str, ...], int] = {}

    # ------------------------------------------------------------------
    # properties for analysis (Figures 7 and 8)
    # ------------------------------------------------------------------
    @property
    def root(self) -> UctNode:
        """The root node (empty join prefix)."""
        return self._root

    def node_count(self) -> int:
        """Number of materialized nodes (Figure 7a / 8a)."""
        return self._node_count

    def _expand(self, node: UctNode, action: str) -> UctNode:
        """The child of ``node`` for ``action``, materialized if it is new."""
        child = node.child(action)
        if child is None:
            child = node.add_child(action)
            self._node_count += 1
        return child

    def top_orders(self, k: int) -> list[tuple[tuple[str, ...], int]]:
        """The ``k`` most frequently selected join orders with their counts."""
        ranked = sorted(self._selection_counts.items(), key=lambda item: item[1], reverse=True)
        return ranked[:k]

    def selection_shares(self, k: int) -> list[tuple[tuple[str, ...], float, int]]:
        """The ``k`` most selected orders, each with its share of their selections.

        Orders selected equally often — all of them, when the query was over
        before UCT repeated one — rank by the mean reward of the deepest
        node on their path, not by which was tried first.

        The share, not the raw reward, is what a warm-start prior carries:
        scaled progress deltas vanish as an order approaches completion
        (the finishing order often records the lowest average reward), so
        seeding raw rewards would steer the next tree away from the best
        order.  Selection frequency is what UCT concentrates on the best
        arm, ranks orders correctly, and — being much larger than the
        per-slice progress rewards — pins the seeded tree to the learned
        order until enough real evidence dilutes the seed.
        """
        top = sorted(
            self._selection_counts.items(),
            key=lambda item: (-item[1], -self._deepest_node(item[0]).average_reward),
        )[:k]
        total = sum(count for _, count in top)
        return [(order, count / total, count) for order, count in top]

    def _deepest_node(self, order: Sequence[str]) -> UctNode:
        """The last materialized node on the path of ``order``."""
        node = self._root
        for action in order:
            child = node.child(action)
            if child is None:
                break
            node = child
        return node

    # ------------------------------------------------------------------
    # UctChoice
    # ------------------------------------------------------------------
    def choose_order(self) -> tuple[str, ...]:
        """Select the join order to execute during the next time slice."""
        prefix: list[str] = []
        node: UctNode | None = self._root
        expanded_this_round = False
        while len(prefix) < self._num_tables:
            eligible = self._graph.eligible_next(prefix)
            if node is None:
                action = self._rng.choice(eligible)
            elif node.fully_expanded or not (
                unexplored := [action for action in eligible if action not in node.children]
            ):
                node.fully_expanded = True
                action = self._select_ucb(node, eligible)
                node = node.children[action]
            else:
                action = self._rng.choice(unexplored)
                if not expanded_this_round:
                    node = self._expand(node, action)
                    expanded_this_round = True
                else:
                    node = None
            prefix.append(action)
        order = tuple(prefix)
        self._selection_counts[order] = self._selection_counts.get(order, 0) + 1
        return order

    def _select_ucb(self, node: UctNode, eligible: Sequence[str]) -> str:
        # UCB1: average reward + weight * sqrt(log(parent visits) / visits),
        # infinite for an unvisited child, the parent's logarithm taken once.
        log_parent = math.log(max(1, node.visits))
        weight = self._weight
        children = node.children  # the caller ensured every eligible one exists
        best_action = eligible[0]
        best_score = -math.inf
        for action in eligible:
            child = children[action]
            visits = child.visits
            if visits <= 0:
                score = math.inf
            else:
                score = child.reward_sum / visits + weight * math.sqrt(log_parent / visits)
            if score > best_score:
                best_score = score
                best_action = action
        return best_action

    # ------------------------------------------------------------------
    # RewardUpdate
    # ------------------------------------------------------------------
    def update(self, order: Sequence[str], reward: float) -> None:
        """Register ``reward`` for ``order`` in all materialized path nodes."""
        if not 0.0 <= reward <= 1.0:
            reward = min(1.0, max(0.0, reward))
        node = self._root
        node.update(reward)
        for action in order:
            child = node.child(action)
            if child is None:
                break
            child.update(reward)
            node = child

    # ------------------------------------------------------------------
    # warm-starting (cross-query join-order cache)
    # ------------------------------------------------------------------
    def seed(self, order: Sequence[str], reward: float, visits: int = 1) -> None:
        """Pre-load the path of ``order`` with pseudo-visits of ``reward``.

        Materializes every node along the path and credits it with
        ``visits`` visits of average reward ``reward`` (clamped to [0, 1]),
        so the first real :meth:`choose_order` calls are biased toward join
        orders that worked well for earlier queries on the same join graph.

        Along the path, every *eligible sibling* is also materialized with
        a neutral one-visit prior: :meth:`choose_order` samples unexplored
        children before applying UCB1, so a path-only seed would still pay
        one episode per untried arm — exactly the cold-start cost the seed
        exists to skip.  A neutral sibling loses the UCB comparison against
        any seeded (or genuinely rewarding) arm but stays available as a
        fallback once the seeded pseudo-visits dilute.

        The pseudo-visits decay naturally: real rewards keep accumulating
        on the same counters, so a stale prior is overridden by observation.
        """
        if visits <= 0:
            return
        reward = min(1.0, max(0.0, reward))
        node = self._root
        node.seed(reward, visits)
        prefix: list[str] = []
        for action in order:
            for sibling in self._graph.eligible_next(prefix):
                if sibling != action and node.child(sibling) is None:
                    self._expand(node, sibling).seed(0.0, 1)
            child = self._expand(node, action)
            child.seed(reward, visits)
            node = child
            prefix.append(action)

    # ------------------------------------------------------------------
    # cross-tree statistic exchange (morsel-parallel episodes)
    # ------------------------------------------------------------------
    def order_stats(self, k: int | None = None) -> list[tuple[tuple[str, ...], int, float]]:
        """Selected orders with their visit counts and observed rewards.

        Returns ``(order, selections, mean_reward)`` triples sorted by
        selection count (descending, then order for determinism), where
        ``mean_reward`` is the average reward accumulated on the order's
        terminal path node.  This is the summary a morsel worker ships back
        to the coordinator so concurrent episodes contribute to one tree.
        """
        stats: list[tuple[tuple[str, ...], int, float]] = []
        for order, count in self._selection_counts.items():
            node: UctNode | None = self._root
            for action in order:
                node = node.child(action) if node is not None else None
                if node is None:
                    break
            reward = node.average_reward if node is not None and node.visits else 0.0
            stats.append((order, count, reward))
        stats.sort(key=lambda item: (-item[1], item[0]))
        return stats if k is None else stats[:k]

    def merge_stats(self, stats: Sequence[tuple[Sequence[str], int, float]]) -> None:
        """Fold another tree's :meth:`order_stats` into this one.

        Each ``(order, visits, reward)`` triple is credited via :meth:`seed`
        — the same pseudo-visit mechanism the cross-query join-order cache
        uses — so merged statistics bias future UCB1 choices exactly like
        locally observed episodes, and merging in a fixed order is
        deterministic.
        """
        for order, visits, reward in stats:
            key = tuple(order)
            self.seed(key, reward, int(visits))
            if visits > 0:
                # Unlike warm-start priors, these were real selections in a
                # sibling tree: keep them visible to top_orders().
                self._selection_counts[key] = (
                    self._selection_counts.get(key, 0) + int(visits)
                )

    # ------------------------------------------------------------------
    # inspection helpers
    # ------------------------------------------------------------------
    def best_order(self) -> tuple[str, ...]:
        """The join order the tree currently considers best (greedy descent).

        Follows the child with the highest average reward at every level,
        falling back to the most visited child and finally to a random
        eligible action where the tree is not materialized.  This is the
        "final join order selected by Skinner" used in Tables 3 and 4.
        """
        prefix: list[str] = []
        node: UctNode | None = self._root
        while len(prefix) < self._num_tables:
            eligible = self._graph.eligible_next(prefix)
            action: str
            if node is not None and node.children:
                visited = [a for a in eligible if node.child(a) is not None]
                if visited:
                    action = max(
                        visited,
                        key=lambda a: (node.child(a).average_reward, node.child(a).visits),
                    )
                else:
                    action = self._rng.choice(eligible)
                node = node.child(action)
            else:
                action = self._rng.choice(eligible)
                node = None
            prefix.append(action)
        return tuple(prefix)
