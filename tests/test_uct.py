"""Unit tests for the UCT search tree over join orders."""

import math

import pytest

from repro.query.predicates import column_equals_column
from repro.uct.node import UctNode
from repro.uct.policy import DEFAULT_EXPLORATION_WEIGHT, SKINNER_C_EXPLORATION_WEIGHT
from repro.uct.tree import UctJoinTree
from tests.oracles.join_orders import valid_join_orders
from tests.oracles.uct import selection_counts, subtree_size, ucb_score
from benchmarks.paper.queries import make_query


def chain_graph(num_tables: int):
    aliases = [f"t{i}" for i in range(num_tables)]
    predicates = [
        column_equals_column(aliases[i], "b", aliases[i + 1], "a")
        for i in range(num_tables - 1)
    ]
    return make_query(aliases, predicates=predicates).join_graph()


class TestPolicy:
    def test_unvisited_child_has_infinite_score(self):
        assert ucb_score(0.0, 0, 10) == math.inf

    def test_exploration_term_decreases_with_visits(self):
        few = ucb_score(0.5, 2, 100)
        many = ucb_score(0.5, 50, 100)
        assert few > many

    def test_zero_weight_is_pure_exploitation(self):
        assert ucb_score(0.7, 5, 100, exploration_weight=0.0) == pytest.approx(0.7)

    def test_default_weights(self):
        assert DEFAULT_EXPLORATION_WEIGHT == pytest.approx(math.sqrt(2))
        assert SKINNER_C_EXPLORATION_WEIGHT < 1e-3


class TestNode:
    def test_update_and_average(self):
        node = UctNode(())
        node.update(1.0)
        node.update(0.0)
        assert node.visits == 2
        assert node.average_reward == 0.5

    def test_add_child_idempotent(self):
        node = UctNode(())
        child = node.add_child("a")
        assert node.add_child("a") is child
        assert child.prefix == ("a",)

    def test_subtree_size(self):
        node = UctNode(())
        node.add_child("a").add_child("b")
        node.add_child("c")
        assert subtree_size(node) == 4


class TestTree:
    def test_choose_order_is_valid_permutation(self):
        graph = chain_graph(4)
        tree = UctJoinTree(graph, seed=1)
        for _ in range(20):
            order = tree.choose_order()
            assert sorted(order) == sorted(graph.aliases)

    def test_orders_avoid_cartesian_products(self):
        graph = chain_graph(5)
        tree = UctJoinTree(graph, seed=2)
        valid = set(valid_join_orders(graph))
        for _ in range(50):
            assert tree.choose_order() in valid

    def test_tree_grows_at_most_one_node_per_round(self):
        graph = chain_graph(4)
        tree = UctJoinTree(graph, seed=3)
        previous = tree.node_count()
        for _ in range(30):
            order = tree.choose_order()
            tree.update(order, 0.5)
            current = tree.node_count()
            assert current - previous <= 1
            previous = current

    def test_update_increments_visits_along_path(self):
        graph = chain_graph(3)
        tree = UctJoinTree(graph, seed=4)
        order = tree.choose_order()
        tree.update(order, 1.0)
        assert tree.root.visits == 1
        first_child = tree.root.child(order[0])
        assert first_child is not None and first_child.visits == 1

    def test_rewards_clamped_to_unit_interval(self):
        graph = chain_graph(3)
        tree = UctJoinTree(graph, seed=5)
        order = tree.choose_order()
        tree.update(order, 5.0)
        tree.update(order, -3.0)
        assert 0.0 <= tree.root.average_reward <= 1.0

    def test_converges_to_rewarding_first_table(self):
        graph = chain_graph(3)
        tree = UctJoinTree(graph, exploration_weight=0.3, seed=6)
        # Orders starting with t0 earn reward 1, everything else 0.
        for _ in range(300):
            order = tree.choose_order()
            tree.update(order, 1.0 if order[0] == "t0" else 0.0)
        counts = selection_counts(tree)
        starting_t0 = sum(c for order, c in counts.items() if order[0] == "t0")
        assert starting_t0 > 0.7 * sum(counts.values())
        assert tree.best_order()[0] == "t0"

    def test_selection_counts_and_top_orders(self):
        graph = chain_graph(3)
        tree = UctJoinTree(graph, seed=7)
        for _ in range(10):
            tree.update(tree.choose_order(), 0.5)
        counts = selection_counts(tree)
        assert sum(counts.values()) == 10
        top = tree.top_orders(2)
        assert len(top) <= 2
        assert top == sorted(counts.items(), key=lambda item: item[1], reverse=True)[: len(top)]

    def test_deterministic_with_seed(self):
        graph = chain_graph(4)
        first = UctJoinTree(graph, seed=42)
        second = UctJoinTree(graph, seed=42)
        orders_a = [first.choose_order() for _ in range(10)]
        orders_b = [second.choose_order() for _ in range(10)]
        assert orders_a == orders_b


class _RescanningTree(UctJoinTree):
    """``choose_order`` as it was before nodes remembered being fully expanded:
    the unexplored actions are listed again at every level of every descent."""

    def choose_order(self):
        prefix = []
        node = self._root
        expanded_this_round = False
        while len(prefix) < self._num_tables:
            eligible = self._graph.eligible_next(prefix)
            if node is not None:
                unexplored = [action for action in eligible if action not in node.children]
                if unexplored:
                    action = self._rng.choice(unexplored)
                    if not expanded_this_round:
                        node = node.add_child(action)
                        expanded_this_round = True
                    else:
                        node = None
                else:
                    action = self._select_ucb(node, eligible)
                    node = node.child(action)
            else:
                action = self._rng.choice(eligible)
            prefix.append(action)
        order = tuple(prefix)
        self._selection_counts[order] = self._selection_counts.get(order, 0) + 1
        return order


@pytest.mark.parametrize("num_tables", [2, 4, 6])
@pytest.mark.parametrize("weight", [SKINNER_C_EXPLORATION_WEIGHT, DEFAULT_EXPLORATION_WEIGHT])
@pytest.mark.parametrize("warm", [False, True])
def test_remembering_full_expansion_changes_no_selection(num_tables, weight, warm):
    """Same seed, same rewards: the same orders from the same RNG draws."""
    import random

    graph = chain_graph(num_tables)
    trees = [cls(graph, exploration_weight=weight, seed=11)
             for cls in (_RescanningTree, UctJoinTree)]
    if warm:  # priors materialize whole sibling sets before the first choice
        for tree in trees:
            tree.seed(tuple(graph.aliases), 0.8, 3)
            tree.merge_stats([(tuple(reversed(graph.aliases)), 2, 0.1)])
    rewards = random.Random(5)
    for _ in range(400):
        reward = rewards.random() * 0.05
        orders = [tree.choose_order() for tree in trees]
        assert orders[0] == orders[1]
        for tree in trees:
            tree.update(orders[0], reward)
    assert trees[0]._rng.getstate() == trees[1]._rng.getstate()
    # The reference grows nodes behind the tree's counter: compare walks.
    assert subtree_size(trees[0].root) == subtree_size(trees[1].root) == trees[1].node_count()
    assert trees[1].root.fully_expanded
