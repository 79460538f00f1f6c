"""Unit tests for Skinner-C's building blocks: state, rewards, progress, timeouts."""

import random

import pytest

from repro.query.join_graph import JoinGraph
from repro.query.predicates import column_equals_column
from repro.skinner.progress import ProgressTracker
from repro.skinner.result_set import JoinResultSet
from repro.skinner.reward import scaled_delta_reward
from repro.skinner.state import JoinState, clamp_in_place, initial_state
from repro.skinner.timeouts import PyramidTimeoutScheme
from repro.uct.tree import UctJoinTree

CARDS = {"a": 10, "b": 20, "c": 5}


class TestJoinState:
    def test_defaults_to_zero_indices(self):
        state = JoinState(("a", "b"))
        assert state.indices == [0, 0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JoinState(("a", "b"), [1])

    def test_copy_is_independent(self):
        state = JoinState(("a", "b"), [1, 2])
        copy = state.copy()
        copy.indices[0] = 9
        assert state.indices[0] == 1

    def test_progress_fraction_monotone(self):
        order = ("a", "b", "c")
        low = JoinState(order, [1, 0, 0]).progress_fraction(CARDS)
        high = JoinState(order, [5, 10, 0]).progress_fraction(CARDS)
        assert 0.0 <= low < high <= 1.0

    def test_progress_fraction_full(self):
        order = ("a", "b")
        done = JoinState(order, [10, 0]).progress_fraction(CARDS)
        assert done == pytest.approx(1.0)

    def test_initial_state_uses_offsets(self):
        state = initial_state(("a", "b"), {"a": 3, "b": 0})
        assert state.indices == [3, 0]

    def test_clamp_raises_to_offsets_and_resets_deeper(self):
        state = JoinState(("a", "b", "c"), [2, 7, 3])
        clamped = clamp_in_place(state.copy(), {"a": 0, "b": 9, "c": 1}, CARDS)
        # b was below its offset: it is raised and c is reset to its offset.
        assert clamped.indices == [2, 9, 1]

    def test_clamp_no_change_when_above_offsets(self):
        state = JoinState(("a", "b"), [4, 4])
        clamped = clamp_in_place(state.copy(), {"a": 1, "b": 2}, CARDS)
        assert clamped.indices == [4, 4]

    def test_clamp_missing_cardinality_is_unbounded(self):
        """Regression: a missing cardinality must not drag a valid index down.

        Defaulting the cardinality to 0 used to clamp ``min(index, 0)``
        without setting ``raised``, silently rewinding the position while the
        deeper indices kept their (now stale) meaning.
        """
        state = JoinState(("a", "b", "c"), [3, 7, 2])
        clamped = clamp_in_place(state.copy(), {"a": 0, "b": 0, "c": 0}, {"a": 10, "c": 5})
        assert clamped.indices == [3, 7, 2]

    def test_clamp_missing_cardinality_still_raises_to_offsets(self):
        state = JoinState(("a", "b", "c"), [3, 1, 4])
        clamped = clamp_in_place(state.copy(), {"a": 0, "b": 5, "c": 0}, {"a": 10, "c": 5})
        # b is below its offset: raised, and c resets to its offset.
        assert clamped.indices == [3, 5, 0]

    def test_restore_with_alias_missing_from_cardinalities(self):
        """A tracker round-trip must preserve progress for unmapped aliases."""
        tracker = ProgressTracker(("a", "b", "c"))
        tracker.backup(JoinState(("a", "b", "c"), [3, 7, 2]))
        restored = tracker.restore(("a", "b", "c"), {"a": 10, "c": 5})
        assert restored.indices == [3, 7, 2]


class TestRewards:
    def test_scaled_delta_reward_in_unit_interval(self):
        order = ("a", "b")
        prior = JoinState(order, [0, 0])
        later = JoinState(order, [3, 10])
        reward = scaled_delta_reward(prior, later, CARDS)
        assert 0.0 < reward <= 1.0

    def test_scaled_delta_no_progress_is_zero(self):
        order = ("a", "b")
        state = JoinState(order, [2, 5])
        assert scaled_delta_reward(state, state.copy(), CARDS) == 0.0

    def test_rewards_require_same_order(self):
        with pytest.raises(ValueError):
            scaled_delta_reward(JoinState(("a", "b")), JoinState(("b", "a")), CARDS)


class TestResultSet:
    def test_deduplicates(self):
        results = JoinResultSet(("a", "b"))
        assert results.add((1, 2))
        assert not results.add((1, 2))
        assert results.add((1, 3))
        assert len(results) == 2

    def test_add_many_counts_new(self):
        results = JoinResultSet(("a",))
        assert results.add_many([(1,), (2,), (1,)]) == 2

    def test_to_relation_round_trip(self):
        results = JoinResultSet(("a", "b"))
        results.add((5, 6))
        results.add((1, 2))
        relation = results.to_relation()
        assert set(relation.index_tuples(["a", "b"])) == {(1, 2), (5, 6)}

    def test_contains_and_bytes(self):
        results = JoinResultSet(("a", "b"))
        results.add((1, 2))
        assert (1, 2) in results
        assert results.estimated_bytes() == 16


class TestProgressTracker:
    def test_restore_without_backup_is_initial(self):
        tracker = ProgressTracker(("a", "b"))
        state = tracker.restore(("a", "b"), CARDS)
        assert state.indices == [0, 0]

    def test_backup_and_restore_exact_order(self):
        tracker = ProgressTracker(("a", "b"))
        tracker.backup(JoinState(("a", "b"), [4, 7]))
        restored = tracker.restore(("a", "b"), CARDS)
        assert restored.indices == [4, 7]

    def test_backup_keeps_most_advanced(self):
        tracker = ProgressTracker(("a", "b"))
        tracker.backup(JoinState(("a", "b"), [4, 7]))
        tracker.backup(JoinState(("a", "b"), [3, 9]))
        assert tracker.restore(("a", "b"), CARDS).indices == [4, 7]

    def test_prefix_sharing_between_orders(self):
        tracker = ProgressTracker(("a", "b", "c"))
        tracker.backup(JoinState(("a", "b", "c"), [5, 3, 2]))
        restored = tracker.restore(("a", "c", "b"), CARDS)
        # Shares the length-1 prefix "a": everything below index 5 in a is done.
        assert restored.indices[0] == 5
        assert restored.indices[1:] == [0, 0]

    def test_offsets_clamp_restored_state(self):
        tracker = ProgressTracker(("a", "b"))
        tracker.backup(JoinState(("a", "b"), [2, 9]))
        tracker.advance_offset("a", 6)
        restored = tracker.restore(("a", "b"), CARDS)
        assert restored.indices == [6, 0]

    def test_offsets_only_advance(self):
        tracker = ProgressTracker(("a",))
        tracker.advance_offset("a", 5)
        tracker.advance_offset("a", 3)
        assert tracker.offsets["a"] == 5

    def test_node_and_order_counts(self):
        tracker = ProgressTracker(("a", "b", "c"))
        tracker.backup(JoinState(("a", "b", "c"), [1, 1, 1]))
        tracker.backup(JoinState(("b", "a", "c"), [2, 2, 2]))
        # One leaf per join order with a stored state.
        assert sum(1 for node in tracker._nodes() if not node.children) == 2
        assert tracker.node_count() > 1
        assert tracker.estimated_bytes() > 0


@pytest.mark.parametrize("seed", range(6))
def test_node_and_byte_counters_equal_a_fresh_walk(seed):
    """The tracker and the UCT tree count what they make; a walk agrees."""
    rng = random.Random(seed)
    aliases = ("a", "b", "c", "d")
    graph = JoinGraph(aliases, [column_equals_column(left, "k", right, "k")
                                for left, right in zip(aliases, aliases[1:])])
    tree = UctJoinTree(graph, seed=seed)
    tracker = ProgressTracker(aliases)
    if seed % 2:  # priors materialize whole sibling sets
        tree.seed(aliases, 0.5, 3)
        tree.merge_stats([(aliases[::-1], 2, 0.1)])
    for _ in range(rng.randrange(1, 60)):
        order = tree.choose_order()
        tree.update(order, rng.random())
        tracker.backup(JoinState(order, [rng.randrange(9) for _ in order]))
    walked = tracker._nodes()
    assert tracker.node_count() == 1 + len(walked)
    assert tracker.estimated_bytes() == sum(8 * len(node.best_prefix_state) for node in walked)
    assert tree.node_count() == tree.root.subtree_size()


class TestPyramidTimeouts:
    def test_budgets_are_powers_of_two_times_base(self):
        scheme = PyramidTimeoutScheme(base_timeout=100)
        for _ in range(50):
            choice = scheme.next_timeout()
            assert choice.budget == 100 * 2**choice.level

    def test_level_zero_first(self):
        scheme = PyramidTimeoutScheme()
        assert scheme.next_timeout().level == 0

    def test_time_per_level_never_differs_by_more_than_factor_two(self):
        # Lemma 5.5.
        scheme = PyramidTimeoutScheme()
        for _ in range(500):
            scheme.next_timeout()
            allocations = [v for v in scheme.time_per_level().values() if v > 0]
            assert max(allocations) <= 2 * min(allocations)

    def test_level_count_is_logarithmic(self):
        # Lemma 5.4.
        import math

        scheme = PyramidTimeoutScheme()
        total = 0
        for _ in range(2000):
            total += 2 ** scheme.next_timeout().level
        assert scheme.levels_used() <= math.log2(total) + 1

    def test_levels_follow_algorithm_1_to_the_letter(self):
        """``next_timeout`` picks ``max{L | forall l < L: n_l >= n_L + 2^L}``
        (Algorithm 1, NextTimeout), checked level by level over 12k steps."""
        scheme = PyramidTimeoutScheme(base_timeout=3)
        spent: dict[int, int] = {}
        for _ in range(12_000):
            candidates = range(max(spent, default=-1) + 2)
            expected = max(
                level for level in candidates
                if all(spent.get(lower, 0) >= spent.get(level, 0) + 2**level
                       for lower in range(level))
            )
            spent[expected] = spent.get(expected, 0) + 2**expected
            choice = scheme.next_timeout()
            assert (choice.level, choice.budget) == (expected, 3 * 2**expected)
        assert scheme.time_per_level() == spent

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            PyramidTimeoutScheme(base_timeout=0)
