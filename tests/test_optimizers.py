"""Unit tests for the cost models and optimizer baselines."""

import pytest

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import cout_cost, prefix_cardinalities
from repro.optimizer.dp_optimizer import DynamicProgrammingOptimizer
from repro.optimizer.greedy import GreedyOptimizer
from repro.optimizer.plans import LeftDeepPlan
from repro.query.predicates import column_equals_column
from benchmarks.paper.oracle import TrueCardinality, optimal_plan
from tests.oracles.join_orders import valid_join_orders
from benchmarks.paper.queries import make_query


class FakeEstimator(CardinalityEstimator):
    """Deterministic estimator over explicit per-subset cardinalities."""

    def __init__(self, base: dict[str, float], subsets: dict[frozenset, float]) -> None:
        self._base = base
        self._subsets = subsets

    def base_cardinality(self, alias: str) -> float:
        return self._base[alias]

    def cardinality(self, aliases) -> float:
        key = frozenset(aliases)
        if len(key) == 1:
            return self._base[next(iter(key))]
        return self._subsets[key]


@pytest.fixture
def chain_query():
    return make_query(
        ["a", "b", "c"],
        predicates=[column_equals_column("a", "x", "b", "x"),
                    column_equals_column("b", "y", "c", "y")],
    )


@pytest.fixture
def chain_estimator():
    return FakeEstimator(
        base={"a": 100, "b": 10, "c": 1000},
        subsets={
            frozenset({"a", "b"}): 50,
            frozenset({"b", "c"}): 200,
            frozenset({"a", "c"}): 100_000,
            frozenset({"a", "b", "c"}): 80,
        },
    )


class TestCostModels:
    def test_prefix_cardinalities(self, chain_estimator):
        assert prefix_cardinalities(["b", "a", "c"], chain_estimator) == [10, 50, 80]

    def test_cout_cost_sums_intermediates(self, chain_estimator):
        assert cout_cost(["b", "a", "c"], chain_estimator) == 130
        assert cout_cost(["b", "c", "a"], chain_estimator) == 280

    def test_cout_single_table(self, chain_estimator):
        assert cout_cost(["a"], chain_estimator) == 100


class TestDynamicProgramming:
    def test_finds_cheapest_order(self, chain_query, chain_estimator):
        plan = DynamicProgrammingOptimizer().optimize(chain_query, chain_estimator)
        # Best C_out order avoids the large b-c intermediate: (a,b,c) or (b,a,c).
        assert plan.order in (("a", "b", "c"), ("b", "a", "c"))
        assert plan.cost == 130

    def test_matches_exhaustive_enumeration(self, chain_query, chain_estimator):
        graph = chain_query.join_graph()
        best = min(cout_cost(order, chain_estimator) for order in valid_join_orders(graph))
        plan = DynamicProgrammingOptimizer().optimize(chain_query, chain_estimator)
        assert plan.cost == best

    def test_single_table_query(self, chain_estimator):
        plan = DynamicProgrammingOptimizer().optimize(make_query(["a"]), chain_estimator)
        assert plan.order == ("a",)

    def test_avoids_cartesian_products(self, chain_estimator):
        query = make_query(
            ["a", "b", "c"],
            predicates=[column_equals_column("a", "x", "b", "x"),
                        column_equals_column("b", "y", "c", "y")],
        )
        plan = DynamicProgrammingOptimizer().optimize(query, chain_estimator)
        # (a, c, ...) would be a needless Cartesian product and must not win.
        assert plan.order[:2] not in (("a", "c"), ("c", "a"))


class TestGreedyAndHeuristic:
    def test_greedy_returns_valid_order(self, chain_query, chain_estimator):
        plan = GreedyOptimizer().optimize(chain_query, chain_estimator)
        assert sorted(plan.order) == ["a", "b", "c"]
        assert isinstance(plan, LeftDeepPlan)

    def test_greedy_starts_with_smallest_base(self, chain_query, chain_estimator):
        plan = GreedyOptimizer().optimize(chain_query, chain_estimator)
        assert plan.order[0] == "b"


class TestOracleOptimizer:
    def test_optimal_plan_minimizes_true_cout(self, tiny_catalog, tiny_join_query):
        plan = optimal_plan(tiny_catalog, tiny_join_query)
        oracle = TrueCardinality(tiny_catalog, tiny_join_query)
        graph = tiny_join_query.join_graph()
        best = min(cout_cost(order, oracle) for order in valid_join_orders(graph))
        assert plan.cost == pytest.approx(best)
