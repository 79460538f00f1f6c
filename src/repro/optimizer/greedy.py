"""Greedy left-deep optimizer (smallest-intermediate-result-next heuristic).

Used for larger queries where exhaustive DP would be too slow, and as an
additional baseline: it starts from the smallest filtered base table and
repeatedly appends the eligible table minimizing the estimated cardinality
of the extended prefix.
"""

from __future__ import annotations

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import cout_cost, prefix_cardinalities
from repro.optimizer.plans import LeftDeepPlan
from repro.query.query import Query


class GreedyOptimizer:
    """Greedy minimum-intermediate-cardinality join ordering."""

    def optimize(self, query: Query, estimator: CardinalityEstimator) -> LeftDeepPlan:
        """Return a greedy left-deep order under the estimator."""
        aliases = query.aliases
        graph = query.join_graph()
        start = min(aliases, key=estimator.base_cardinality)
        order = [start]
        while len(order) < len(aliases):
            candidates = graph.eligible_next(order)
            next_alias = min(
                candidates,
                key=lambda candidate: estimator.cardinality(order + [candidate]),
            )
            order.append(next_alias)
        cost = cout_cost(order, estimator)
        prefixes = tuple(prefix_cardinalities(order, estimator))
        return LeftDeepPlan(tuple(order), cost, prefixes)
