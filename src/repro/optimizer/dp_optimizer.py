"""Dynamic-programming optimizer over left-deep, Cartesian-avoiding orders.

The classic Selinger-style enumeration, restricted to left-deep trees: the
best order for a table subset S is obtained by removing one "last" table t
and extending the best order for S \\ {t}.  Cartesian products are avoided
exactly as in the rest of the system (a table may only be appended if it is
connected to the prefix, unless nothing is).  Run with the estimated
cardinality model this is the "traditional optimizer" baseline; the
estimator is the caller's, so the same enumeration yields the C_out-optimal
orders of Tables 3 and 4 over true cardinalities.
"""

from __future__ import annotations

from repro.errors import PlanningError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.plans import LeftDeepPlan
from repro.query.query import Query


class DynamicProgrammingOptimizer:
    """Exhaustive left-deep enumeration with Cartesian-product avoidance,
    minimising C_out."""

    def optimize(self, query: Query, estimator: CardinalityEstimator) -> LeftDeepPlan:
        """Return the cheapest left-deep order under the estimator."""
        aliases = query.aliases
        if len(aliases) == 1:
            only = aliases[0]
            cardinality = estimator.base_cardinality(only)
            return LeftDeepPlan((only,), cardinality, (cardinality,))
        graph = query.join_graph()

        # best[subset] = (cost, order, last_cardinality_sum) — cost excludes
        # the single-table prefix, matching cout_cost.
        best: dict[frozenset[str], tuple[float, tuple[str, ...]]] = {}
        cardinality_of: dict[frozenset[str], float] = {}

        for alias in aliases:
            subset = frozenset({alias})
            best[subset] = (0.0, (alias,))
            cardinality_of[subset] = estimator.cardinality([alias])

        for size in range(2, len(aliases) + 1):
            for subset in _subsets_of_size(aliases, size):
                subset_cost: float | None = None
                subset_order: tuple[str, ...] | None = None
                for last in subset:
                    rest = subset - {last}
                    if rest not in best:
                        continue
                    rest_order = best[rest][1]
                    if last not in graph.eligible_next(list(rest_order)):
                        continue
                    if subset not in cardinality_of:
                        cardinality_of[subset] = estimator.cardinality(sorted(subset))
                    step_output = cardinality_of[subset]
                    cost = best[rest][0] + step_output
                    if subset_cost is None or cost < subset_cost:
                        subset_cost = cost
                        subset_order = rest_order + (last,)
                if subset_order is not None:
                    assert subset_cost is not None
                    best[subset] = (subset_cost, subset_order)

        full = frozenset(aliases)
        if full not in best:
            raise PlanningError("no valid left-deep join order found")
        cost, order = best[full]
        prefixes = tuple(
            cardinality_of.get(frozenset(order[: i + 1]), 0.0) for i in range(len(order))
        )
        return LeftDeepPlan(order, cost, prefixes)


def _subsets_of_size(aliases: list[str], size: int):
    """All frozenset subsets of the aliases with the given size."""
    from itertools import combinations

    for combo in combinations(aliases, size):
        yield frozenset(combo)
