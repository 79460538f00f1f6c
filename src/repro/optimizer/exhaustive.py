"""Which left-deep order an optimizer picks.

:func:`choose_plan` is the one planner choice every cost-based engine makes:
exhaustive left-deep DP up to :data:`_MAX_EXHAUSTIVE_TABLES` tables, greedy
above, under any estimator.  :func:`estimated_plan` makes it over the
catalog's statistics, as a conventional optimizer does (the traditional
baseline and Skinner-H's traditional half).
"""

from __future__ import annotations

from repro.optimizer.cardinality import CardinalityEstimator, EstimatedCardinality
from repro.optimizer.dp_optimizer import DynamicProgrammingOptimizer
from repro.optimizer.greedy import GreedyOptimizer
from repro.optimizer.plans import LeftDeepPlan
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog

# Exhaustive DP over subsets is exponential; beyond this many tables the
# choice falls back to a greedy order under the same estimator.
_MAX_EXHAUSTIVE_TABLES = 11


def choose_plan(query: Query, estimator: CardinalityEstimator) -> LeftDeepPlan:
    """The cheapest left-deep order under ``estimator``: DP, or greedy when large."""
    if query.num_tables <= _MAX_EXHAUSTIVE_TABLES:
        return DynamicProgrammingOptimizer().optimize(query, estimator)
    return GreedyOptimizer().optimize(query, estimator)


def estimated_plan(
    catalog: Catalog,
    query: Query,
    udfs: UdfRegistry | None = None,
) -> LeftDeepPlan:
    """The order a conventional optimizer picks from the catalog's statistics."""
    return choose_plan(query, EstimatedCardinality(query, StatisticsCatalog.of(catalog), udfs))

