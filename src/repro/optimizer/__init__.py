"""Traditional query optimization substrate.

SkinnerDB itself uses none of this — it learns join orders at run time.  The
optimizer plans for the traditional engine (and Skinner-H's traditional
half), the conventional system that can be misled by correlated data and
opaque UDF predicates.  Its estimator makes the classic simplifying
assumptions (uniformity, predicate independence, containment of value
sets).  The planner takes any :class:`CardinalityEstimator`: the benchmark
harness's C_out oracle (``benchmarks/paper/oracle.py``) runs it over true
sub-join cardinalities for Tables 3 and 4.
"""

from repro.optimizer.cardinality import CardinalityEstimator, EstimatedCardinality
from repro.optimizer.cost import cout_cost
from repro.optimizer.dp_optimizer import DynamicProgrammingOptimizer
from repro.optimizer.greedy import GreedyOptimizer
from repro.optimizer.plans import LeftDeepPlan
from repro.optimizer.statistics import ColumnStatistics, StatisticsCatalog, TableStatistics

__all__ = [
    "CardinalityEstimator",
    "ColumnStatistics",
    "DynamicProgrammingOptimizer",
    "EstimatedCardinality",
    "GreedyOptimizer",
    "LeftDeepPlan",
    "StatisticsCatalog",
    "TableStatistics",
    "cout_cost",
]
