"""Traditional query optimization substrate.

SkinnerDB itself uses none of this — it learns join orders at run time.  The
optimizer package exists because the paper's evaluation needs it twice:

* as the **baseline** ("traditional optimizer") that can be misled by
  correlated data and opaque UDF predicates, and
* as the **oracle** that computes truly optimal left-deep orders under the
  C_out metric (Tables 3 and 4 compare Skinner's learned orders against it).

The estimator makes the classic simplifying assumptions (uniformity,
predicate independence, containment of value sets); the oracle replaces
estimates with true cardinalities obtained by actually executing sub-joins.
"""

from repro.optimizer.cardinality import (
    CardinalityEstimator,
    EstimatedCardinality,
    TrueCardinality,
)
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
    "TrueCardinality",
    "cout_cost",
]
