"""The cost model over left-deep join orders.

The paper analyzes Skinner's guarantees relative to the C_out metric
(Krishnamurthy et al.): the cost of a join order is the sum of the
cardinalities of all intermediate results it produces.  It operates on any
:class:`~repro.optimizer.cardinality.CardinalityEstimator`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.optimizer.cardinality import CardinalityEstimator


def prefix_cardinalities(
    order: Sequence[str], estimator: CardinalityEstimator
) -> list[float]:
    """Cardinalities of every prefix of ``order`` (length 1 .. n)."""
    return [estimator.cardinality(order[: i + 1]) for i in range(len(order))]


def cout_cost(order: Sequence[str], estimator: CardinalityEstimator) -> float:
    """C_out: sum of the cardinalities of all true intermediate results.

    The single-table prefix is excluded (scanning the base table is not an
    intermediate result); the final result is included, following the
    original definition.
    """
    cardinalities = prefix_cardinalities(order, estimator)
    return float(sum(cardinalities[1:])) if len(cardinalities) > 1 else float(cardinalities[0])

