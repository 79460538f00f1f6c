"""Left-deep plan representation."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LeftDeepPlan:
    """A left-deep join order plus the cost model's view of it.

    Attributes
    ----------
    order:
        The join order as a tuple of table aliases.
    cost:
        Cost under the optimizer's cost metric (C_out by default).
    prefix_cardinalities:
        The estimator's cardinality of every prefix of the order, starting
        with the single left-most table.
    """

    order: tuple[str, ...]
    cost: float
    prefix_cardinalities: tuple[float, ...] = field(default_factory=tuple)
