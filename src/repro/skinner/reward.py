"""The reward mapping execution progress to a UCT reward in [0, 1].

A reward quantifies how much of the join's index space a time slice covered
with the chosen join order.  The paper's default ("scaled deltas") sums the
per-position tuple-index deltas, scaling each down by the product of the
cardinalities of its table and all preceding tables.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.skinner.state import JoinState


def scaled_delta_reward(
    prior: JoinState, current: JoinState, cardinalities: Mapping[str, int]
) -> float:
    """The refined SkinnerDB reward: covered fraction of the index space."""
    if prior.order != current.order:
        raise ValueError("reward compares states of the same join order")
    progress = current.progress_fraction(cardinalities) - prior.progress_fraction(cardinalities)
    return min(1.0, max(0.0, progress))
