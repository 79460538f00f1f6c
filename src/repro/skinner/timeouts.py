"""The pyramid timeout scheme of Skinner-G (paper §4.3, Figure 3).

Skinner-G cannot know the right per-batch timeout a priori: too small and no
batch ever completes, too large and bad join orders waste time.  The pyramid
scheme iterates over timeout levels ``L`` with budget ``2^L`` base units,
always choosing the highest level whose accumulated execution time does not
exceed the time given to any lower level.  Lemmas 5.4 and 5.5 show that at
most ``log(n)`` levels are used and that the total time per level never
differs by more than a factor of two — both are verified by property tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class TimeoutChoice:
    """The outcome of one scheduling step."""

    level: int
    budget: int


class PyramidTimeoutScheme:
    """Allocates per-iteration budgets across exponentially growing timeouts."""

    def __init__(self, base_timeout: int = 1) -> None:
        if base_timeout <= 0:
            raise ValueError("base timeout must be positive")
        self._base_timeout = base_timeout
        #: ``n_l`` per level ``l``: a level is used only once every level
        #: below it is, so the levels used are ``0 .. len - 1``.
        self._time_per_level: list[int] = []

    def time_per_level(self) -> dict[int, int]:
        """Accumulated time (in base-timeout units) allocated to each level."""
        return dict(enumerate(self._time_per_level))

    def next_timeout(self) -> TimeoutChoice:
        """Choose the timeout level for the next iteration and account for it.

        Implements ``L <- max{L | forall l < L: n_l >= n_L + 2^L}`` followed by
        ``n_L <- n_L + 2^L`` (Algorithm 1, function NextTimeout), in one pass
        over the levels with the running minimum of the levels below.
        """
        spent = self._time_per_level
        chosen = 0
        lowest = math.inf  # min n_l over the levels l below ``level``
        for level, time in enumerate(spent):
            if lowest >= time + (1 << level):
                chosen = level
            if time < lowest:
                lowest = time
        if lowest >= 1 << len(spent):  # the first unused level, n_L = 0
            chosen = len(spent)
            spent.append(0)
        spent[chosen] += 1 << chosen
        return TimeoutChoice(level=chosen, budget=self._base_timeout * (1 << chosen))
