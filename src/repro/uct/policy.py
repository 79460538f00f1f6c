"""The exploration weights of the UCB1 formula the UCT tree selects by.

A child ``c`` of parent ``p`` is scored ``r_c + w * sqrt(log(v_p) / v_c)``
where ``r_c`` is the child's average reward, ``v_c``/``v_p`` are visit
counts, and ``w`` is the exploration weight.  ``w = sqrt(2)`` yields the
standard regret guarantee; SkinnerDB uses a tiny weight for Skinner-C
because its reward signal is much less noisy (paper §6.1).  Unvisited
children score infinity, so each is explored before any is revisited
(:meth:`~repro.uct.tree.UctJoinTree._select_ucb` computes the score).
"""

from __future__ import annotations

import math

#: Exploration weight with formal regret guarantees (used by Skinner-G/H).
DEFAULT_EXPLORATION_WEIGHT = math.sqrt(2.0)

#: Exploration weight used by Skinner-C (paper §6.1).
SKINNER_C_EXPLORATION_WEIGHT = 1e-6

