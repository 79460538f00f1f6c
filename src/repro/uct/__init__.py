"""UCT (Upper Confidence bounds applied to Trees) for join ordering.

The search space is the space of left-deep join orders avoiding needless
Cartesian products (paper §4.2).  Each tree level chooses the next table of
the join order; leaves correspond to complete orders.  The tree is
materialized lazily, growing by at most one node per round, and node
statistics (visit counts, average rewards) drive the exploration /
exploitation trade-off via the UCB1 formula.
"""

from repro.uct.node import UctNode
from repro.uct.tree import UctJoinTree

__all__ = ["UctJoinTree", "UctNode"]
