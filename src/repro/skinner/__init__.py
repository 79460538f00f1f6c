"""The SkinnerDB execution strategies.

Three strategies, matching the paper's §4:

* :class:`~repro.skinner.skinner_c.SkinnerC` — the customized engine:
  depth-first multi-way join with one-tuple intermediate state, tuple-index
  execution state backup/restore, progress sharing across join orders, and
  progress-based rewards (Algorithms 2 and 3).
* :class:`~repro.skinner.skinner_g.SkinnerG` — learning on top of a generic
  engine: data batches, the pyramid timeout scheme, one UCT tree per timeout
  level, and binary rewards (Algorithm 1).
* :class:`~repro.skinner.skinner_h.SkinnerH` — the hybrid that interleaves
  plans from the underlying traditional optimizer with Skinner-G, doubling
  the timeout after every traditional attempt.
"""

from repro.skinner.multiway_join import MultiwayJoin
from repro.skinner.preprocessor import PreprocessedQuery, preprocess
from repro.skinner.progress import ProgressTracker
from repro.skinner.result_set import JoinResultSet
from repro.skinner.reward import scaled_delta_reward
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.skinner_h import SkinnerH
from repro.skinner.state import JoinState
from repro.skinner.timeouts import PyramidTimeoutScheme

__all__ = [
    "JoinResultSet",
    "JoinState",
    "MultiwayJoin",
    "PreprocessedQuery",
    "ProgressTracker",
    "PyramidTimeoutScheme",
    "SkinnerC",
    "SkinnerG",
    "SkinnerH",
    "preprocess",
    "scaled_delta_reward",
]
