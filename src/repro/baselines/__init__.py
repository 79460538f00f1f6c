"""Baselines the paper's evaluation compares against.

* :class:`~repro.baselines.traditional.TraditionalEngine` — a conventional
  cost-based optimizer plus left-deep executor, playing the role of
  Postgres / MonetDB / the commercial system.
* :class:`~repro.baselines.eddy.EddyEngine` — adaptive per-tuple routing in
  the spirit of Eddies with lottery-style operator selection.
* :class:`~repro.baselines.reoptimizer.ReOptimizerEngine` — sampling-based
  query re-optimization (Wu et al.), which validates the optimizer's
  estimates on samples and re-plans when they are badly off.
* :class:`~repro.baselines.random_order.random_skinner_config` /
  :func:`~repro.baselines.random_order.make_random_order_engine` — the
  "replace learning by randomization" ablation of Table 5.
"""

from repro.baselines.eddy import EddyEngine
from repro.baselines.random_order import make_random_order_engine, random_skinner_config
from repro.baselines.reoptimizer import ReOptimizerEngine
from repro.baselines.traditional import TraditionalEngine

__all__ = [
    "EddyEngine",
    "ReOptimizerEngine",
    "TraditionalEngine",
    "make_random_order_engine",
    "random_skinner_config",
]
