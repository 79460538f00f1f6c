"""Baselines the paper's evaluation compares against.

* :class:`~repro.baselines.traditional.TraditionalEngine` — a conventional
  cost-based optimizer plus left-deep executor, playing the role of
  Postgres / MonetDB / the commercial system.
* :class:`~repro.baselines.eddy.EddyEngine` — adaptive per-tuple routing in
  the spirit of Eddies with lottery-style operator selection.
* :class:`~repro.baselines.reoptimizer.ReOptimizerEngine` — sampling-based
  query re-optimization (Wu et al.), which validates the optimizer's
  estimates on samples and re-plans when they are badly off.
"""

from repro.baselines.eddy import EddyEngine
from repro.baselines.reoptimizer import ReOptimizerEngine
from repro.baselines.traditional import TraditionalEngine

__all__ = [
    "EddyEngine",
    "ReOptimizerEngine",
    "TraditionalEngine",
]
