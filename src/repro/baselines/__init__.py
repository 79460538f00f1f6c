"""The conventional engine SkinnerDB is compared with and runs beside.

:class:`~repro.baselines.traditional.TraditionalEngine` is a cost-based
optimizer plus left-deep executor, playing the role of Postgres / MonetDB /
the commercial system.  The paper's other comparison engines (an eddy and a
sampling re-optimizer) are plug-ins of the benchmark harness
(``benchmarks/paper/baselines.py``), not part of the package.
"""

from repro.baselines.traditional import TraditionalEngine

__all__ = ["TraditionalEngine"]
