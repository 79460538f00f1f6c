"""Reference implementations the production kernels are tested against.

Each oracle does what one production operator does, the slow and obvious
way, and charges the same meter work:

* :func:`~tests.oracles.multiway_join.continue_scalar` — Skinner-C's
  multi-way join one tuple index at a time (Algorithm 2 verbatim);
* :func:`~tests.oracles.hash_join.rows_hash_join_step` — the plan executor's
  hash join with a Python dict;
* :func:`~tests.oracles.postprocess.rows_post_process` — post-processing
  one Python dict per result tuple, expressions (UDF calls included)
  through ``Expression.evaluate``.

Nothing under ``src/repro`` imports them; tests and the two kernel
benchmarks (``benchmarks/paper/experiments_hashjoin.py`` and
``experiments_postprocess.py``) do.
"""

from .hash_join import rows_hash_join_step
from .multiway_join import continue_scalar
from .postprocess import rows_post_process

__all__ = ["continue_scalar", "rows_hash_join_step", "rows_post_process"]
