"""Reference implementations the production kernels are tested against.

Each oracle does what one production operator does, the slow and obvious
way, and charges the same meter work:

* :func:`~tests.oracles.multiway_join.continue_scalar` — Skinner-C's
  multi-way join one tuple index at a time (Algorithm 2 verbatim);
* :class:`~tests.oracles.multiway_join.NarrowJoin` — the block executor
  without wide steps, one step of at most ``batch_size`` candidates at a time;
* :func:`~tests.oracles.hash_join.rows_hash_join_step` — the plan executor's
  hash join with a Python dict, the reference of
  :func:`~tests.oracles.hash_join.hash_join_step` (the kernel's in one range);
* :func:`~tests.oracles.join_map.slots_reference`,
  :func:`~tests.oracles.join_map.edge_reference` and
  :func:`~tests.oracles.join_map.probe_codes_reference` — a join map's
  lookups by plain binary search, with no direct-address table;
* :func:`~tests.oracles.join_map.lookup_many_reference` — a join map's
  many-probe lookup in one step, cut at a bound per probe;
* :func:`~tests.oracles.postprocess.rows_post_process` — post-processing
  one Python dict per result tuple, expressions (UDF calls included)
  through ``Expression.evaluate``;
* :func:`~tests.oracles.forced_order.forced_order` — Skinner-C on one
  forced join order, one ``continue_join`` loop outside any task.

Nothing under ``src/repro`` imports them; tests and the two kernel
benchmarks (``benchmarks/paper/experiments_hashjoin.py`` and
``experiments_postprocess.py``) do.
"""

from .forced_order import forced_order
from .hash_join import hash_join_step, rows_hash_join_step
from .join_map import (
    edge_reference, lookup_many_reference, probe_codes_reference, slots_reference,
)
from .multiway_join import NarrowJoin, continue_scalar
from .postprocess import rows_post_process

__all__ = [
    "NarrowJoin", "continue_scalar", "edge_reference", "forced_order", "hash_join_step",
    "lookup_many_reference",
    "probe_codes_reference", "rows_hash_join_step", "rows_post_process", "slots_reference",
]
