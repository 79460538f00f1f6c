"""Randomized join-order selection: the "no learning" ablation of Table 5.

The paper isolates the contribution of reinforcement learning by replacing
``UctChoice`` with uniform random selection while keeping everything else
(time slicing, progress tracking, result merging) identical.  These helpers
build engines configured that way.
"""

from __future__ import annotations

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.query.udf import UdfRegistry
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.skinner_h import SkinnerH
from repro.storage.catalog import Catalog


def random_skinner_config(config: SkinnerConfig = DEFAULT_CONFIG) -> SkinnerConfig:
    """A copy of ``config`` with learning replaced by random selection."""
    return config.with_overrides(order_selection="random")


def make_random_order_engine(
    variant: str,
    catalog: Catalog,
    udfs: UdfRegistry | None = None,
    config: SkinnerConfig = DEFAULT_CONFIG,
):
    """Build a Skinner engine whose join orders are chosen at random.

    Parameters
    ----------
    variant:
        ``"skinner-c"``, ``"skinner-g"``, or ``"skinner-h"``.
    """
    randomized = random_skinner_config(config)
    if variant == "skinner-c":
        return SkinnerC(catalog, udfs, randomized)
    if variant == "skinner-g":
        return SkinnerG(catalog, udfs, randomized)
    if variant == "skinner-h":
        return SkinnerH(catalog, udfs, randomized)
    raise ValueError(f"unknown Skinner variant {variant!r}")
