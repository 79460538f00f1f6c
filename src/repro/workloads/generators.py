"""Shared helpers for synthetic workload generation.

The generators are deterministic given a seed, so benchmark runs are
reproducible.  They provide the two ingredients the paper's hard workloads
rely on: *skew* (Zipfian join keys, so a few keys have enormous fan-out) and
*correlation* (column pairs whose joint selectivity is far from the product
of their marginal selectivities, breaking the optimizer's independence
assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog


@dataclass(frozen=True)
class WorkloadQuery:
    """A named query of a workload."""

    name: str
    query: Query
    description: str = ""
    tags: tuple[str, ...] = ()


@dataclass
class Workload:
    """A catalog plus the queries to run against it."""

    name: str
    catalog: Catalog
    udfs: UdfRegistry = field(default_factory=UdfRegistry)
    queries: list[WorkloadQuery] = field(default_factory=list)
    parameters: dict[str, Any] = field(default_factory=dict)

    def query(self, name: str) -> WorkloadQuery:
        """Look up a query by name."""
        for workload_query in self.queries:
            if workload_query.name == name:
                return workload_query
        raise KeyError(f"workload {self.name!r} has no query {name!r}")

    def tagged(self, tag: str) -> list[WorkloadQuery]:
        """Queries carrying the given tag."""
        return [q for q in self.queries if tag in q.tags]


def make_rng(seed: int) -> np.random.Generator:
    """A deterministic numpy random generator."""
    return np.random.default_rng(seed)


def zipf_keys(rng: np.random.Generator, size: int, num_keys: int, skew: float = 1.2) -> np.ndarray:
    """``size`` integer keys in ``[0, num_keys)`` with a Zipf-like distribution.

    ``skew`` controls how heavy the head is; 0 gives uniform keys.
    """
    if num_keys <= 0:
        raise ValueError("num_keys must be positive")
    if skew <= 0:
        return rng.integers(0, num_keys, size=size)
    ranks = np.arange(1, num_keys + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, skew)
    weights /= weights.sum()
    return rng.choice(num_keys, size=size, p=weights)


def correlated_column(
    rng: np.random.Generator,
    base: np.ndarray,
    num_values: int,
    correlation: float,
) -> np.ndarray:
    """A column correlated with ``base``.

    With probability ``correlation`` a row copies ``base[row] % num_values``;
    otherwise it draws a uniform value.  ``correlation=1`` makes the columns
    functionally dependent, which is the worst case for independence-based
    selectivity estimation.
    """
    copied = np.mod(base, num_values)
    uniform = rng.integers(0, num_values, size=base.shape[0])
    mask = rng.random(base.shape[0]) < correlation
    return np.where(mask, copied, uniform)


def uniform_keys(rng: np.random.Generator, size: int, num_keys: int) -> np.ndarray:
    """``size`` uniform integer keys in ``[0, num_keys)``."""
    return rng.integers(0, num_keys, size=size)


def choice_strings(
    rng: np.random.Generator, size: int, values: list[str], weights: list[float] | None = None
) -> list[str]:
    """``size`` strings drawn from ``values`` with optional weights."""
    if weights is not None:
        probabilities = np.asarray(weights, dtype=np.float64)
        probabilities /= probabilities.sum()
        draws = rng.choice(len(values), size=size, p=probabilities)
    else:
        draws = rng.integers(0, len(values), size=size)
    return [values[int(i)] for i in draws]
