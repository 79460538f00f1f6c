"""Engine profiles: the paper's systems as weights over work units.

The paper compares systems with very different per-tuple overheads: MonetDB
(vectorized column store, lowest per-tuple cost), Postgres (row store),
a commercial adaptive system, and the Java-based Skinner engine (highest
per-tuple cost but best join orders).  A profile captures that constant
factor plus how much of the execution parallelizes, so the harness can
reproduce the single- vs multi-threaded comparisons (Tables 1 vs 2) without
real threads.  The engines report work units only; a report weights them
here, through :func:`benchmarks.paper.metrics.modelled_time`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.meter import WorkBreakdown


@dataclass(frozen=True)
class EngineProfile:
    """Weights converting a :class:`WorkBreakdown` into simulated time.

    Attributes
    ----------
    name:
        Profile name (``skinner``, ``postgres``, ``monetdb``, ``commercial``).
    scan_weight, predicate_weight, probe_weight, intermediate_weight,
    output_weight, udf_weight:
        Cost per work unit of each kind, in abstract milliseconds.
    parallel_fraction:
        Fraction of the work that parallelizes across cores in the
        multi-threaded configuration (Amdahl's law).  SkinnerDB only
        parallelizes pre-processing; MonetDB parallelizes the whole plan.
    startup_cost:
        Fixed per-query overhead (optimizer invocation, plan setup).
    """

    name: str
    scan_weight: float = 1.0
    predicate_weight: float = 1.0
    probe_weight: float = 1.0
    intermediate_weight: float = 1.0
    output_weight: float = 1.0
    udf_weight: float = 1.0
    parallel_fraction: float = 0.0
    startup_cost: float = 0.0

    def simulated_time(self, work: WorkBreakdown, *, threads: int = 1) -> float:
        """Simulated time (abstract ms) for the given work under ``threads``."""
        serial = (
            work.tuples_scanned * self.scan_weight
            + work.predicate_evals * self.predicate_weight
            + work.hash_probes * self.probe_weight
            + work.intermediate_tuples * self.intermediate_weight
            + work.output_tuples * self.output_weight
            + work.udf_invocations * self.udf_weight
        )
        if threads <= 1 or self.parallel_fraction <= 0.0:
            return self.startup_cost + serial
        parallel_part = serial * self.parallel_fraction / threads
        serial_part = serial * (1.0 - self.parallel_fraction)
        return self.startup_cost + serial_part + parallel_part


# Per-tuple cost ordering mirrors the paper's observations: MonetDB has the
# lowest per-tuple overhead, Postgres pays row-store and disk-format
# penalties, the commercial system sits in between, and the (Java) Skinner
# engine pays interpretation and join-order-switching overhead per tuple.
_PROFILES: dict[str, EngineProfile] = {
    "monetdb": EngineProfile(
        name="monetdb",
        scan_weight=0.2,
        predicate_weight=0.2,
        probe_weight=0.25,
        intermediate_weight=0.3,
        output_weight=0.3,
        udf_weight=2.0,
        parallel_fraction=0.95,
        startup_cost=5.0,
    ),
    "postgres": EngineProfile(
        name="postgres",
        scan_weight=0.8,
        predicate_weight=0.7,
        probe_weight=0.9,
        intermediate_weight=1.2,
        output_weight=1.0,
        udf_weight=2.0,
        parallel_fraction=0.0,
        startup_cost=10.0,
    ),
    "commercial": EngineProfile(
        name="commercial",
        scan_weight=0.5,
        predicate_weight=0.5,
        probe_weight=0.6,
        intermediate_weight=0.8,
        output_weight=0.7,
        udf_weight=2.0,
        parallel_fraction=0.7,
        startup_cost=8.0,
    ),
    "skinner": EngineProfile(
        name="skinner",
        scan_weight=1.0,
        predicate_weight=1.0,
        probe_weight=1.2,
        intermediate_weight=1.0,
        output_weight=1.0,
        udf_weight=2.0,
        # Only pre-processing parallelizes (paper §6.1); the join phase is
        # single-threaded, which the harness models by applying the parallel
        # fraction to pre-processing work only.
        parallel_fraction=0.3,
        startup_cost=2.0,
    ),
}


def get_profile(name: str | EngineProfile) -> EngineProfile:
    """Return a named engine profile (case-insensitive); a profile is itself."""
    if isinstance(name, EngineProfile):
        return name
    try:
        return _PROFILES[name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_PROFILES))
        raise KeyError(f"unknown engine profile {name!r}; known profiles: {known}") from exc


def profile_names() -> list[str]:
    """Names of all built-in profiles."""
    return sorted(_PROFILES)
