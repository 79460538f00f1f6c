"""Standard engine configurations used by the experiment drivers."""

from __future__ import annotations

import dataclasses

from repro.baselines.traditional import TraditionalEngine
from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.skinner_h import SkinnerH

from .ablations import RandomSkinnerH, SkinnerCVariant
from .baselines import EddyEngine, ReOptimizerEngine
from .harness import EngineSpec

#: Skinner configuration used by the benchmark harness.  The paper's default
#: time-slice budget is 500 multi-way-join iterations against IMDb-scale
#: data; the synthetic workloads here are roughly three orders of magnitude
#: smaller, so the per-slice budget is scaled down accordingly (exploration
#: would otherwise dominate, see ``docs/ci.md``).
BENCH_CONFIG = DEFAULT_CONFIG.with_overrides(slice_budget=100, batches_per_table=8,
                                             base_timeout=1_500)


def skinner_c_spec(
    name: str = "Skinner-C",
    config: SkinnerConfig = BENCH_CONFIG,
    *,
    random_orders: bool = False,
    join_maps: bool = True,
) -> EngineSpec:
    """Skinner-C with the benchmark configuration, or one of its ablations
    (:class:`~benchmarks.paper.ablations.SkinnerCVariant`)."""
    if random_orders or not join_maps:
        return EngineSpec(name=name, factory=lambda w: SkinnerCVariant(
            w.catalog, w.udfs, config, random_orders=random_orders, join_maps=join_maps))
    return EngineSpec(
        name=name,
        factory=lambda w: SkinnerC(w.catalog, w.udfs, config),
    )


def traditional_spec(name: str, profile: str) -> EngineSpec:
    """A traditional optimizer + executor, its work weighted under ``profile``."""
    return EngineSpec(
        name=name,
        factory=lambda w: TraditionalEngine(w.catalog, w.udfs),
        supports_budget=True,
        profile=profile,
    )


def skinner_g_spec(
    name: str,
    profile: str,
    config: SkinnerConfig = BENCH_CONFIG,
) -> EngineSpec:
    """Skinner-G on the internal executor, its work weighted under ``profile``."""
    return EngineSpec(
        name=name,
        factory=lambda w: SkinnerG(w.catalog, w.udfs, config),
        profile=profile,
    )


def skinner_h_spec(
    name: str,
    profile: str,
    config: SkinnerConfig = BENCH_CONFIG,
    *,
    random_orders: bool = False,
) -> EngineSpec:
    """Skinner-H on the internal executor, its work weighted under ``profile``;
    ``random_orders`` is Table 5's ablation
    (:class:`~benchmarks.paper.ablations.RandomSkinnerH`)."""
    engine_class = RandomSkinnerH if random_orders else SkinnerH
    return EngineSpec(
        name=name,
        factory=lambda w: engine_class(w.catalog, w.udfs, config),
        profile=profile,
    )


def eddy_spec(name: str = "Eddy") -> EngineSpec:
    """The Eddies-style adaptive baseline."""
    return EngineSpec(
        name=name,
        factory=lambda w: EddyEngine(w.catalog, w.udfs),
        supports_budget=True,
    )


def reoptimizer_spec(name: str = "Reoptimizer") -> EngineSpec:
    """The sampling-based re-optimization baseline."""
    return EngineSpec(
        name=name,
        factory=lambda w: ReOptimizerEngine(w.catalog, w.udfs),
        supports_budget=True,
    )


def optimizer_spec(name: str = "Optimizer") -> EngineSpec:
    """The traditional optimizer on the same (Java-style) engine as Skinner.

    The appendix experiments compare baselines that share Skinner's execution
    engine; this spec pairs the estimate-based optimizer with the ``skinner``
    engine profile for that purpose.
    """
    return traditional_spec(name, profile="skinner")


def job_single_threaded_specs() -> list[EngineSpec]:
    """The seven configurations of Table 1."""
    return [
        skinner_c_spec("Skinner-C"),
        traditional_spec("Postgres", "postgres"),
        skinner_g_spec("S-G(PG)", "postgres"),
        skinner_h_spec("S-H(PG)", "postgres"),
        traditional_spec("MonetDB", "monetdb"),
        skinner_g_spec("S-G(MDB)", "monetdb"),
        skinner_h_spec("S-H(MDB)", "monetdb"),
    ]


def job_multi_threaded_specs(threads: int = 8, *, workers: int = 1) -> list[EngineSpec]:
    """The four configurations of Table 2.

    Every configuration executes once, on one core's worth of work clock;
    ``threads`` is the core count its records are re-weighted for.
    ``workers > 1`` runs Skinner-C morsel-parallel over that many worker
    processes (rows and meter charges are byte-identical by design, only
    wall-clock changes).
    """
    config = BENCH_CONFIG if workers <= 1 else BENCH_CONFIG.with_overrides(
        parallel_workers=workers
    )
    specs = [
        skinner_c_spec("Skinner-C", config),
        traditional_spec("MonetDB", "monetdb"),
        skinner_g_spec("S-G(MDB)", "monetdb"),
        skinner_h_spec("S-H(MDB)", "monetdb"),
    ]
    return [dataclasses.replace(spec, threads=threads) for spec in specs]


def torture_specs() -> list[EngineSpec]:
    """The baseline set used by the appendix micro-benchmarks (Figures 9-12)."""
    return [
        skinner_c_spec("Skinner-C"),
        eddy_spec(),
        optimizer_spec(),
        reoptimizer_spec(),
        traditional_spec("Postgres", "postgres"),
        skinner_g_spec("S-G(PG)", "postgres"),
        skinner_h_spec("S-H(PG)", "postgres"),
        traditional_spec("Com-DB", "commercial"),
        skinner_g_spec("S-G(Com-DB)", "commercial"),
        skinner_h_spec("S-H(Com-DB)", "commercial"),
        traditional_spec("MonetDB", "monetdb"),
    ]
