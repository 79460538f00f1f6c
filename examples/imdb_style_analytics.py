"""Join-Order-Benchmark style analytics: when optimizers go wrong.

Builds the synthetic JOB analogue (correlated, skewed movie data), picks one
of the "hazard" queries whose plan a traditional optimizer gets badly wrong,
and runs it on the package's four engines, printing work units, wall-clock
milliseconds, intermediate-result cardinality, and the join order each engine
ended up using.

Run with::

    python examples/imdb_style_analytics.py [scale]

The paper's comparison engines (an eddy and a sampling re-optimizer) belong
to the benchmark harness; from the repository root,
``python -m benchmarks.paper figure11`` runs them beside Skinner-C.
"""

import sys

from repro.baselines.traditional import TraditionalEngine
from repro.config import SkinnerConfig
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.skinner_h import SkinnerH
from repro.workloads.job import make_job_workload

# The synthetic data is ~1000x smaller than IMDb, so the budgets are scaled down.
CONFIG = SkinnerConfig(slice_budget=100, batches_per_table=8, base_timeout=1_500)


def main(scale: float = 0.5) -> None:
    workload = make_job_workload(scale=scale)
    hazard = workload.tagged("hazard")[0]
    print(f"Workload: JOB analogue at scale {scale}")
    print(f"Query    : {hazard.name} — {hazard.description}")
    print(f"SQL-ish  : {hazard.query.display()}\n")

    engines = {
        "Skinner-C": SkinnerC(workload.catalog, workload.udfs, CONFIG),
        "Skinner-G": SkinnerG(workload.catalog, workload.udfs, CONFIG),
        "Skinner-H": SkinnerH(workload.catalog, workload.udfs, CONFIG),
        "Traditional": TraditionalEngine(workload.catalog, workload.udfs),
    }

    header = (f"{'engine':<14} {'work units':>12} {'wall ms':>9} {'interm. card.':>14} "
              f"{'rows':>6}  join order")
    print(header)
    print("-" * len(header))
    reference_rows = None
    for name, engine in engines.items():
        result = engine.execute(hazard.query)
        metrics = result.metrics
        order = " ".join(metrics.final_join_order) if metrics.final_join_order else "-"
        print(f"{name:<14} {metrics.work.total:>12,} {metrics.wall_time_seconds * 1e3:>9.1f} "
              f"{metrics.intermediate_cardinality:>14,} {metrics.result_rows:>6}  {order}")
        if reference_rows is None:
            reference_rows = result.rows
        assert result.rows == reference_rows, f"{name} returned a different result!"
    print("\nAll engines returned identical results; the difference is purely "
          "how many tuples they had to touch to get there.")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.5)
