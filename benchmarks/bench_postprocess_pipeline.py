"""Post-processing pipeline benchmark: columnar vs row path.

Measures the aggregation-/DISTINCT-/ORDER-BY-heavy post-processing stage
against the ``rows_post_process`` test oracle over one large materialized
join result.
Run with::

    pytest benchmarks/bench_postprocess_pipeline.py --benchmark-only -s
"""

from benchmarks.paper.experiments import EXPERIMENTS

from conftest import run_experiment, smoke_mode


def test_postprocess_pipeline(benchmark):
    """Run the post-processing experiment once and check the columnar speedup."""
    output = run_experiment(benchmark, EXPERIMENTS["postprocess_pipeline"],
                            tuples_per_table=150_000)
    assert output["rows"], "the experiment produced no per-query rows"
    if not smoke_mode():
        # The aggregation-heavy query must show at least the 2x speedup the
        # columnar pipeline is sold on (smoke inputs are too tiny to assert).
        assert output["speedups"]["group_aggregate"] >= 2.0, output["speedups"]
