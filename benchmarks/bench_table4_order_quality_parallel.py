"""Join order quality, multi-threaded (Table 4).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  The learning
Skinner-C passes execute morsel-parallel over ``workers`` processes (the
learned orders are byte-identical to a single-process run by design); the
measured A/B wall-clock lands under ``output["parallel"]``.  Run with::

    pytest benchmarks/bench_table4_order_quality_parallel.py --benchmark-only -s
"""

from benchmarks.paper.experiments import table4

from conftest import run_experiment

WORKERS = 4


def test_table4(benchmark):
    """Run the table4 experiment once and print the reproduced output."""
    output = run_experiment(
        benchmark, table4, scale=0.35, threads=8, workers=WORKERS,
        query_names=["job_q01", "job_q03", "job_q06", "job_q08", "job_q10",
                     "job_q14", "job_q15", "job_q16", "job_q18"],
    )
    assert output["records"], "the experiment produced no per-query records"
    assert output["parallel"] is not None, "workers > 1 must produce the A/B measurement"
