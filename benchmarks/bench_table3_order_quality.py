"""Join order quality across engines (Table 3).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_table3_order_quality.py --benchmark-only -s
"""

from benchmarks.paper.experiments import table3

from conftest import run_experiment


def test_table3(benchmark):
    """Run the table3 experiment once and print the reproduced output."""
    output = run_experiment(
        benchmark, table3, scale=0.35,
        query_names=["job_q01", "job_q03", "job_q06", "job_q08", "job_q10",
                     "job_q14", "job_q15", "job_q16", "job_q18"],
    )
    assert output["records"], "the experiment produced no per-query records"
