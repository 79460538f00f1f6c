"""Join order benchmark, single-threaded (Table 1).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_table1_job_single.py --benchmark-only -s
"""

from benchmarks.paper.experiments import table1

from conftest import run_experiment


def test_table1(benchmark):
    """Run the table1 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, table1, scale=1.0)
    assert output["records"], "the experiment produced no per-query records"
