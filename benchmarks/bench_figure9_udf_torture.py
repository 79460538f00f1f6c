"""UDF Torture benchmark (Figure 9).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_figure9_udf_torture.py --benchmark-only -s
"""

from benchmarks.paper.experiments import figure9

from conftest import run_experiment


def test_figure9(benchmark):
    """Run the figure9 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, figure9, table_counts=(4, 5, 6), tuples_per_table=50, budget=80_000)
    assert output["records"], "the experiment produced no per-query records"
