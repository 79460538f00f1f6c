"""Correlation Torture benchmark (Figure 10).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_figure10_correlation_torture.py --benchmark-only -s
"""

from benchmarks.paper.experiments import figure10

from conftest import run_experiment


def test_figure10(benchmark):
    """Run the figure10 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, figure10, table_counts=(4, 5, 6), tuples_per_table=400, budget=80_000)
    assert output["records"], "the experiment produced no per-query records"
