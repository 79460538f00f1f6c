"""Optimizer failures and disasters (Figure 11).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_figure11_failures.py --benchmark-only -s
"""

from benchmarks.paper.experiments import figure11

from conftest import run_experiment


def test_figure11(benchmark):
    """Run the figure11 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, figure11, table_counts=(4, 5, 6), tuples_per_table=400, budget=60_000)
    assert output["records"], "the experiment produced no per-query records"
