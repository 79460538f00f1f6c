"""Trivial Optimization benchmark (Figure 12).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_figure12_trivial.py --benchmark-only -s
"""

from benchmarks.paper.experiments import figure12

from conftest import run_experiment


def test_figure12(benchmark):
    """Run the figure12 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, figure12, table_counts=(4, 5, 6), tuples_per_table=150, budget=80_000)
    assert output["records"], "the experiment produced no per-query records"
