"""Convergence of Skinner-C (Figure 7).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_figure7_convergence.py --benchmark-only -s
"""

from benchmarks.paper.experiments import figure7

from conftest import run_experiment


def test_figure7(benchmark):
    """Run the figure7 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, figure7, scale=0.5)
    assert output["records"], "the experiment produced no per-query records"
