"""Memory consumption of Skinner-C (Figure 8).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_figure8_memory.py --benchmark-only -s
"""

from benchmarks.paper.experiments import figure8

from conftest import run_experiment


def test_figure8(benchmark):
    """Run the figure8 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, figure8, scale=0.5)
    assert output["records"], "the experiment produced no per-query records"
