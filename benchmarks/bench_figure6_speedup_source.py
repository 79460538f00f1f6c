"""Source of speedups versus MonetDB (Figure 6).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_figure6_speedup_source.py --benchmark-only -s
"""

from benchmarks.paper.experiments import figure6

from conftest import run_experiment


def test_figure6(benchmark):
    """Run the figure6 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, figure6, scale=0.5)
    assert output["records"], "the experiment produced no per-query records"
