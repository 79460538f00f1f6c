"""TPC-H per-query times (Figure 13).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_figure13_tpch_queries.py --benchmark-only -s
"""

from benchmarks.paper.experiments import figure13

from conftest import run_experiment


def test_figure13(benchmark):
    """Run the figure13 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, figure13, scale=0.5)
    assert output["records"], "the experiment produced no per-query records"
