"""Learning versus randomized join orders (Table 5).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_table5_learning_vs_random.py --benchmark-only -s
"""

from benchmarks.paper.experiments import table5

from conftest import run_experiment


def test_table5(benchmark):
    """Run the table5 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, table5, scale=0.4)
    assert output["records"], "the experiment produced no per-query records"
