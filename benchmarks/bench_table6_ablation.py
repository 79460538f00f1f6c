"""Feature ablation (Table 6).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_table6_ablation.py --benchmark-only -s
"""

from benchmarks.paper.experiments import table6

from conftest import run_experiment


def test_table6(benchmark):
    """Run the table6 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, table6, scale=0.4)
    assert output["records"], "the experiment produced no per-query records"
