"""TPC-H variants summary (Table 7).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Run with::

    pytest benchmarks/bench_table7_tpch_summary.py --benchmark-only -s
"""

from benchmarks.paper.experiments import table7

from conftest import run_experiment


def test_table7(benchmark):
    """Run the table7 experiment once and print the reproduced output."""
    output = run_experiment(benchmark, table7, scale=0.5)
    assert output["records"], "the experiment produced no per-query records"
