"""Skinner-G driving sqlite: learned join order vs sqlite's default plan.

The external-engine acceptance benchmark: on the fanout-trap workload the
join order ``skinner_g_sqlite`` learns from batch completions must execute
strictly cheaper — on the adapter's deterministic work clock — than the
plan sqlite's own optimizer picks for the comma join.  Rows are
cross-checked byte-identical between the external engine, the internal
Skinner-G, and both forced full-query plans.  Run with::

    pytest benchmarks/bench_external_sqlite.py --benchmark-only -s
"""

from benchmarks.paper.experiments import EXPERIMENTS

from conftest import run_experiment


def test_external_sqlite(benchmark):
    """Run the external-engine experiment once and pin the headline number."""
    output = run_experiment(benchmark, EXPERIMENTS["external_sqlite"],
                            tuples_per_table=400)
    assert output["rows"], "the experiment produced no per-plan rows"
    # The experiment already asserts row equivalence and that the learned
    # order completes; pin the speedup here too so the artifact can't drift.
    assert output["speedup_learned_vs_default"] > 1.0, output
