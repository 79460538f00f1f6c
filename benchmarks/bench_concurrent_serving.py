"""Concurrent-serving benchmark: fair episode scheduler vs FIFO execution.

Measures time-to-first-result percentiles of a mixed 8-query workload under
the :class:`~repro.serving.server.QueryServer` vs FIFO one-at-a-time
execution (byte-identical results and meter charges are cross-checked on
every run), plus the total-makespan gain of warm-starting UCT trees from
the cross-query join-order cache.  Run with::

    pytest benchmarks/bench_concurrent_serving.py --benchmark-only -s
"""

from benchmarks.paper.experiments import EXPERIMENTS

from conftest import run_experiment, smoke_mode


def test_concurrent_serving(benchmark):
    """Run the serving experiment once and check the scheduler's wins."""
    output = run_experiment(benchmark, EXPERIMENTS["concurrent_serving"],
                            tuples_per_table=3_000)
    assert output["rows"], "the experiment produced no per-query rows"
    # Interleaving must never change answers; the experiment raises on any
    # solo-vs-served divergence, so reaching this point already checked it.
    if not smoke_mode():
        # The episode scheduler must beat FIFO by at least 2x on p95 TTFR
        # (smoke inputs are too tiny for the heavy query to dominate), and
        # the join-order warm start must reduce the repeated-template
        # makespan.
        assert output["p95_speedup"] >= 2.0, output
        assert output["warm_start_makespan_ratio"] < 1.0, output
