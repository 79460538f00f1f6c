"""Streaming-cursor benchmark: time-to-first-batch vs completion delivery.

Measures, on the deterministic work-unit clock, when a PEP 249 cursor's
``fetchmany`` delivers its first batch versus when the query completes
(which is when the pre-API library delivered anything at all).  Streamed
rows are cross-checked byte-identical to ``execute_direct`` with identical
meter charges on every run.  Run with::

    pytest benchmarks/bench_streaming_cursor.py --benchmark-only -s
"""

from benchmarks.paper.experiments import EXPERIMENTS

from conftest import run_experiment, smoke_mode


def test_streaming_cursor(benchmark):
    """Run the streaming experiment once and check the acceptance bars."""
    output = run_experiment(benchmark, EXPERIMENTS["streaming_cursor"],
                            tuples_per_table=3_000)
    assert output["rows"], "the experiment produced no per-query rows"
    # The experiment itself asserts per query that the first batch lands
    # strictly before completion on the work clock and that streamed rows
    # and charges match the direct path; reaching this point checked it.
    if not smoke_mode():
        # At full scale every streamed query must fetch its first batch
        # while still running, and time-to-first-batch must beat
        # completion-time delivery by at least 2x.
        assert output["all_preempted_completion"], output
        assert output["min_ttfb_speedup"] >= 2.0, output
