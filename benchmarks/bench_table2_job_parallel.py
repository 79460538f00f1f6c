"""Join order benchmark, multi-threaded (Table 2).

Regenerates the corresponding result of the paper's evaluation with the
synthetic workload substitutes described in ``docs/ci.md``.  Unlike its
single-threaded sibling, this variant actually executes Skinner-C
morsel-parallel over ``workers`` processes and records the measured
single-process versus parallel wall-clock.  Run with::

    pytest benchmarks/bench_table2_job_parallel.py --benchmark-only -s
"""

from benchmarks.paper.experiments import table2

from conftest import run_experiment, smoke_mode

WORKERS = 4

#: Minimum measured wall-clock speedup at 4 workers on the full-scale
#: nightly run.  Smoke runs shrink the workload (and cap workers at 2)
#: below the point where process parallelism can pay for its overhead,
#: so the gate applies to the nightly configuration only.
MIN_SPEEDUP = 1.6


def test_table2(benchmark):
    """Run the table2 experiment once and print the reproduced output."""
    output = run_experiment(
        benchmark, table2, scale=1.0, threads=8, workers=WORKERS
    )
    assert output["records"], "the experiment produced no per-query records"
    parallel = output["parallel"]
    assert parallel is not None, "workers > 1 must produce the A/B measurement"
    if not smoke_mode() and parallel["workers"] >= 4:
        assert parallel["speedup"] >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x wall-clock speedup at "
            f"{parallel['workers']} workers, measured {parallel['speedup']}x"
        )
