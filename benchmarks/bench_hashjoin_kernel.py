"""Hash-join kernel benchmark: vectorized kernel vs the dict-based reference.

Measures the plan executor's hash-join operator against the
``rows_hash_join_step`` test oracle on join-heavy three-table plans,
cross-checking byte-identical results and meter charges on every run.  Run
with::

    pytest benchmarks/bench_hashjoin_kernel.py --benchmark-only -s
"""

from benchmarks.paper.experiments import EXPERIMENTS

from conftest import run_experiment, smoke_mode


def test_hashjoin_kernel(benchmark):
    """Run the hash-join experiment once and check the kernel speedup."""
    output = run_experiment(benchmark, EXPERIMENTS["hashjoin_kernel"],
                            tuples_per_table=120_000)
    assert output["rows"], "the experiment produced no per-query rows"
    if not smoke_mode():
        # The join-heavy chain plan must show at least the 5x speedup the
        # vectorized kernel is sold on (smoke inputs are too tiny to assert).
        assert output["speedups"]["chain_fanout"] >= 5.0, output["speedups"]
