"""XPath-axes self-joins: Skinner-C vs the traditional optimizer.

The document-store acceptance benchmark: on the seeded axes workload the
learned engine must finish the whole query pool strictly cheaper — on the
deterministic work clock — than the traditional optimizer's static plans,
whose estimates the shredded node table misleads by construction (marginal
histograms, distinct-count string equality).  Rows are cross-checked
byte-identical between both engines per query.  Run with::

    pytest benchmarks/bench_docstore_axes.py --benchmark-only -s
"""

from benchmarks.paper.experiments import EXPERIMENTS

from conftest import run_experiment


def test_docstore_axes(benchmark):
    """Run the axes workload once and pin the headline speedup."""
    output = run_experiment(benchmark, EXPERIMENTS["docstore_axes"],
                            documents=6, items_per_document=18, depth=2)
    assert output["queries"] == 8, output
    # The experiment already asserts row equivalence and the aggregate win;
    # pin the speedup here too so the artifact can't drift.
    assert output["speedup_learned_vs_traditional"] > 1.0, output
