"""Multi-tenant network front-door benchmark: remote TTFB and fairness.

Starts a real :class:`~repro.net.server.ServerThread` and measures the p95
wall-clock time-to-first-batch of concurrent ``repro://`` clients across
three tenants (byte-identical rows and meter charges against solo local
runs are cross-checked on every query), then measures on the deterministic
work-unit clock how far an adversarial flooding tenant can delay a light
tenant's query — at equal quota, and with the light tenant
quota-protected.  Run with::

    pytest benchmarks/bench_multitenant_server.py --benchmark-only -s
"""

from benchmarks.paper.experiments import EXPERIMENTS

from conftest import run_experiment, smoke_mode


def test_multitenant_server(benchmark):
    """Run the front-door experiment once and check fairness bounds."""
    output = run_experiment(benchmark, EXPERIMENTS["multitenant_server"],
                            tuples_per_table=3_000)
    # Byte-identity over the wire is asserted inside the experiment: any
    # remote rows/charges divergence from the solo references raises there.
    remote = output["remote"]
    assert remote["ttfb_samples"] > 0, output
    assert remote["p95_ttfb_seconds"] >= 0.0, output
    fairness = output["fairness"]
    assert fairness["light_solo_delay"] > 0, output
    if not smoke_mode():
        # Stride scheduling bounds the flood's damage: with one heavy and
        # one light tenant at equal quota the light query may at most
        # roughly double (its fair share is half the clock); smoke inputs
        # are too tiny for the grant quantum to amortize.
        assert fairness["flooded_slowdown"] <= 2.5, output
        # Quota protection must strictly help versus the unshielded flood.
        assert fairness["light_shielded_delay"] <= fairness["light_flooded_delay"], output
