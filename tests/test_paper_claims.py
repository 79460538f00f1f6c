"""Qualitative reproduction tests for the paper's headline claims.

These tests run the actual engines on small instances of the paper's
workloads and assert the *shape* of the results — who wins, and by roughly
what kind of margin — rather than absolute numbers.
"""

import pytest

from repro.baselines.traditional import TraditionalEngine
from repro.config import SkinnerConfig
from repro.optimizer.exhaustive import optimal_plan
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_h import SkinnerH
from repro.workloads.job import make_job_workload
from repro.workloads.torture import make_correlation_torture, make_udf_torture
from benchmarks.paper.metrics import QueryRecord, count_failures_and_disasters, modelled_time
from benchmarks.paper.specs import BENCH_CONFIG

FAST = SkinnerConfig(slice_budget=64, batches_per_table=3, base_timeout=300)


@pytest.fixture(scope="module")
def job():
    return make_job_workload(scale=0.4, seed=13)


class TestJoinOrderBenchmarkClaims:
    def test_skinner_c_beats_traditional_on_hazard_queries(self, job):
        """The traditional optimizer's catastrophic plans are Skinner's win (Table 1)."""
        skinner = SkinnerC(job.catalog, job.udfs, FAST)
        postgres = TraditionalEngine(job.catalog, job.udfs)
        for workload_query in job.tagged("hazard"):
            learned = skinner.execute(workload_query.query)
            planned = postgres.execute(workload_query.query)
            assert learned.rows == planned.rows
            assert modelled_time(learned.metrics, "skinner") < modelled_time(
                planned.metrics, "postgres"), workload_query.name

    def test_traditional_wins_most_easy_queries(self, job):
        """Per-tuple overhead makes the traditional engine faster on easy queries (Fig. 6)."""
        skinner = SkinnerC(job.catalog, job.udfs, FAST)
        postgres = TraditionalEngine(job.catalog, job.udfs)
        easy = job.tagged("easy")
        wins = sum(
            modelled_time(postgres.execute(q.query).metrics, "postgres")
            < modelled_time(skinner.execute(q.query).metrics, "skinner")
            for q in easy
        )
        assert wins >= len(easy) // 2

    def test_skinner_final_order_helps_traditional_engine(self, job):
        """Table 3: forcing Skinner's learned order into the traditional engine
        never makes a hazard query slower (it fixes the catastrophic plan)."""
        skinner = SkinnerC(job.catalog, job.udfs, FAST)
        postgres = TraditionalEngine(job.catalog, job.udfs)
        workload_query = job.tagged("hazard")[0]
        learned_order = skinner.execute(workload_query.query).metrics.final_join_order
        original = postgres.execute(workload_query.query)
        forced = postgres.execute(workload_query.query, forced_order=learned_order)
        assert forced.metrics.intermediate_cardinality <= original.metrics.intermediate_cardinality

    def test_learning_beats_randomization(self, job):
        """Table 5: replacing UCT by random join orders costs performance."""
        queries = job.tagged("hazard") + job.tagged("large")
        learned_engine = SkinnerC(job.catalog, job.udfs, FAST)
        random_engine = SkinnerC(job.catalog, job.udfs,
                                 FAST.with_overrides(order_selection="random", seed=3))
        learned_total = sum(
            modelled_time(learned_engine.execute(q.query).metrics, "skinner") for q in queries
        )
        random_total = sum(
            modelled_time(random_engine.execute(q.query).metrics, "skinner") for q in queries
        )
        assert learned_total < random_total

    def test_learned_order_is_near_the_enumerated_optimum(self, job):
        """Table 3, query by query: inside Skinner's own engine the order UCT
        settles on costs at most 1.5x the C_out-optimal order found by
        exhaustive enumeration over true cardinalities.  The net under the
        slice-budget schedule: growing slices must not lock in a bad order."""
        skinner = SkinnerC(job.catalog, job.udfs, FAST)
        checked = 0
        for workload_query in job.queries:
            query = workload_query.query
            if query.num_tables > 5:
                continue
            learned_order = skinner.execute(query).metrics.final_join_order
            optimal_order = optimal_plan(job.catalog, query, job.udfs).order
            learned = skinner.execute_with_order(query, learned_order)
            optimal = skinner.execute_with_order(query, optimal_order)
            assert learned.rows == optimal.rows
            assert learned.metrics.work.total <= 1.5 * optimal.metrics.work.total, \
                workload_query.name
            checked += 1
        assert checked >= 10

    def test_learning_beats_randomization_on_the_whole_workload(self, job):
        """Table 5's Skinner-C rows as the benchmark runs them: all queries,
        the benchmark configuration, learned total below random total."""
        learned_engine = SkinnerC(job.catalog, job.udfs, BENCH_CONFIG)
        random_engine = SkinnerC(job.catalog, job.udfs,
                                 BENCH_CONFIG.with_overrides(order_selection="random"))
        learned_total = sum(
            modelled_time(learned_engine.execute(q.query).metrics, "skinner")
            for q in job.queries
        )
        random_total = sum(
            modelled_time(random_engine.execute(q.query).metrics, "skinner")
            for q in job.queries
        )
        assert learned_total < random_total


class TestHybridClaims:
    def test_hybrid_bounded_versus_traditional_on_easy_queries(self, job):
        """Theorem 5.8: Skinner-H pays at most a constant factor over the optimizer."""
        postgres = TraditionalEngine(job.catalog, job.udfs)
        hybrid = SkinnerH(job.catalog, job.udfs, FAST)
        for workload_query in job.tagged("easy")[:3]:
            planned = postgres.execute(workload_query.query)
            hybrid_result = hybrid.execute(workload_query.query)
            assert hybrid_result.metrics.work.total <= 20 * max(1, planned.metrics.work.total)

    def test_hybrid_recovers_on_hazard_query(self, job):
        """On catastrophic queries the hybrid's learning side limits the damage."""
        hybrid = SkinnerH(job.catalog, job.udfs, FAST)
        workload_query = job.tagged("hazard")[0]
        result = hybrid.execute(workload_query.query)
        assert result.metrics.extra["winner"] in ("traditional", "learning")
        assert result.table.num_rows >= 0


class TestTortureClaims:
    def test_skinner_never_disasters_on_correlation_torture(self):
        """Figure 11: the regret-bounded strategy avoids optimizer disasters."""
        records = []
        for num_tables in (4, 5):
            for good_position in (1, num_tables // 2):
                workload = make_correlation_torture(
                    num_tables, 80, good_position=good_position
                )
                query = workload.queries[0]
                skinner = SkinnerC(workload.catalog, workload.udfs, FAST)
                optimizer = TraditionalEngine(workload.catalog, workload.udfs)
                records.append(QueryRecord.from_metrics(
                    "Skinner", query.name, skinner.execute(query.query).metrics,
                    profile="skinner"))
                records.append(QueryRecord.from_metrics(
                    "Optimizer", query.name,
                    optimizer.execute(query.query, work_budget=150_000).metrics,
                    profile="skinner"))
        counts = count_failures_and_disasters(records, metric="time")
        assert counts.get("Skinner", {}).get("disasters", 0) == 0

    def test_udf_torture_skinner_faster_than_optimizer_when_it_matters(self):
        """Figure 9: with opaque UDF joins the optimizer eventually explodes.

        The optimizer cannot distinguish the never-satisfied UDF edge from the
        always-true ones; depending on tie-breaking it either gets lucky (in
        which case Skinner stays within a small constant factor) or explodes
        into the per-query timeout.  Skinner must never be the one exploding.
        """
        workload = make_udf_torture(6, 40, shape="chain", good_position=2)
        query = workload.queries[0].query
        skinner = SkinnerC(workload.catalog, workload.udfs, FAST)
        optimizer = TraditionalEngine(workload.catalog, workload.udfs)
        learned = skinner.execute(query)
        planned = optimizer.execute(query, work_budget=200_000)
        assert learned.rows[0]["matches"] == 0
        timed_out = planned.metrics.extra["timed_out"]
        assert timed_out or modelled_time(learned.metrics, "skinner") <= 3 * modelled_time(
            planned.metrics, "skinner")
