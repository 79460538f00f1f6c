"""Tests for the benchmark harness, metrics aggregation, and reporting."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.api.registry import DEFAULT_REGISTRY, EngineContext
from repro.config import SkinnerConfig
from repro.engine.meter import WorkBreakdown
from repro.skinner import parallel
from repro.skinner.parallel import ParallelSkinnerCTask
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask
from repro.workloads.torture import make_trivial_workload, make_udf_torture
from benchmarks.paper.harness import EngineSpec, run_query, run_workload
from benchmarks.paper.metrics import (
    QueryRecord,
    aggregate_records,
    count_failures_and_disasters,
    modelled_time,
    per_query_speedups,
    relative_overheads,
    time_share_of_top_queries,
)
from benchmarks.paper.profiles import get_profile
from benchmarks.paper.report import format_series, format_table
from benchmarks.paper.specs import (
    BENCH_CONFIG,
    job_multi_threaded_specs,
    job_single_threaded_specs,
    skinner_c_spec,
    torture_specs,
    traditional_spec,
)

FAST = SkinnerConfig(slice_budget=32, batches_per_table=2, base_timeout=150)


def record(engine, query, time, card=0, evals=0, timed_out=False):
    return QueryRecord(
        engine=engine, query=query, simulated_time=time,
        intermediate_cardinality=card, predicate_evaluations=evals,
        result_rows=0, timed_out=timed_out,
    )


class TestMetricsAggregation:
    RECORDS = [
        record("A", "q1", 10, card=5), record("A", "q2", 90, card=50),
        record("B", "q1", 100, card=40), record("B", "q2", 30, card=10),
    ]

    def test_aggregate_records(self):
        summaries = {s.engine: s for s in aggregate_records(self.RECORDS)}
        assert summaries["A"].total_time == 100
        assert summaries["A"].max_time == 90
        assert summaries["B"].total_cardinality == 50
        assert summaries["A"].queries == 2
        assert summaries["A"].as_row()["Approach"] == "A"

    def test_relative_overheads(self):
        overheads = relative_overheads(self.RECORDS)
        assert overheads["A"] == pytest.approx(3.0)  # 90 / 30 on q2
        assert overheads["B"] == pytest.approx(10.0)  # 100 / 10 on q1

    def test_failures_and_disasters_by_time(self):
        records = self.RECORDS + [record("C", "q1", 2000), record("C", "q2", 29)]
        counts = count_failures_and_disasters(records, metric="time")
        assert counts["C"]["failures"] == 1
        assert counts["C"]["disasters"] == 1
        assert counts["A"]["disasters"] == 0

    def test_timeouts_count_as_failures(self):
        records = [record("A", "q1", 10), record("B", "q1", 10, timed_out=True)]
        counts = count_failures_and_disasters(records)
        assert counts["B"]["failures"] == 1

    def test_failures_by_evaluations(self):
        records = [record("A", "q1", 1, evals=10), record("B", "q1", 1, evals=500)]
        counts = count_failures_and_disasters(records, metric="evaluations")
        assert counts["B"]["failures"] == 1

    def test_invalid_metric_rejected(self):
        with pytest.raises(ValueError):
            count_failures_and_disasters([], metric="joules")

    def test_per_query_speedups(self):
        speedups = per_query_speedups(self.RECORDS, baseline="B", subject="A")
        assert speedups["q1"] == pytest.approx(10.0)
        assert speedups["q2"] == pytest.approx(1 / 3)

    def test_time_share_of_top_queries(self):
        shares = time_share_of_top_queries(self.RECORDS, "A")
        assert shares == [pytest.approx(0.9), pytest.approx(1.0)]


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table("Demo", [{"a": 1, "b": "x"}, {"a": 22222, "b": "yy"}])
        assert "Demo" in text
        assert "22,222" in text

    def test_format_table_empty(self):
        assert "(no data)" in format_table("Empty", [])

    def test_format_series(self):
        text = format_series("S", {"values": [1, 2.5, "x"]})
        assert "values" in text and "2.50" in text


class TestHarness:
    def test_run_workload_records_every_engine_and_query(self):
        workload = make_trivial_workload(3, 20)
        specs = [skinner_c_spec("Skinner-C", FAST), traditional_spec("PG", "postgres")]
        records = run_workload(specs, workload, verify_results=True)
        assert len(records) == 2
        assert {r.engine for r in records} == {"Skinner-C", "PG"}

    def test_run_query_with_budget(self):
        workload = make_udf_torture(4, 12)
        spec = traditional_spec("PG", "postgres")
        record_, result = run_query(spec, workload, workload.queries[0], work_budget=50)
        assert record_.timed_out or result.table.num_rows >= 0

    def test_query_subset_selection(self):
        workload = make_trivial_workload(3, 20)
        records = run_workload([skinner_c_spec("S", FAST)], workload,
                               queries=[workload.queries[0].name])
        assert len(records) == 1

    def test_engine_spec_factories(self):
        workload = make_trivial_workload(2, 10)
        for spec in job_single_threaded_specs() + job_multi_threaded_specs(4) + torture_specs():
            assert isinstance(spec, EngineSpec)
            engine = spec.factory(workload)
            assert hasattr(engine, "execute")

    def test_bench_config_is_scaled_down(self):
        assert BENCH_CONFIG.slice_budget <= 500


class TestModelledCores:
    """``threads`` weights a finished run's record; no execution sees it."""

    #: The profile each registered engine's work is weighted with here; the
    #: rest are weighted as ``postgres``.
    RUNS_UNDER = {"skinner-c": "skinner", "eddy": "skinner", "reoptimizer": "skinner"}

    def test_every_engine_at_one_core_reports_its_own_time(self, job_workload, baseline_engines):
        query = job_workload.queries[0].query
        for name in DEFAULT_REGISTRY.names():
            context = EngineContext(job_workload.catalog, job_workload.udfs, FAST)
            metrics = DEFAULT_REGISTRY.resolve(name).execute(context, query).metrics
            profile = self.RUNS_UNDER.get(name, "postgres")
            one = QueryRecord.from_metrics(name, "q", metrics, profile=profile, threads=1)
            assert one.simulated_time == modelled_time(metrics, profile, 1), name
            assert "threads" not in metrics.extra, name
            if name != "skinner-c":  # one phase: the whole execution spreads
                assert "preprocess_work" not in metrics.extra, name
                assert one.simulated_time == get_profile(profile).simulated_time(
                    metrics.work), name
                assert modelled_time(metrics, profile, 8) == get_profile(
                    profile).simulated_time(metrics.work, threads=8), name

    @pytest.mark.parametrize("task_class", [SkinnerCTask, ParallelSkinnerCTask])
    def test_skinner_c_spreads_pre_processing_only(self, job_workload, task_class, monkeypatch):
        monkeypatch.setattr(parallel, "MORSELS", 3)
        monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 4)
        task = task_class(job_workload.catalog, job_workload.queries[0].query, None, FAST)
        while not task.finished:
            task.run_episode()
        metrics = task.finalize().metrics
        skinner = get_profile("skinner")
        pre, join = task.pre_meter.snapshot(), task.join_meter.snapshot()
        assert WorkBreakdown(**metrics.extra["preprocess_work"]) == pre
        assert pre.total and join.total
        # Two phases, each weighted with its own start-up cost.
        assert modelled_time(metrics, "skinner") == (
            skinner.simulated_time(pre) + skinner.simulated_time(join))
        assert modelled_time(metrics, "skinner", 8) == (
            skinner.simulated_time(pre, threads=8) + skinner.simulated_time(join))
        assert modelled_time(metrics, "skinner", 8) < modelled_time(metrics, "skinner")

    def test_forced_order_on_skinner_c_spreads_nothing(self, job_workload):
        query = job_workload.queries[0].query
        engine = SkinnerC(job_workload.catalog, job_workload.udfs, FAST)
        forced = engine.execute_with_order(query, engine.execute(query).metrics.final_join_order)
        assert WorkBreakdown(**forced.metrics.extra["preprocess_work"]).total == 0
        assert modelled_time(forced.metrics, "skinner", 8) == modelled_time(
            forced.metrics, "skinner")
        assert modelled_time(forced.metrics, "skinner") == get_profile("skinner").simulated_time(
            forced.metrics.work)

    def test_records_move_with_threads_only_under_a_parallel_profile(self, job_workload):
        query = job_workload.queries[0]
        times = {}
        for profile in ("postgres", "monetdb"):
            for threads in (1, 8):
                spec = dataclasses.replace(traditional_spec(profile, profile), threads=threads)
                times[profile, threads] = run_query(spec, job_workload, query)[0].simulated_time
        assert times["postgres", 8] == times["postgres", 1]
        assert times["monetdb", 8] < times["monetdb", 1]


class TestExperimentDrivers:
    def test_registry_contains_all_tables_and_figures(self):
        from benchmarks.paper.experiments import EXPERIMENTS

        expected = ({f"table{i}" for i in range(1, 8)}
                    | {f"figure{i}" for i in range(6, 14)}
                    | {"postprocess_pipeline", "hashjoin_kernel",
                       "concurrent_serving", "streaming_cursor",
                       "multitenant_server", "cold_vs_warm_start",
                       "external_sqlite", "docstore_axes"})
        assert set(EXPERIMENTS) == expected

    def test_figure12_tiny_run_has_expected_shape(self):
        from benchmarks.paper.experiments import EXPERIMENTS

        output = EXPERIMENTS["figure12"](table_counts=(3,), tuples_per_table=20, budget=20_000)
        assert "series" in output and "num_tables" in output["series"]
        assert output["series"]["num_tables"] == [3]
        assert len(output["records"]) > 0

    def test_figure7_tiny_run(self):
        from benchmarks.paper.experiments import EXPERIMENTS

        output = EXPERIMENTS["figure7"](scale=0.12, seed=5, query_name="job_q03",
                                        budgets=(16, 64))
        assert "uct_tree_growth" in output["series"]
        assert output["series"]["uct_tree_growth"]

    def test_hashjoin_batch_reuse_series(self):
        from benchmarks.paper.experiments import EXPERIMENTS

        output = EXPERIMENTS["hashjoin_kernel"](tuples_per_table=300, repetitions=1)
        kept, fresh = output["batch_reuse"]
        # t1's suffix moves on every 2nd invocation, t2's every 5th; each
        # side's catalog groups t1 and t2 once, kept executor or fresh ones.
        assert (kept["Groupings"], fresh["Groupings"]) == (2, 2)
        assert kept["Work Units"] == fresh["Work Units"] > 0
        # The series sits beside the gated work total, not in it.
        assert "simulated_time" not in kept


class TestScratchSweep:
    def test_a_mirror_owned_by_a_live_process_survives_the_sweep(self, tmp_path):
        from benchmarks.conftest import remove_dead_sessions

        ended = subprocess.Popen([sys.executable, "-c", "pass"])
        ended.wait()
        dead, live = (tmp_path / f"repro-bench-{pid}" for pid in (ended.pid, os.getpid()))
        for session in (dead, live):
            (session / "repro-mirror-1.sqlite.tables").mkdir(parents=True)
            (session / "repro-mirror-1.sqlite").write_bytes(b"")
        # Another suite's live mirror, straight in the temp dir.
        (tmp_path / "repro-mirror-2.sqlite.tables").mkdir()
        (tmp_path / "repro-mirror-2.sqlite").write_bytes(b"")
        remove_dead_sessions(str(tmp_path))
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [live.name, "repro-mirror-2.sqlite", "repro-mirror-2.sqlite.tables"])
        assert sorted(path.name for path in live.iterdir()) == [
            "repro-mirror-1.sqlite", "repro-mirror-1.sqlite.tables"]
