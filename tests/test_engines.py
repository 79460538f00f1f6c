"""Integration tests: every engine produces correct results and sane metrics."""

import pytest

from repro.baselines.traditional import TraditionalEngine
from repro.config import DEFAULT_CONFIG
from repro.query.expressions import ColumnRef, Star
from repro.query.predicates import column_compare_literal, column_equals_column, udf_predicate
from repro.query.query import AggregateSpec, SelectItem, make_query
from repro.query.udf import UdfRegistry
from repro.skinner import parallel
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.skinner_h import SkinnerH
from benchmarks.paper.ablations import (
    RandomNoJoinMapsTask,
    RandomSkinnerG,
    RandomSkinnerH,
    SkinnerCVariant,
    random_order,
)
from benchmarks.paper.baselines import EddyEngine, ReOptimizerEngine
from tests.conftest import reference_join_count, reference_join_tuples, result_multiset

FAST_CONFIG = DEFAULT_CONFIG.with_overrides(
    slice_budget=64, batches_per_table=3, base_timeout=200
)


def all_engines(catalog, udfs=None):
    """One instance of every engine, all sharing the same catalog."""
    return {
        "skinner-c": SkinnerC(catalog, udfs, FAST_CONFIG),
        "skinner-g": SkinnerG(catalog, udfs, FAST_CONFIG),
        "skinner-h": SkinnerH(catalog, udfs, FAST_CONFIG),
        "traditional": TraditionalEngine(catalog, udfs),
        "eddy": EddyEngine(catalog, udfs),
        "reoptimizer": ReOptimizerEngine(catalog, udfs),
    }


class TestCrossEngineCorrectness:
    def test_join_query_counts_agree_with_oracle(self, tiny_catalog, tiny_join_query):
        expected = reference_join_count(tiny_catalog, tiny_join_query)
        query = make_query(
            tiny_join_query.tables,
            predicates=tiny_join_query.predicates,
            select_items=[SelectItem(aggregate=AggregateSpec("count", Star()), alias="n")],
        )
        for name, engine in all_engines(tiny_catalog).items():
            result = engine.execute(query)
            assert result.rows[0]["n"] == expected, f"{name} returned a wrong count"

    def test_projection_rows_identical_across_engines(self, tiny_catalog):
        query = make_query(
            [("c", "customers"), ("o", "orders")],
            predicates=[column_equals_column("c", "cid", "o", "cid"),
                        column_compare_literal("o", "amount", ">", 90)],
            select_items=[SelectItem(expression=ColumnRef("c", "country"), alias="country"),
                          SelectItem(expression=ColumnRef("o", "amount"), alias="amount")],
        )
        reference = None
        for name, engine in all_engines(tiny_catalog).items():
            rows = result_multiset(engine.execute(query))
            if reference is None:
                reference = rows
            assert rows == reference, f"{name} disagrees on projected rows"

    def test_udf_join_query_across_engines(self, tiny_catalog):
        udfs = UdfRegistry()
        udfs.register("same_parity", lambda a, b: a % 2 == b % 2)
        query = make_query(
            [("c", "customers"), ("o", "orders")],
            predicates=[udf_predicate("same_parity", ("c", "cid"), ("o", "oid"))],
            select_items=[SelectItem(aggregate=AggregateSpec("count", Star()), alias="n")],
        )
        expected = len(reference_join_tuples(tiny_catalog, query, udfs))
        for name, engine in all_engines(tiny_catalog, udfs).items():
            assert engine.execute(query).rows[0]["n"] == expected, name

    def test_single_table_query(self, tiny_catalog):
        query = make_query(
            [("o", "orders")],
            predicates=[column_compare_literal("o", "amount", ">=", 100)],
            select_items=[SelectItem(aggregate=AggregateSpec("count", Star()), alias="n")],
        )
        for name, engine in all_engines(tiny_catalog).items():
            assert engine.execute(query).rows[0]["n"] == 4, name

    def test_empty_result_query(self, tiny_catalog):
        query = make_query(
            [("c", "customers"), ("o", "orders")],
            predicates=[column_equals_column("c", "cid", "o", "cid"),
                        column_compare_literal("c", "country", "=", "xx")],
            select_items=[SelectItem(aggregate=AggregateSpec("count", Star()), alias="n")],
        )
        for name, engine in all_engines(tiny_catalog).items():
            assert engine.execute(query).rows[0]["n"] == 0, name

    def test_group_by_across_engines(self, tiny_catalog):
        query = make_query(
            [("c", "customers"), ("o", "orders")],
            predicates=[column_equals_column("c", "cid", "o", "cid")],
            select_items=[
                SelectItem(expression=ColumnRef("c", "country"), alias="country"),
                SelectItem(aggregate=AggregateSpec("sum", ColumnRef("o", "amount")), alias="total"),
            ],
            group_by=[ColumnRef("c", "country")],
        )
        reference = None
        for name, engine in all_engines(tiny_catalog).items():
            rows = result_multiset(engine.execute(query))
            if reference is None:
                reference = rows
            assert rows == reference, f"{name} disagrees on grouped result"


class TestSkinnerC:
    def test_metrics_populated(self, tiny_catalog, tiny_join_query):
        result = SkinnerC(tiny_catalog, config=FAST_CONFIG).execute(tiny_join_query)
        metrics = result.metrics
        assert metrics.engine == "skinner-c"
        assert metrics.time_slices >= 1
        assert metrics.uct_nodes >= 1
        assert metrics.final_join_order is not None
        assert metrics.work.total > 0
        assert metrics.result_tuple_count == reference_join_count(tiny_catalog, tiny_join_query)

    def test_trace_collection(self, tiny_catalog, tiny_join_query):
        result = SkinnerC(tiny_catalog, config=FAST_CONFIG).execute(tiny_join_query, trace=True)
        trace = result.metrics.extra["trace"]
        assert len(trace) == result.metrics.time_slices
        assert all("uct_nodes" in entry for entry in trace)


    def test_execute_with_forced_order(self, tiny_catalog, tiny_join_query):
        engine = SkinnerC(tiny_catalog, config=FAST_CONFIG)
        for order in (("c", "o", "i"), ("i", "o", "c")):
            result = engine.execute_with_order(tiny_join_query, order)
            assert result.metrics.result_tuple_count == reference_join_count(
                tiny_catalog, tiny_join_query
            )
            assert result.metrics.final_join_order == order


class TestSkinnerG:
    def test_uses_pyramid_timeouts(self, tiny_catalog, tiny_join_query):
        result = SkinnerG(tiny_catalog, config=FAST_CONFIG).execute(tiny_join_query)
        levels = result.metrics.extra["timeout_levels"]
        assert levels and 0 in levels
        assert result.metrics.time_slices >= 1

    def test_name_labels_only_an_external_backend(self, tiny_catalog):
        assert SkinnerG(tiny_catalog).name == "skinner-g"
        assert SkinnerH(tiny_catalog).name == "skinner-h"
        assert SkinnerG(tiny_catalog, backend_label="sqlite").name == "skinner-g(sqlite)"
        assert SkinnerH(tiny_catalog, backend_label="sqlite").name == "skinner-h(sqlite)"


class TestSkinnerH:
    def test_reports_winner(self, tiny_catalog, tiny_join_query):
        result = SkinnerH(tiny_catalog, config=FAST_CONFIG).execute(tiny_join_query)
        assert result.metrics.extra["winner"] in ("traditional", "learning")
        assert result.metrics.extra["rounds"] >= 0

    def test_bounded_overhead_versus_traditional(self, tiny_catalog, tiny_join_query):
        traditional = TraditionalEngine(tiny_catalog).execute(tiny_join_query)
        hybrid = SkinnerH(tiny_catalog, config=FAST_CONFIG).execute(tiny_join_query)
        # Theorem 5.8: the hybrid is at most a constant factor slower than the
        # traditional optimizer; allow generous slack for the tiny input.
        assert hybrid.metrics.work.total <= 25 * max(traditional.metrics.work.total, 1)

    def test_round_zero_win_never_starts_the_learning_side(self, tiny_catalog, tiny_join_query):
        task = SkinnerH(tiny_catalog, config=FAST_CONFIG).task(tiny_join_query)
        assert task.work_total() == 0 and task.run is None
        assert task.run_episode()
        assert task.run is None
        metrics = task.finalize().metrics
        assert metrics.extra["winner"] == "traditional" and metrics.extra["rounds"] == 1
        assert metrics.time_slices == 0 and metrics.uct_nodes == 0
        assert metrics.result_tuple_count == reference_join_count(tiny_catalog, tiny_join_query)
        # The traditional engine's bill and nothing else: no second filter pass.
        traditional = TraditionalEngine(tiny_catalog).execute(tiny_join_query)
        assert metrics.work == traditional.metrics.work
        assert task.work_total() == metrics.work.total

    @pytest.mark.parametrize("predicates, rows", [
        ([column_compare_literal("c", "score", ">", 10)], 4),
        ([column_compare_literal("c", "score", ">", 99)], 0),
    ])
    def test_trivial_queries_are_answered_by_the_first_attempt(
        self, tiny_catalog, predicates, rows
    ):
        query = make_query(
            [("c", "customers")], predicates=predicates,
            select_items=[SelectItem(expression=ColumnRef("c", "cid"), alias="cid")],
        )
        result = SkinnerH(tiny_catalog, config=FAST_CONFIG).execute(query)
        assert len(result.rows) == rows
        assert result.metrics.extra["winner"] == "traditional"
        assert result.metrics.extra["rounds"] == 1
        assert result.metrics.result_tuple_count == rows

    def test_both_sides_share_one_filter_pass(self, tiny_catalog, tiny_join_query, monkeypatch):
        """A timed-out round 0 hands its filtered tables to the learning side
        and to every later attempt; each is still charged its own scan."""
        from repro.engine import statement_cache

        filtered = []
        real = statement_cache.filter_table

        def counting(table, alias, *args, **kwargs):
            filtered.append(alias)
            return real(table, alias, *args, **kwargs)

        monkeypatch.setattr(statement_cache, "filter_table", counting)
        # 35 units: the filters fit (32), the first join does not.
        config = FAST_CONFIG.with_overrides(base_timeout=35)
        result = SkinnerH(tiny_catalog, config=config).execute(tiny_join_query)
        assert result.metrics.extra["rounds"] > 1
        assert sorted(filtered) == ["c", "i", "o"]
        # 19 rows scanned, billed to every round and to the learning run.
        scans = result.metrics.work.tuples_scanned
        assert scans >= 19 * (result.metrics.extra["rounds"] + 1)


class TestTraditionalEngine:
    def test_forced_order_changes_plan(self, tiny_catalog, tiny_join_query):
        engine = TraditionalEngine(tiny_catalog)
        default = engine.execute(tiny_join_query)
        forced = engine.execute_with_order(tiny_join_query, ("i", "o", "c"))
        assert forced.metrics.final_join_order == ("i", "o", "c")
        assert forced.table.num_rows == default.table.num_rows

    def test_work_budget_times_out(self, tiny_catalog, tiny_join_query):
        engine = TraditionalEngine(tiny_catalog)
        result = engine.execute(tiny_join_query, work_budget=3)
        assert result.metrics.extra["timed_out"]
        assert result.table.num_rows == 0

    def test_plan_exposes_cost(self, tiny_catalog, tiny_join_query):
        plan = TraditionalEngine(tiny_catalog).plan(tiny_join_query)
        assert plan.cost > 0
        assert sorted(plan.order) == ["c", "i", "o"]


class TestAblationVariants:
    """The harness variants of Tables 5 and 6 (``benchmarks/paper/ablations.py``)
    still answer the query."""

    @pytest.mark.parametrize("random_orders, join_maps", [
        (False, False), (True, True), (True, False),
    ])
    def test_skinner_c_variants_preserve_correctness(
            self, tiny_catalog, tiny_join_query, random_orders, join_maps):
        engine = SkinnerCVariant(tiny_catalog, config=FAST_CONFIG,
                                 random_orders=random_orders, join_maps=join_maps)
        result = engine.execute(tiny_join_query, trace=True)
        assert result.metrics.result_tuple_count == reference_join_count(
            tiny_catalog, tiny_join_query
        )
        if random_orders:
            assert result.metrics.final_join_order is None
            assert not any(entry["second_look"] for entry in result.metrics.extra["trace"])

    @pytest.mark.parametrize("engine_class", [SkinnerCVariant, RandomSkinnerG, RandomSkinnerH])
    def test_random_variants_count_like_the_reference(
            self, tiny_catalog, tiny_join_query, engine_class):
        expected = reference_join_count(tiny_catalog, tiny_join_query)
        extra = {"random_orders": True} if engine_class is SkinnerCVariant else {}
        engine = engine_class(tiny_catalog, config=FAST_CONFIG, **extra)
        count_query = make_query(
            tiny_join_query.tables,
            predicates=tiny_join_query.predicates,
            select_items=[SelectItem(aggregate=AggregateSpec("count", Star()), alias="n")],
        )
        assert engine.execute(count_query).rows[0]["n"] == expected

    def test_the_random_walk_reaches_every_cartesian_free_order_and_no_other(
            self, tiny_join_query):
        """c-o-i is a chain: starting at c or i forces o second."""
        import random

        graph = tiny_join_query.join_graph()
        orders = {random_order(graph, random.Random(seed)) for seed in range(200)}
        assert orders == {("c", "o", "i"), ("o", "c", "i"), ("o", "i", "c"), ("i", "o", "c")}

    @pytest.mark.parametrize("random_orders, join_maps", [
        (False, False), (True, True), (True, False),
    ])
    def test_skinner_c_variants_run_a_forced_order(
            self, tiny_catalog, tiny_join_query, random_orders, join_maps):
        engine = SkinnerCVariant(tiny_catalog, config=FAST_CONFIG,
                                 random_orders=random_orders, join_maps=join_maps)
        for order in (("c", "o", "i"), ("i", "o", "c")):
            result = engine.execute_with_order(tiny_join_query, order)
            assert result.metrics.result_tuple_count == reference_join_count(
                tiny_catalog, tiny_join_query
            )
            assert result.metrics.final_join_order == order
            assert result.metrics.engine == f"{engine.name}(forced)"

    def test_a_variant_ablates_single_process_under_parallel_workers(
            self, tiny_catalog, tiny_join_query, monkeypatch):
        """``parallel_workers > 1`` would hand plain Skinner-C the query; the
        variant keeps its own task, in this process."""
        monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 1)
        config = FAST_CONFIG.with_overrides(parallel_workers=2)
        plain = SkinnerC(tiny_catalog, config=config).task(tiny_join_query)
        assert isinstance(plain, parallel.ParallelSkinnerCTask)
        plain.close()
        engine = SkinnerCVariant(tiny_catalog, config=config, random_orders=True, join_maps=False)
        task = engine.task(tiny_join_query)
        assert type(task) is RandomNoJoinMapsTask
        assert not task.prepared.join_maps
        while not task.finished:
            task.run_episode()
        result = task.finalize()
        assert result.metrics.final_join_order is None
        assert "parallel_workers" not in result.metrics.extra
        assert result.metrics.result_tuple_count == reference_join_count(
            tiny_catalog, tiny_join_query
        )


class TestReOptimizer:
    def test_records_rounds(self, tiny_catalog, tiny_join_query):
        result = ReOptimizerEngine(tiny_catalog).execute(tiny_join_query)
        assert result.metrics.extra["reoptimization_rounds"] >= 0
        assert result.metrics.engine == "reoptimizer"

    def test_corrections_on_misleading_data(self):
        from repro.workloads.torture import make_correlation_torture

        workload = make_correlation_torture(3, 60, good_position=2)
        engine = ReOptimizerEngine(workload.catalog, workload.udfs)
        result = engine.execute(workload.queries[0].query)
        assert result.rows[0]["matches"] == 0

    def test_a_sample_that_overruns_the_budget_times_the_query_out(self, monkeypatch):
        import dataclasses

        from benchmarks.paper import baselines
        from repro.workloads.torture import make_udf_torture

        # The two UDFs tie for the optimizer; pin the first plan to the
        # left-to-right order the tie-break picks under PYTHONHASHSEED=0,
        # whose full-length validation sample is a 10 x 100^3 product.
        choose_plan = baselines.choose_plan
        plans = []

        def first_plan_left_to_right(query, estimator):
            plan = choose_plan(query, estimator)
            if not plans:
                plan = dataclasses.replace(plan, order=("t1", "t2", "t3", "t4"))
            plans.append(plan)
            return plan

        monkeypatch.setattr(baselines, "choose_plan", first_plan_left_to_right)
        workload = make_udf_torture(4)
        engine = ReOptimizerEngine(workload.catalog, workload.udfs)
        result = engine.execute(workload.queries[0].query, work_budget=800_000)
        # The sample's work is charged, not dropped: the query timed out.
        assert result.metrics.extra["timed_out"]
        assert result.metrics.work.total > 800_000
        assert result.table.num_rows == 0

    def test_a_failing_sample_raises(self, tiny_catalog, tiny_join_query, monkeypatch):
        from repro.engine.executor import PlanExecutor

        def broken(self, aliases):
            raise RuntimeError("sample failed")

        monkeypatch.setattr(PlanExecutor, "restricted", broken)
        with pytest.raises(RuntimeError, match="sample failed"):
            ReOptimizerEngine(tiny_catalog).execute(tiny_join_query)
