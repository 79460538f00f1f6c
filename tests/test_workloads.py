"""Tests for the benchmark workload generators."""

import pytest

from repro.baselines.traditional import TraditionalEngine
from repro.config import SkinnerConfig
from repro.skinner.skinner_c import SkinnerC
from repro.workloads.generators import Workload, correlated_column, make_rng, zipf_keys
from repro.workloads.job import make_job_workload
from repro.workloads.torture import (
    make_correlation_torture,
    make_trivial_workload,
    make_udf_torture,
)
from repro.workloads.tpch import QUERY_NAMES, make_tpch_workload
from tests.oracles.join_orders import valid_join_orders

FAST = SkinnerConfig(slice_budget=64, batches_per_table=3, base_timeout=200)


class TestGeneratorHelpers:
    def test_zipf_keys_are_skewed(self):
        rng = make_rng(1)
        keys = zipf_keys(rng, 5000, 100, skew=1.3)
        assert keys.min() >= 0 and keys.max() < 100
        counts = {k: (keys == k).sum() for k in range(5)}
        assert counts[0] > counts[4]

    def test_zipf_without_skew_is_uniformish(self):
        rng = make_rng(2)
        keys = zipf_keys(rng, 1000, 10, skew=0)
        assert len(set(keys.tolist())) == 10

    def test_correlated_column_follows_base(self):
        rng = make_rng(3)
        base = zipf_keys(rng, 1000, 10, skew=0)
        corr = correlated_column(rng, base, 10, correlation=1.0)
        assert (corr == base % 10).all()

    def test_workload_query_lookup(self):
        workload = make_udf_torture(3, 10)
        name = workload.queries[0].name
        assert workload.query(name).name == name
        with pytest.raises(KeyError):
            workload.query("missing")
        assert [q.name for q in workload.queries] == [name]


class TestJobWorkload:
    def test_schema_and_determinism(self):
        first = make_job_workload(scale=0.1, seed=3)
        second = make_job_workload(scale=0.1, seed=3)
        assert sorted(first.catalog.table_names()) == sorted(second.catalog.table_names())
        assert first.catalog.table("title").num_rows == second.catalog.table("title").num_rows
        assert first.catalog.table("title").column("votes").values() == \
            second.catalog.table("title").column("votes").values()

    def test_scale_controls_sizes(self):
        small = make_job_workload(scale=0.1)
        large = make_job_workload(scale=0.3)
        assert large.catalog.table("cast_info").num_rows > small.catalog.table("cast_info").num_rows

    def test_queries_reference_existing_tables_and_columns(self):
        workload = make_job_workload(scale=0.1)
        assert len(workload.queries) >= 20
        for workload_query in workload.queries:
            query = workload_query.query
            for alias, table_name in query.tables:
                table = workload.catalog.table(table_name)
                for predicate in query.predicates:
                    for ref in predicate.left.columns():
                        if ref.table == alias:
                            assert table.has_column(ref.column)

    def test_hazard_queries_tagged(self):
        workload = make_job_workload(scale=0.1)
        assert len(workload.tagged("hazard")) >= 3

    def test_queries_execute_correctly_on_two_engines(self, job_workload):
        skinner = SkinnerC(job_workload.catalog, job_workload.udfs, FAST)
        traditional = TraditionalEngine(job_workload.catalog, job_workload.udfs)
        for workload_query in job_workload.queries[:6]:
            learned = skinner.execute(workload_query.query)
            planned = traditional.execute(workload_query.query)
            assert learned.rows == planned.rows, workload_query.name


class TestTpchWorkload:
    def test_contains_the_ten_paper_queries(self):
        workload = make_tpch_workload(scale=0.2)
        assert [q.name for q in workload.queries] == list(QUERY_NAMES)

    def test_schema_tables_present(self):
        workload = make_tpch_workload(scale=0.2)
        for table in ("region", "nation", "supplier", "customer", "part",
                      "partsupp", "orders", "lineitem"):
            assert workload.catalog.has_table(table)

    def test_udf_variant_registers_udfs_and_matches_standard(self):
        standard = make_tpch_workload(scale=0.2, variant="standard")
        udf = make_tpch_workload(scale=0.2, variant="udf")
        assert udf.udfs.version > 0
        for name in ("q3", "q11", "q18"):
            plain_engine = TraditionalEngine(standard.catalog, standard.udfs)
            udf_engine = SkinnerC(udf.catalog, udf.udfs, FAST)
            plain = plain_engine.execute(standard.query(name).query)
            blind = udf_engine.execute(udf.query(name).query)
            assert plain.rows == blind.rows, name

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            make_tpch_workload(variant="parquet")


class TestTortureWorkloads:
    def test_udf_torture_good_predicate_empties_result(self):
        for shape in ("chain", "star"):
            workload = make_udf_torture(4, 15, shape=shape)
            engine = SkinnerC(workload.catalog, workload.udfs, FAST)
            result = engine.execute(workload.queries[0].query)
            assert result.rows[0]["matches"] == 0, shape

    def test_udf_torture_without_good_predicate_is_cross_product(self):
        workload = make_udf_torture(3, 5, good_position=99)
        # good_position is clamped to the last edge; overriding every edge to
        # "bad" is not possible, so the result must still be empty.
        engine = SkinnerC(workload.catalog, workload.udfs, FAST)
        assert engine.execute(workload.queries[0].query).rows[0]["matches"] == 0

    def test_udf_torture_validation(self):
        with pytest.raises(ValueError):
            make_udf_torture(1, 10)
        with pytest.raises(ValueError):
            make_udf_torture(3, 10, shape="cycle")

    def test_correlation_torture_result_is_empty(self):
        workload = make_correlation_torture(4, 60, good_position=2)
        engine = SkinnerC(workload.catalog, workload.udfs, FAST)
        assert engine.execute(workload.queries[0].query).rows[0]["matches"] == 0

    def test_correlation_torture_good_table_is_anticorrelated(self):
        workload = make_correlation_torture(3, 60, good_position=2)
        good = workload.catalog.table("r2")
        a = good.column("a").values()
        b = good.column("b").values()
        assert all((x == 1 and y == 1) is False for x, y in zip(a, b))

    def test_trivial_workload_all_orders_similar_cost(self):
        workload = make_trivial_workload(3, 40)
        query = workload.queries[0].query
        engine = TraditionalEngine(workload.catalog, workload.udfs)
        costs = []
        for order in valid_join_orders(query.join_graph()):
            result = engine.execute_with_order(query, order)
            costs.append(result.metrics.intermediate_cardinality)
        assert max(costs) <= 3 * max(1, min(costs))

    def test_workload_is_a_dataclass_bundle(self):
        workload = make_trivial_workload(2, 10)
        assert isinstance(workload, Workload)
        assert workload.parameters["num_tables"] == 2
