"""Unit tests for statistics collection and cardinality estimation."""

import pytest

from repro.optimizer.cardinality import EstimatedCardinality
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.expressions import ColumnRef, FunctionCall
from repro.query.predicates import Predicate, column_compare_literal, column_equals_column
from repro.query.query import make_query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from benchmarks.paper.oracle import TrueCardinality
from tests.conftest import reference_join_count


@pytest.fixture
def stats_catalog(tiny_catalog) -> StatisticsCatalog:
    return StatisticsCatalog.collect(tiny_catalog)


class TestStatisticsCollection:
    def test_row_counts(self, tiny_catalog, stats_catalog):
        assert stats_catalog.table("orders").row_count == tiny_catalog.table("orders").num_rows

    def test_distinct_counts(self, stats_catalog):
        assert stats_catalog.table("customers").column("country").distinct_count == 3
        assert stats_catalog.table("orders").column("cid").distinct_count == 4

    def test_min_max_numeric(self, stats_catalog):
        column = stats_catalog.table("orders").column("amount")
        assert column.min_value == 60
        assert column.max_value == 500

    def test_string_columns_have_no_range(self, stats_catalog):
        column = stats_catalog.table("customers").column("country")
        assert column.min_value is None

    def test_histogram_built_for_numeric(self, stats_catalog):
        column = stats_catalog.table("orders").column("amount")
        assert sum(column.histogram) == 6

    def test_missing_table_returns_none(self, stats_catalog):
        assert stats_catalog.table("nope") is None

    def test_sampling_large_column(self):
        catalog = Catalog()
        catalog.add_table(Table("big", {"x": list(range(5000))}))
        stats = StatisticsCatalog.collect(catalog, sample_limit=500)
        column = stats.table("big").column("x")
        assert column.distinct_count > 100

    def test_selectivity_helpers(self, stats_catalog):
        column = stats_catalog.table("customers").column("country")
        assert column.equality_selectivity() == pytest.approx(1 / 3)
        amount = stats_catalog.table("orders").column("amount")
        low = amount.range_selectivity("<", 100)
        high = amount.range_selectivity(">", 100)
        assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0
        assert low + high == pytest.approx(1.0, abs=0.2)


class TestEstimatedCardinality:
    def test_base_cardinality_with_filter(self, tiny_catalog, stats_catalog):
        query = make_query(
            [("c", "customers")],
            predicates=[column_compare_literal("c", "country", "=", "de")],
        )
        estimator = EstimatedCardinality(query, stats_catalog)
        assert estimator.base_cardinality("c") == pytest.approx(5 / 3, rel=0.01)

    def test_equi_join_selectivity_uses_distinct_counts(self, tiny_catalog, stats_catalog):
        query = make_query(
            [("c", "customers"), ("o", "orders")],
            predicates=[column_equals_column("c", "cid", "o", "cid")],
        )
        estimator = EstimatedCardinality(query, stats_catalog)
        # 5 customers x 6 orders x 1/max(5, 4) distinct cids
        assert estimator.cardinality(["c", "o"]) == pytest.approx(30 / 5)

    def test_independence_assumption_multiplies_filters(self, tiny_catalog, stats_catalog):
        query = make_query(
            [("o", "orders")],
            predicates=[column_compare_literal("o", "cid", "=", 1),
                        column_compare_literal("o", "amount", "<", 200)],
        )
        estimator = EstimatedCardinality(query, stats_catalog)
        single = EstimatedCardinality(
            make_query([("o", "orders")],
                       predicates=[column_compare_literal("o", "cid", "=", 1)]),
            stats_catalog,
        )
        assert estimator.base_cardinality("o") < single.base_cardinality("o")

    def test_udf_predicates_use_hint(self, tiny_catalog, stats_catalog):
        udfs = UdfRegistry()
        udfs.register("opaque", lambda v: True, selectivity_hint=0.25)
        query = make_query(
            [("o", "orders")],
            predicates=[Predicate(FunctionCall("opaque", (ColumnRef("o", "amount"),)))],
        )
        estimator = EstimatedCardinality(query, stats_catalog, udfs)
        assert estimator.base_cardinality("o") == pytest.approx(6 * 0.25)

    def test_estimates_never_drop_below_one(self, tiny_catalog, stats_catalog):
        query = make_query(
            [("c", "customers")],
            predicates=[column_compare_literal("c", "score", "<", -1000)],
        )
        estimator = EstimatedCardinality(query, stats_catalog)
        assert estimator.base_cardinality("c") >= 1.0


class TestTrueCardinality:
    def test_matches_brute_force(self, tiny_catalog, tiny_join_query):
        oracle = TrueCardinality(tiny_catalog, tiny_join_query)
        expected = reference_join_count(tiny_catalog, tiny_join_query)
        assert oracle.cardinality(["c", "o", "i"]) == expected

    def test_caches_subsets(self, tiny_catalog, tiny_join_query):
        oracle = TrueCardinality(tiny_catalog, tiny_join_query)
        oracle.cardinality(["c", "o"])
        oracle.cardinality(["o", "c"])
        assert oracle.cache_size == 1

    def test_single_table_cardinality_is_filtered_size(self, tiny_catalog, tiny_join_query):
        oracle = TrueCardinality(tiny_catalog, tiny_join_query)
        # customers with score > 10
        assert oracle.base_cardinality("c") == 4
