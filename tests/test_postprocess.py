"""Unit tests for post-processing (projection, aggregation, ordering, limit)."""

import numpy as np
import pytest

from repro.engine.postprocess import post_process
from repro.engine.relation import RowIdRelation
from repro.query.expressions import ColumnRef, FunctionCall, Star
from repro.query.query import AggregateSpec, OrderItem, SelectItem
from repro.storage.table import Table
from benchmarks.paper.queries import make_query


@pytest.fixture
def sales_table() -> Table:
    return Table("sales", {
        "region": ["n", "s", "n", "e", "s", "n"],
        "amount": [10, 20, 30, 40, 50, 60],
        "units": [1, 2, 3, 4, 5, 6],
    })


@pytest.fixture
def full_relation(sales_table) -> RowIdRelation:
    return RowIdRelation.from_base("s", np.arange(sales_table.num_rows))


def run(query, relation, tables):
    return post_process(query, relation, tables)


class TestProjection:
    def test_select_star_prefixes_columns(self, sales_table, full_relation):
        query = make_query([("s", "sales")])
        result = run(query, full_relation, {"s": sales_table})
        assert result.num_rows == 6
        assert "s_region" in result.column_names

    def test_explicit_projection(self, sales_table, full_relation):
        query = make_query(
            [("s", "sales")],
            select_items=[SelectItem(expression=ColumnRef("s", "amount"), alias="a")],
        )
        result = run(query, full_relation, {"s": sales_table})
        assert result.column_names == ["a"]
        assert result.column("a").values() == [10, 20, 30, 40, 50, 60]

    def test_computed_projection(self, sales_table, full_relation):
        expr = FunctionCall("mul", (ColumnRef("s", "amount"), ColumnRef("s", "units")))
        query = make_query([("s", "sales")],
                           select_items=[SelectItem(expression=expr, alias="revenue")])
        result = run(query, full_relation, {"s": sales_table})
        assert result.column("revenue").values()[0] == 10

    def test_distinct(self, sales_table, full_relation):
        query = make_query(
            [("s", "sales")],
            select_items=[SelectItem(expression=ColumnRef("s", "region"))],
            distinct=True,
        )
        result = run(query, full_relation, {"s": sales_table})
        assert sorted(result.column("region").values()) == ["e", "n", "s"]


class TestAggregation:
    def test_global_aggregates(self, sales_table, full_relation):
        query = make_query(
            [("s", "sales")],
            select_items=[
                SelectItem(aggregate=AggregateSpec("count", Star()), alias="n"),
                SelectItem(aggregate=AggregateSpec("sum", ColumnRef("s", "amount")), alias="total"),
                SelectItem(aggregate=AggregateSpec("min", ColumnRef("s", "amount")), alias="lo"),
                SelectItem(aggregate=AggregateSpec("max", ColumnRef("s", "amount")), alias="hi"),
                SelectItem(aggregate=AggregateSpec("avg", ColumnRef("s", "amount")), alias="mean"),
            ],
        )
        result = run(query, full_relation, {"s": sales_table})
        row = result.rows()[0]
        assert row == {"n": 6, "total": 210, "lo": 10, "hi": 60, "mean": 35.0}

    def test_group_by(self, sales_table, full_relation):
        query = make_query(
            [("s", "sales")],
            select_items=[
                SelectItem(expression=ColumnRef("s", "region"), alias="region"),
                SelectItem(aggregate=AggregateSpec("sum", ColumnRef("s", "amount")), alias="total"),
            ],
            group_by=[ColumnRef("s", "region")],
        )
        result = run(query, full_relation, {"s": sales_table})
        totals = {row["region"]: row["total"] for row in result.rows()}
        assert totals == {"n": 100, "s": 70, "e": 40}

    def test_aggregate_over_empty_input(self, sales_table):
        query = make_query(
            [("s", "sales")],
            select_items=[
                SelectItem(aggregate=AggregateSpec("count", Star()), alias="n"),
                SelectItem(aggregate=AggregateSpec("sum", ColumnRef("s", "amount")), alias="total"),
            ],
        )
        empty = RowIdRelation({"s": []})
        result = run(query, empty, {"s": sales_table})
        assert result.rows()[0]["n"] == 0
        assert result.rows()[0]["total"] == 0

    def test_group_by_over_empty_input_has_no_groups(self, sales_table):
        query = make_query(
            [("s", "sales")],
            select_items=[
                SelectItem(expression=ColumnRef("s", "region"), alias="region"),
                SelectItem(aggregate=AggregateSpec("count", Star()), alias="n"),
            ],
            group_by=[ColumnRef("s", "region")],
        )
        result = run(query, RowIdRelation({"s": []}), {"s": sales_table})
        assert result.num_rows == 0


class TestOrderingAndLimit:
    def test_order_by_descending(self, sales_table, full_relation):
        query = make_query(
            [("s", "sales")],
            select_items=[SelectItem(expression=ColumnRef("s", "amount"), alias="amount")],
            order_by=[OrderItem(ColumnRef("s", "amount"), ascending=False)],
        )
        result = run(query, full_relation, {"s": sales_table})
        assert result.column("amount").values() == [60, 50, 40, 30, 20, 10]

    def test_order_by_multiple_keys(self, sales_table, full_relation):
        query = make_query(
            [("s", "sales")],
            select_items=[
                SelectItem(expression=ColumnRef("s", "region"), alias="region"),
                SelectItem(expression=ColumnRef("s", "amount"), alias="amount"),
            ],
            order_by=[OrderItem(ColumnRef("s", "region")),
                      OrderItem(ColumnRef("s", "amount"), ascending=False)],
        )
        result = run(query, full_relation, {"s": sales_table})
        rows = [(row["region"], row["amount"]) for row in result.rows()]
        assert rows == [("e", 40), ("n", 60), ("n", 30), ("n", 10), ("s", 50), ("s", 20)]

    def test_limit(self, sales_table, full_relation):
        query = make_query(
            [("s", "sales")],
            select_items=[SelectItem(expression=ColumnRef("s", "amount"), alias="amount")],
            order_by=[OrderItem(ColumnRef("s", "amount"), ascending=False)],
            limit=2,
        )
        result = run(query, full_relation, {"s": sales_table})
        assert result.column("amount").values() == [60, 50]

    def test_order_by_on_grouped_output(self, sales_table, full_relation):
        query = make_query(
            [("s", "sales")],
            select_items=[
                SelectItem(expression=ColumnRef("s", "region"), alias="region"),
                SelectItem(aggregate=AggregateSpec("sum", ColumnRef("s", "amount")), alias="total"),
            ],
            group_by=[ColumnRef("s", "region")],
            order_by=[OrderItem(ColumnRef("s", "region"))],
        )
        result = run(query, full_relation, {"s": sales_table})
        assert result.column("region").values() == ["e", "n", "s"]
