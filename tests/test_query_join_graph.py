"""Unit tests for the query object and the join graph."""

import pytest

from repro.errors import PlanningError
from repro.query.expressions import ColumnRef, Star
from repro.query.join_graph import JoinGraph
from repro.query.predicates import column_compare_literal, column_equals_column
from repro.query.query import AggregateSpec, Query, SelectItem
from tests.oracles.join_orders import valid_join_orders
from benchmarks.paper.queries import make_query


def chain_query(num_tables: int) -> Query:
    aliases = [f"t{i}" for i in range(num_tables)]
    predicates = [
        column_equals_column(aliases[i], "b", aliases[i + 1], "a")
        for i in range(num_tables - 1)
    ]
    return make_query(aliases, predicates=predicates)


class TestQueryValidation:
    def test_requires_tables(self):
        with pytest.raises(PlanningError):
            Query(tables=())

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(PlanningError):
            make_query([("a", "t"), ("a", "s")])

    def test_predicate_over_unknown_alias_rejected(self):
        with pytest.raises(PlanningError):
            make_query(["t"], predicates=[column_compare_literal("zzz", "x", "=", 1)])

    def test_select_item_requires_exactly_one_kind(self):
        with pytest.raises(PlanningError):
            SelectItem(expression=ColumnRef("t", "x"),
                       aggregate=AggregateSpec("count", Star()))
        with pytest.raises(PlanningError):
            SelectItem()

    def test_unknown_aggregate_function_rejected(self):
        with pytest.raises(PlanningError):
            AggregateSpec("median", Star())


class TestQueryAccessors:
    def test_aliases_and_base_tables(self):
        query = make_query([("o", "orders"), ("c", "customers")])
        assert query.aliases == ["o", "c"]
        assert query.base_table("o") == "orders"
        assert query.num_tables == 2
        with pytest.raises(PlanningError):
            query.base_table("x")

    def test_predicate_partitioning(self, tiny_join_query):
        assert len(tiny_join_query.unary_predicates()) == 2
        assert len(tiny_join_query.unary_predicates("c")) == 1
        assert len(tiny_join_query.join_predicates()) == 2
        assert len(tiny_join_query.equi_join_predicates()) == 2
        assert not tiny_join_query.has_udf_predicates()

    def test_post_processing_flags(self):
        with_agg = make_query(
            ["t"], select_items=[SelectItem(aggregate=AggregateSpec("count", Star()))]
        )
        assert with_agg.has_aggregates

    def test_display_round_trips_keywords(self):
        query = make_query(
            [("o", "orders")],
            predicates=[column_compare_literal("o", "amount", ">", 10)],
            select_items=[SelectItem(aggregate=AggregateSpec("count", Star()), alias="n")],
            limit=3,
        )
        text = query.display()
        assert "SELECT" in text and "WHERE" in text and "LIMIT 3" in text

    def test_select_item_output_names(self):
        item = SelectItem(expression=ColumnRef("t", "price"))
        assert item.output_name(0) == "price"
        aliased = SelectItem(expression=ColumnRef("t", "price"), alias="p")
        assert aliased.output_name(0) == "p"
        agg = SelectItem(aggregate=AggregateSpec("sum", ColumnRef("t", "price")))
        assert "sum" in agg.output_name(0)


class TestJoinGraph:
    def test_chain_connectivity(self):
        graph = chain_query(4).join_graph()
        assert set(graph.eligible_next(["t1"])) == {"t0", "t2"}
        # Connected: every order the graph allows joins each alias by an equality.
        for order in valid_join_orders(graph):
            assert all(equi for _, equi, _ in graph.join_steps(order)), order

    def test_eligible_next_prefers_connected(self):
        graph = chain_query(4).join_graph()
        assert set(graph.eligible_next(["t1"])) == {"t0", "t2"}
        assert set(graph.eligible_next([])) == {"t0", "t1", "t2", "t3"}

    def test_eligible_next_falls_back_to_all_when_disconnected(self):
        query = make_query(["a", "b", "c"],
                           predicates=[column_equals_column("a", "x", "b", "x")])
        graph = query.join_graph()
        # After {a, b}, only c remains and it is disconnected: still eligible.
        assert graph.eligible_next(["a", "b"]) == ["c"]
        # Starting from c, nothing is connected: all others are eligible.
        assert set(graph.eligible_next(["c"])) == {"a", "b"}

    def test_chain_join_order_count(self):
        # For a chain of n tables the number of Cartesian-avoiding left-deep
        # orders is 2^(n-1).
        for n in (2, 3, 4, 5):
            graph = chain_query(n).join_graph()
            assert len(valid_join_orders(graph)) == 2 ** (n - 1)

    def test_valid_join_orders_are_permutations(self):
        graph = chain_query(3).join_graph()
        orders = valid_join_orders(graph)
        for order in orders:
            assert sorted(order) == ["t0", "t1", "t2"]

    def test_star_graph_orders(self):
        center = "hub"
        spokes = ["s1", "s2", "s3"]
        predicates = [column_equals_column(center, "id", s, "hub_id") for s in spokes]
        graph = JoinGraph([center] + spokes, predicates)
        # Starting anywhere, the hub must come no later than second.
        for order in valid_join_orders(graph):
            assert order.index(center) <= 1

    def test_predicates_between(self):
        graph = chain_query(3).join_graph()
        (_, equi, residual), _ = graph.join_steps(["t0", "t1", "t2"])
        assert len(equi) == 1 and residual == ()
        # Nothing links t0 and t2: joining t2 to t0 applies no predicate.
        assert graph.join_steps(["t0", "t2", "t1"])[0] == ("t2", (), ())

    def test_disconnected_graph_reports_not_connected(self):
        graph = JoinGraph(["a", "b"], [])
        # No neighbour: the Cartesian product is unavoidable and applies nothing.
        assert graph.eligible_next(["a"]) == ["b"]
        assert graph.join_steps(["a", "b"]) == (("b", (), ()),)
