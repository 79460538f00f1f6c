"""Unit and differential tests for row-id relations, operators, and the executor."""

import numpy as np
import pytest

from repro.engine.executor import PlanExecutor
from repro.engine.meter import CostMeter
from repro.engine.operators import (
    Candidates,
    apply_residual,
    cross_candidates,
    filter_table,
)
from repro.engine.relation import RowIdRelation
from repro.errors import BudgetExceeded, ExecutionError, PlanningError
from repro.query.expressions import ColumnRef
from repro.query.predicates import (
    Predicate,
    column_compare_literal,
    column_equals_column,
)
from repro.query.udf import UdfRegistry
from tests.conftest import index_tuples, reference_join_tuples, udf_predicate
from tests.oracles.join_orders import valid_join_orders
from tests.oracles import hash_join_step
from benchmarks.paper.scalar import binding as bind_row
from benchmarks.paper.queries import make_query

#: ``episode_rows`` of :meth:`PlanExecutor.run_order`: one candidate, a few,
#: and unbounded (the one range :meth:`PlanExecutor.execute_order` runs).
EPISODE_ROWS = [1, 7, None]


def run_in_episodes(catalog, query, order, episode_rows, monkeypatch, udfs=None, **kwargs):
    """Drive ``run_order`` on a fresh executor to its end and check it
    against ``execute_order`` on another: the same relation, row for row,
    and the same counters; no episode materializes more than
    ``episode_rows`` candidates.  Returns the relation and its meter."""
    whole_meter, meter = CostMeter(), CostMeter()
    whole = PlanExecutor(catalog, query, udfs).execute_order(order, whole_meter, **kwargs)
    episodes = [0]
    with monkeypatch.context() as patch:
        take = Candidates.take

        def counted(candidates, start, stop):
            episodes[-1] += stop - start
            return take(candidates, start, stop)

        patch.setattr(Candidates, "take", counted)
        steps = PlanExecutor(catalog, query, udfs).run_order(
            order, meter, episode_rows=episode_rows, **kwargs)
        while True:
            try:
                next(steps)
            except StopIteration as done:
                relation = done.value
                break
            episodes.append(0)
    assert relation.aliases == whole.aliases
    assert np.array_equal(relation.matrix(), whole.matrix())
    assert meter.snapshot() == whole_meter.snapshot()
    if episode_rows is None:
        assert len(episodes) == 1
    else:
        assert max(episodes) <= episode_rows
        assert len(episodes) == sum(episodes) // episode_rows + 1
    return relation, meter


class TestRowIdRelation:
    def test_from_base_and_len(self):
        relation = RowIdRelation.from_base("t", [0, 2, 4])
        assert len(relation) == 3
        assert relation.aliases == ["t"]
        assert relation.ids("t").tolist() == [0, 2, 4]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ExecutionError):
            RowIdRelation({"a": np.array([1, 2]), "b": np.array([1])})

    def test_unknown_alias_raises(self):
        with pytest.raises(ExecutionError):
            RowIdRelation.from_base("t", [1]).ids("other")

    def test_extend_and_take(self):
        relation = RowIdRelation.from_base("a", [10, 20])
        extended = relation.extend("b", np.array([7, 8, 9]), np.array([0, 0, 1]))
        assert len(extended) == 3
        assert extended.ids("a").tolist() == [10, 10, 20]
        taken = extended.take(np.array([2]))
        assert taken.ids("b").tolist() == [9]

    def test_index_tuples_round_trip(self):
        tuples = [(1, 5), (2, 6)]
        relation = RowIdRelation.from_matrix(["a", "b"], np.array(tuples, dtype=np.int64))
        assert index_tuples(relation, ["a", "b"]) == tuples
        assert index_tuples(relation, ["b", "a"]) == [(5, 1), (6, 2)]

    def test_empty(self):
        relation = RowIdRelation({"a": [], "b": []})
        assert len(relation) == 0
        assert index_tuples(relation) == []

    def test_binding_materializes_values(self, tiny_catalog):
        relation = RowIdRelation.from_base("c", [1])
        binding = bind_row(relation, 0, {"c": tiny_catalog.table("customers")})
        assert binding["c"]["country"] == "de"


class TestOperators:
    def test_filter_table_applies_predicates(self, tiny_catalog):
        meter = CostMeter()
        customers = tiny_catalog.table("customers")
        positions = filter_table(
            customers, "c", [column_compare_literal("c", "country", "=", "de")], meter
        )
        assert positions.tolist() == [1, 4]
        assert meter.tuples_scanned == customers.num_rows
        assert meter.predicate_evals == customers.num_rows

    def test_filter_table_multiple_predicates_short_circuit(self, tiny_catalog):
        meter = CostMeter()
        positions = filter_table(
            tiny_catalog.table("customers"), "c",
            [column_compare_literal("c", "country", "=", "nowhere"),
             column_compare_literal("c", "score", ">", 0)],
            meter,
        )
        assert positions.tolist() == []

    def test_hash_join_matches_reference(self, tiny_catalog):
        meter = CostMeter()
        customers = tiny_catalog.table("customers")
        orders = tiny_catalog.table("orders")
        tables = {"c": customers, "o": orders}
        prefix = RowIdRelation.from_base("c", np.arange(customers.num_rows))
        joined = hash_join_step(
            prefix, "o", orders, np.arange(orders.num_rows),
            [column_equals_column("c", "cid", "o", "cid")], [], tables, meter,
        )
        expected = {
            (c, o)
            for c in range(customers.num_rows)
            for o in range(orders.num_rows)
            if customers.row(c)["cid"] == orders.row(o)["cid"]
        }
        assert set(index_tuples(joined, ["c", "o"])) == expected
        assert meter.intermediate_tuples == len(expected)

    def test_nested_loop_with_residual_predicate(self, tiny_catalog):
        meter = CostMeter()
        customers = tiny_catalog.table("customers")
        orders = tiny_catalog.table("orders")
        tables = {"c": customers, "o": orders}
        prefix = RowIdRelation.from_base("c", np.arange(customers.num_rows))
        from repro.query.expressions import ColumnRef
        from repro.query.predicates import Predicate

        candidates = cross_candidates(prefix, "o", np.arange(orders.num_rows), meter)
        joined = apply_residual(
            candidates.take(0, candidates.total),
            [Predicate(ColumnRef("c", "score"), ">", ColumnRef("o", "amount"))],
            tables, meter, None,
        )
        expected = {
            (c, o)
            for c in range(customers.num_rows)
            for o in range(orders.num_rows)
            if customers.row(c)["score"] > orders.row(o)["amount"]
        }
        assert set(index_tuples(joined, ["c", "o"])) == expected

    def test_nested_loop_empty_side(self, tiny_catalog):
        meter = CostMeter()
        orders = tiny_catalog.table("orders")
        prefix = RowIdRelation.from_base("c", np.array([], dtype=np.int64))
        candidates = cross_candidates(prefix, "o", np.arange(3), meter)
        joined = apply_residual(candidates.take(0, candidates.total), [], {}, meter, None)
        assert len(joined) == 0
        assert joined.aliases == ["c", "o"]

    def test_cross_product_ranges_tile_the_whole(self):
        prefix = RowIdRelation.from_base("c", np.array([4, 1, 3], dtype=np.int64))
        candidates = cross_candidates(prefix, "o", np.array([7, 5], dtype=np.int64), CostMeter())
        whole = candidates.take(0, candidates.total).matrix()
        assert whole.tolist() == [[4, 7], [4, 5], [1, 7], [1, 5], [3, 7], [3, 5]]
        for start in range(candidates.total + 1):
            for stop in range(start, candidates.total + 1):
                assert np.array_equal(candidates.take(start, stop).matrix(), whole[start:stop])


class TestPlanExecutor:
    @pytest.mark.parametrize("episode_rows", EPISODE_ROWS)
    def test_all_orders_produce_reference_result(
        self, tiny_catalog, tiny_join_query, episode_rows, monkeypatch
    ):
        expected = reference_join_tuples(tiny_catalog, tiny_join_query)
        graph = tiny_join_query.join_graph()
        for order in valid_join_orders(graph):
            relation, _ = run_in_episodes(tiny_catalog, tiny_join_query, list(order),
                                          episode_rows, monkeypatch)
            produced = set(index_tuples(relation, tiny_join_query.aliases))
            assert produced == expected, f"order {order} disagrees with the oracle"

    def test_invalid_order_rejected(self, tiny_catalog, tiny_join_query):
        executor = PlanExecutor(tiny_catalog, tiny_join_query)
        with pytest.raises(PlanningError):
            executor.execute_order(["c", "o"], CostMeter())

    @pytest.mark.parametrize("episode_rows", EPISODE_ROWS)
    def test_budget_aborts_execution(self, tiny_catalog, tiny_join_query, episode_rows):
        executor = PlanExecutor(tiny_catalog, tiny_join_query)
        with pytest.raises(BudgetExceeded):
            for _ in executor.run_order(["c", "o", "i"], CostMeter(budget=5),
                                        episode_rows=episode_rows):
                pass

    @pytest.mark.parametrize("episode_rows", EPISODE_ROWS)
    def test_batch_restriction_via_index_range(
        self, tiny_catalog, tiny_join_query, episode_rows, monkeypatch
    ):
        executor = PlanExecutor(tiny_catalog, tiny_join_query)
        full = executor.execute_order(["c", "o", "i"], CostMeter())
        (index,) = np.flatnonzero(executor.filtered_positions("c") == 2)
        restricted, _ = run_in_episodes(
            tiny_catalog, tiny_join_query, ["c", "o", "i"], episode_rows, monkeypatch,
            batch=(int(index), int(index) + 1),
        )
        full_tuples = set(index_tuples(full, ["c", "o", "i"]))
        restricted_tuples = set(index_tuples(restricted, ["c", "o", "i"]))
        assert restricted_tuples <= full_tuples
        assert all(t[0] == 2 for t in restricted_tuples)

    @pytest.mark.parametrize("episode_rows", EPISODE_ROWS)
    def test_batch_and_remainders_in_episodes(
        self, tiny_catalog, tiny_join_query, episode_rows, monkeypatch
    ):
        for order in (["c", "o", "i"], ["i", "o", "c"], ["o", "c", "i"]):
            run_in_episodes(tiny_catalog, tiny_join_query, order, episode_rows, monkeypatch,
                            batch=(1, 3), lower={order[1]: 1, order[2]: 2})

    @pytest.mark.parametrize("episode_rows", EPISODE_ROWS)
    def test_cross_products_with_residual_and_udf_predicates(
        self, tiny_catalog, episode_rows, monkeypatch
    ):
        udfs = UdfRegistry()
        udfs.register("odd", lambda score, quantity: (score + quantity) % 2 == 1, cost=3)
        query = make_query(
            [("c", "customers"), ("o", "orders"), ("i", "items")],
            predicates=[
                column_equals_column("o", "oid", "i", "oid"),
                Predicate(ColumnRef("c", "score"), "<", ColumnRef("o", "amount")),
                udf_predicate("odd", ("c", "score"), ("i", "quantity")),
            ],
        )
        expected = reference_join_tuples(tiny_catalog, query, udfs)
        for order in (["c", "o", "i"], ["c", "i", "o"], ["i", "c", "o"]):
            relation, meter = run_in_episodes(tiny_catalog, query, order, episode_rows,
                                              monkeypatch, udfs)
            assert set(index_tuples(relation, query.aliases)) == expected
            assert meter.udf_invocations > 0
        run_in_episodes(tiny_catalog, query, ["c", "i", "o"], episode_rows, monkeypatch, udfs,
                        batch=(2, 5), lower={"i": 3, "o": 1})

    def test_join_subset_cardinality_matches_reference(self, tiny_catalog, tiny_join_query):
        from benchmarks.paper.oracle import restrict_query, subset_cardinality

        executor = PlanExecutor(tiny_catalog, tiny_join_query)
        sub_query = restrict_query(tiny_join_query, ["c", "o"])
        expected = len(reference_join_tuples(tiny_catalog, sub_query))
        assert subset_cardinality(executor, tiny_join_query, ["c", "o"]) == expected

    @pytest.mark.parametrize("episode_rows", EPISODE_ROWS)
    def test_cartesian_product_order_still_correct(self, tiny_catalog, episode_rows, monkeypatch):
        # A query whose only join predicate links c and o; i is joined by a
        # cross product when it comes second.
        query = make_query(
            [("c", "customers"), ("o", "orders"), ("i", "items")],
            predicates=[column_equals_column("c", "cid", "o", "cid")],
        )
        expected = reference_join_tuples(tiny_catalog, query)
        relation, _ = run_in_episodes(tiny_catalog, query, ["c", "i", "o"], episode_rows,
                                      monkeypatch)
        assert set(index_tuples(relation, query.aliases)) == expected
