"""Tests for the depth-first multi-way join (Algorithm 2)."""

from repro.engine.meter import CostMeter
from repro.query.predicates import column_compare_literal, column_equals_column, udf_predicate
from repro.query.query import make_query
from repro.query.udf import UdfRegistry
from repro.skinner.multiway_join import MultiwayJoin
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.skinner.state import initial_state
from tests.conftest import reference_join_tuples


def run_to_completion(prepared, order, udfs=None, *, budget=50, offsets=None):
    """Drive ContinueJoin in small slices until it reports completion."""
    join = MultiwayJoin(prepared, udfs)
    offsets = offsets if offsets is not None else {alias: 0 for alias in prepared.aliases}
    state = initial_state(order, offsets)
    results = JoinResultSet(prepared.aliases)
    meter = CostMeter()
    finished = False
    slices = 0
    while not finished:
        finished = join.continue_join(state, offsets, budget, results, meter)
        slices += 1
        assert slices < 10_000, "multi-way join did not terminate"
    return results, meter, slices


class TestCorrectness:
    def test_all_orders_match_reference(self, tiny_catalog, tiny_join_query):
        expected = reference_join_tuples(tiny_catalog, tiny_join_query)
        prepared = preprocess(tiny_catalog, tiny_join_query)
        for order in tiny_join_query.join_graph().valid_join_orders():
            results, _, _ = run_to_completion(prepared, order)
            assert set(results.tuples()) == expected, f"order {order} is wrong"

    def test_hash_jump_equivalent_to_plain_advance(self, tiny_catalog, tiny_join_query):
        with_maps = preprocess(tiny_catalog, tiny_join_query, build_hash_maps=True)
        without_maps = preprocess(tiny_catalog, tiny_join_query, build_hash_maps=False)
        order = ("c", "o", "i")
        fast, fast_meter, _ = run_to_completion(with_maps, order)
        slow, slow_meter, _ = run_to_completion(without_maps, order)
        assert set(fast.tuples()) == set(slow.tuples())
        # Jumping skips non-matching tuples, so it must not do more work.
        assert fast_meter.tuples_scanned <= slow_meter.tuples_scanned

    def test_generic_udf_join_predicates(self, tiny_catalog):
        udfs = UdfRegistry()
        udfs.register("amount_close", lambda a, b: abs(a - b) <= 50)
        query = make_query(
            [("c", "customers"), ("o", "orders")],
            predicates=[udf_predicate("amount_close", ("c", "score"), ("o", "amount"))],
        )
        expected = reference_join_tuples(tiny_catalog, query, udfs)
        prepared = preprocess(tiny_catalog, query, udfs)
        results, _, _ = run_to_completion(prepared, ("c", "o"), udfs)
        assert set(results.tuples()) == expected

    def test_empty_filtered_table_finishes_immediately(self, tiny_catalog):
        query = make_query(
            [("c", "customers"), ("o", "orders")],
            predicates=[column_equals_column("c", "cid", "o", "cid"),
                        column_compare_literal("c", "country", "=", "nowhere")],
        )
        prepared = preprocess(tiny_catalog, query)
        results, meter, slices = run_to_completion(prepared, ("c", "o"))
        assert len(results) == 0
        assert slices == 1

    def test_duplicate_results_across_orders_are_merged(self, tiny_catalog, tiny_join_query):
        prepared = preprocess(tiny_catalog, tiny_join_query)
        results = JoinResultSet(prepared.aliases)
        meter = CostMeter()
        offsets = {alias: 0 for alias in prepared.aliases}
        join = MultiwayJoin(prepared)
        for order in (("c", "o", "i"), ("i", "o", "c")):
            state = initial_state(order, offsets)
            finished = False
            while not finished:
                finished = join.continue_join(state, offsets, 64, results, meter)
        assert set(results.tuples()) == reference_join_tuples(tiny_catalog, tiny_join_query)


class TestSuspendResume:
    def test_budget_slices_do_not_lose_or_duplicate_progress(self, tiny_catalog, tiny_join_query):
        expected = reference_join_tuples(tiny_catalog, tiny_join_query)
        prepared = preprocess(tiny_catalog, tiny_join_query)
        for budget in (1, 2, 3, 7, 1000):
            results, _, _ = run_to_completion(prepared, ("o", "c", "i"), budget=budget)
            assert set(results.tuples()) == expected, f"budget {budget} broke resume"

    def test_state_advances_lexicographically(self, tiny_catalog, tiny_join_query):
        prepared = preprocess(tiny_catalog, tiny_join_query)
        join = MultiwayJoin(prepared)
        order = ("c", "o", "i")
        offsets = {alias: 0 for alias in prepared.aliases}
        state = initial_state(order, offsets)
        results = JoinResultSet(prepared.aliases)
        meter = CostMeter()
        previous = tuple(state.indices)
        finished = False
        while not finished:
            finished = join.continue_join(state, offsets, 5, results, meter)
            current = tuple(state.indices)
            if not finished:
                assert current >= previous
            previous = current

    def test_offsets_exclude_leading_tuples(self, tiny_catalog, tiny_join_query):
        prepared = preprocess(tiny_catalog, tiny_join_query)
        full_expected = reference_join_tuples(tiny_catalog, tiny_join_query)
        # Exclude the first filtered tuple of the left-most table via offsets.
        offsets = {alias: 0 for alias in prepared.aliases}
        offsets["c"] = 1
        results, _, _ = run_to_completion(prepared, ("c", "o", "i"), offsets=offsets)
        excluded_base_row = prepared.base_row("c", 0)
        expected = {t for t in full_expected if t[0] != excluded_base_row}
        assert set(results.tuples()) == expected


class TestAccounting:
    def test_meter_charges_iterations_and_predicates(self, tiny_catalog, tiny_join_query):
        prepared = preprocess(tiny_catalog, tiny_join_query)
        _, meter, _ = run_to_completion(prepared, ("c", "o", "i"))
        assert meter.tuples_scanned > 0
        assert meter.predicate_evals > 0
        assert meter.output_tuples == len(reference_join_tuples(tiny_catalog, tiny_join_query))

    def test_context_caching(self, tiny_catalog, tiny_join_query):
        prepared = preprocess(tiny_catalog, tiny_join_query)
        join = MultiwayJoin(prepared)
        first = join.context_for(("c", "o", "i"))
        assert join.context_for(("c", "o", "i")) is first
