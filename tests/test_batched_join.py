"""Equivalence of the batched multi-way join and the scalar reference.

The batched executor (``MultiwayJoin.continue_join``, any ``batch_size``)
must be observationally identical to the scalar reference
(``MultiwayJoin._continue_scalar``, Algorithm 2 verbatim, reachable only by
calling it directly): same result sets, same final states, and the same
results under arbitrary suspend/resume slicing — that is what keeps the
regret-bounded learning loop untouched by vectorization.
The random inputs are built from the deterministic generator helpers in
``repro.workloads.generators`` (Zipfian join keys, correlated columns).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SkinnerConfig
from repro.engine.meter import CostMeter
from repro.query.predicates import (
    Predicate,
    column_compare_literal,
    column_equals_column,
    udf_predicate,
)
from repro.query.expressions import ColumnRef
from repro.query.query import make_query
from repro.query.udf import UdfRegistry
from repro.skinner.multiway_join import MultiwayJoin
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.skinner.state import initial_state
from repro.skinner.skinner_c import SkinnerC
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import (
    choice_strings,
    correlated_column,
    make_rng,
    uniform_keys,
    zipf_keys,
)
from tests.conftest import reference_join_tuples, result_multiset


def every_slice(slice_index: int) -> bool:
    """``run_sliced(scalar=every_slice)``: all slices on the scalar reference."""
    return True


def random_catalog_and_query(seed: int, *, num_tables: int, rows: int):
    """A random joinable catalog plus an SPJ query, from the generator helpers."""
    rng = make_rng(seed)
    catalog = Catalog()
    aliases = []
    num_keys = max(2, rows // 3)
    for table_index in range(num_tables):
        name = f"t{table_index}"
        num_rows = int(rng.integers(0, rows + 1))
        keys = zipf_keys(rng, num_rows, num_keys, skew=float(rng.uniform(0.0, 1.5)))
        catalog.add_table(Table(name, {
            "k": keys,
            "v": correlated_column(rng, keys, 5, float(rng.uniform(0.0, 1.0))),
            "w": uniform_keys(rng, num_rows, 7),
            "s": choice_strings(rng, num_rows, ["red", "green", "blue"]),
        }))
        aliases.append(name)
    predicates = []
    for i in range(num_tables - 1):
        predicates.append(column_equals_column(aliases[i], "k", aliases[i + 1], "k"))
    if rng.random() < 0.5:
        predicates.append(column_equals_column(aliases[0], "s", aliases[-1], "s"))
    if rng.random() < 0.5:
        # A non-equi join predicate exercises the vectorized comparison plans.
        predicates.append(Predicate(ColumnRef(aliases[0], "v"), "<=", ColumnRef(aliases[-1], "w")))
    for alias in aliases:
        if rng.random() < 0.5:
            predicates.append(column_compare_literal(alias, "v", ">", int(rng.integers(0, 4))))
    query = make_query(aliases, predicates=predicates)
    return catalog, query


def run_sliced(prepared, order, batch_size, budget, udfs=None, *, offsets=None,
               advance_offsets=False, scalar=lambda slice_index: False):
    """Drive ContinueJoin in budget slices until completion.

    ``scalar(slice_index)`` says which slices run on the scalar reference
    instead of the production (batched) executor.
    """
    join = MultiwayJoin(prepared, udfs, batch_size=batch_size)
    offsets = offsets if offsets is not None else {alias: 0 for alias in prepared.aliases}
    state = initial_state(order, offsets)
    results = JoinResultSet(prepared.aliases)
    results.enable_streaming()  # journals the emission order
    meter = CostMeter()
    finished = False
    slices = 0
    previous = tuple(state.indices)
    while not finished:
        step = join._continue_scalar if scalar(slices) else join.continue_join
        finished = step(state, offsets, budget, results, meter)
        slices += 1
        assert slices < 200_000, "executor did not terminate"
        current = tuple(state.indices)
        if not finished:
            assert current >= previous, "state went backwards across a suspension"
        previous = current
        if advance_offsets:
            offsets[order[0]] = max(offsets[order[0]], state.indices[0])
    return results, state, meter, slices


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=2, max_value=4),
       st.sampled_from([3, 17, 100]))
def test_batched_equals_scalar_results_and_states(seed, num_tables, budget):
    """Property: identical result sets and identical suspend/resume states."""
    catalog, query = random_catalog_and_query(seed, num_tables=num_tables, rows=24)
    prepared = preprocess(catalog, query)
    orders = query.join_graph().valid_join_orders()
    order = orders[seed % len(orders)]
    scalar_results, scalar_state, _, _ = run_sliced(prepared, order, 1, budget,
                                                    scalar=every_slice)
    batched_results, batched_state, _, _ = run_sliced(prepared, order, 1024, budget)
    assert set(batched_results.tuples()) == set(scalar_results.tuples())
    assert batched_state.as_tuple() == scalar_state.as_tuple()
    assert batched_state.batch_cursors is None, "finished states carry no cursors"


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=2, max_value=4),
       st.sampled_from([3, 17, 100]))
def test_batches_of_one_match_scalar_reference(seed, num_tables, budget):
    """``batch_size=1`` is batches of one through the batched executor.

    Against the scalar reference it must produce the same rows in the same
    emission order, the same final state, and the same output charge, and
    every suspension point of either executor must be a valid resumption
    point of the other (alternating them slice by slice changes nothing).

    Scan/predicate charges and the positions of slice boundaries are *not*
    compared: the scalar loop spends one iteration examining the reset index
    on every descent where the batched executor jumps straight into the
    hash bucket, so the two drain a slice budget at different rates (on
    these generators the totals differ for ~3 in 4 inputs, in either
    direction once resume re-descents are counted).
    """
    catalog, query = random_catalog_and_query(seed, num_tables=num_tables, rows=24)
    prepared = preprocess(catalog, query)
    orders = query.join_graph().valid_join_orders()
    order = orders[seed % len(orders)]
    reference, reference_state, reference_meter, _ = run_sliced(
        prepared, order, 1, budget, scalar=every_slice)
    emitted = reference.drain_new()
    for label, scalar in (("batched", lambda i: False),
                          ("batched then scalar", lambda i: i % 2 == 1),
                          ("scalar then batched", lambda i: i % 2 == 0)):
        results, state, _, _ = run_sliced(prepared, order, 1, budget, scalar=scalar)
        assert np.array_equal(results.to_matrix(), reference.to_matrix()), label
        assert results.drain_new() == emitted, f"{label}: emission order"
        assert state.as_tuple() == reference_state.as_tuple(), label
    batched_work = run_sliced(prepared, order, 1, budget)[2].snapshot()
    assert batched_work.output_tuples == reference_meter.snapshot().output_tuples


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=100_000),
       st.sampled_from([4, 23, 111]))
def test_suspended_state_is_self_describing(seed, budget):
    """A suspended batched state resumes correctly from its indices alone.

    Every slice runs on a *fresh* executor with ``batch_cursors`` stripped,
    so no parked frames or cursors can help: the rebuilt frames must land on
    exactly the candidates the suspended run would have examined next.  This
    is the path the progress tracker exercises when another join order ran
    in between (only the index vector survives the tracker round-trip).
    """
    catalog, query = random_catalog_and_query(seed, num_tables=3, rows=20)
    prepared = preprocess(catalog, query)
    order = query.join_graph().valid_join_orders()[0]
    reference, _, _, _ = run_sliced(prepared, order, 1024, 1_000_000)
    offsets = {alias: 0 for alias in prepared.aliases}
    state = initial_state(order, offsets)
    results = JoinResultSet(prepared.aliases)
    meter = CostMeter()
    finished = False
    slices = 0
    while not finished:
        join = MultiwayJoin(prepared, batch_size=1024)
        state = state.copy()
        state.batch_cursors = None
        finished = join.continue_join(state, offsets, budget, results, meter)
        slices += 1
        assert slices < 100_000
    assert set(results.tuples()) == set(reference.tuples())


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=100_000))
def test_batched_slicing_is_invariant(seed):
    """Any slice budget (any suspension pattern) yields the same results."""
    catalog, query = random_catalog_and_query(seed, num_tables=3, rows=20)
    prepared = preprocess(catalog, query)
    order = query.join_graph().valid_join_orders()[0]
    reference, reference_state, _, _ = run_sliced(prepared, order, 1024, 1_000_000)
    for budget in (5, 31, 256):
        results, state, _, _ = run_sliced(prepared, order, 1024, budget)
        assert set(results.tuples()) == set(reference.tuples()), f"budget {budget}"
        assert state.as_tuple() == reference_state.as_tuple()


def test_batched_interleaved_orders_share_result_set(tiny_catalog, tiny_join_query):
    """Two join orders alternating mid-batch still cover the result exactly."""
    expected = reference_join_tuples(tiny_catalog, tiny_join_query)
    prepared = preprocess(tiny_catalog, tiny_join_query)
    join = MultiwayJoin(prepared, batch_size=8)
    offsets = {alias: 0 for alias in prepared.aliases}
    orders = (("c", "o", "i"), ("i", "o", "c"))
    states = {order: initial_state(order, offsets) for order in orders}
    finished = {order: False for order in orders}
    results = JoinResultSet(prepared.aliases)
    meter = CostMeter()
    turn = 0
    while not all(finished.values()):
        order = orders[turn % len(orders)]
        turn += 1
        if finished[order]:
            continue
        finished[order] = join.continue_join(states[order], offsets, 6, results, meter)
        assert turn < 100_000
    assert set(results.tuples()) == expected


def test_batched_with_advancing_offsets_matches_oracle(tiny_catalog, tiny_join_query):
    """Offset advancement (shared progress) never loses or duplicates tuples."""
    expected = reference_join_tuples(tiny_catalog, tiny_join_query)
    prepared = preprocess(tiny_catalog, tiny_join_query)
    for order in tiny_join_query.join_graph().valid_join_orders():
        results, _, _, _ = run_sliced(prepared, order, 16, 7, advance_offsets=True)
        assert set(results.tuples()) == expected, f"order {order}"


def test_batched_udf_predicates_match_scalar(tiny_catalog):
    udfs = UdfRegistry()
    udfs.register("amount_close", lambda a, b: abs(a - b) <= 50)
    query = make_query(
        [("c", "customers"), ("o", "orders")],
        predicates=[udf_predicate("amount_close", ("c", "score"), ("o", "amount"))],
    )
    prepared = preprocess(tiny_catalog, query, udfs)
    for budget in (2, 9, 10_000):
        scalar, s_state, _, _ = run_sliced(prepared, ("c", "o"), 1, budget, udfs,
                                           scalar=every_slice)
        batched, b_state, _, _ = run_sliced(prepared, ("c", "o"), 64, budget, udfs)
        assert set(batched.tuples()) == set(scalar.tuples())
        assert b_state.as_tuple() == s_state.as_tuple()


def test_suspended_state_records_batch_cursors(tiny_catalog, tiny_join_query):
    """A mid-batch suspension records per-position cursors; resume clears them."""
    prepared = preprocess(tiny_catalog, tiny_join_query)
    join = MultiwayJoin(prepared, batch_size=4)
    offsets = {alias: 0 for alias in prepared.aliases}
    state = initial_state(("c", "o", "i"), offsets)
    results = JoinResultSet(prepared.aliases)
    meter = CostMeter()
    finished = join.continue_join(state, offsets, 4, results, meter)
    assert not finished
    assert state.batch_cursors is not None
    assert len(state.batch_cursors) == 3
    copied = state.copy()
    assert copied.batch_cursors == state.batch_cursors
    while not finished:
        finished = join.continue_join(state, offsets, 4, results, meter)
    assert state.batch_cursors is None
    assert set(results.tuples()) == reference_join_tuples(tiny_catalog, tiny_join_query)


def test_skinner_c_engine_identical_across_batch_sizes(tiny_catalog, tiny_join_query):
    """End-to-end: the engine returns the same relation for any batch size."""
    reference = None
    for batch_size in (1, 2, 64, 1024):
        config = SkinnerConfig(slice_budget=32, batch_size=batch_size)
        engine = SkinnerC(tiny_catalog, config=config)
        result = engine.execute(tiny_join_query)
        rows = result_multiset(result)
        if reference is None:
            reference = rows
        else:
            assert rows == reference, f"batch_size {batch_size} changed the result"


def test_invalid_batch_size_rejected(tiny_catalog, tiny_join_query):
    prepared = preprocess(tiny_catalog, tiny_join_query)
    with pytest.raises(ValueError):
        MultiwayJoin(prepared, batch_size=0)
