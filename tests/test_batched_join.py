"""Equivalence of the prefix-block multi-way join and the scalar reference.

The production executor (``MultiwayJoin.continue_join``, any ``batch_size``)
must be observationally identical to the scalar reference
(``tests.oracles.continue_scalar``, Algorithm 2 verbatim): same result sets,
same final states, and the same results under arbitrary suspend/resume
slicing — that is what keeps the
regret-bounded learning loop untouched by vectorization.
The random inputs are built from the deterministic generator helpers in
``repro.workloads.generators`` (Zipfian join keys, correlated columns).  Three
shapes: the chain queries of ``random_catalog_and_query``, the *wide*
queries of ``wide_catalog_and_query``, whose blocks really hold many
prefixes (fan-out above one at consecutive positions, string and NaN join
keys, a scan position below the first, UDF and expression predicates), and
the *band* queries of ``band_catalog_and_query``, whose non-decreasing INT
column is reached by range bounds only — the band jump's case, which the
other two almost never produce — and the *keyed* queries of
``keyed_catalog_and_query``, whose dimension tables are joined by a unique
``id`` (the partner-row frames of a key/foreign-key join, which the random
catalogs reach only by chance).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SkinnerConfig
from repro.engine.joinsteps import Partners
from repro.engine.meter import CostMeter
from repro.query.predicates import (
    Predicate,
    column_compare_literal,
    column_equals_column,
)
from repro.query.expressions import ColumnRef, FunctionCall, Literal
from repro.query.udf import UdfRegistry
from repro.skinner.multiway_join import _MIRRORED_OP, MultiwayJoin, _BandSpec
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.skinner.state import initial_state
from repro.skinner import skinner_c
from repro.skinner.skinner_c import SkinnerC
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.job import make_job_workload
from repro.workloads.generators import (
    choice_strings,
    correlated_column,
    make_rng,
    uniform_keys,
    zipf_keys,
)
from tests.conftest import (
    parked_frame_sets,
    reference_join_tuples,
    result_multiset,
    result_tuples,
    udf_predicate,
)
from tests.oracles import continue_scalar
from tests.oracles.join_orders import valid_join_orders
from benchmarks.paper.queries import make_query


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


def wide_catalog_and_query(seed: int):
    """A four-table query whose blocks are wider than one prefix, plus its UDFs.

    ``t0.k = t1.k`` and ``t1.k2 = t2.k2`` join on a handful of keys, so two
    consecutive positions fan out; ``t3`` hangs off ``t2`` by ``<=`` only and
    is a scan position wherever it stands; string keys come from different
    dictionaries per table, float keys contain NaN; an arithmetic expression,
    a string ordering and a UDF are drawn on top.
    """
    rng = make_rng(seed)
    catalog = Catalog()
    colors = (["red", "green", "blue"], ["blue", "red", "pink"], ["pink", "blue", "green", "red"])
    for index, name in enumerate(("t0", "t1", "t2", "t3")):
        rows = int(rng.integers(1 if index else 2, 10))
        catalog.add_table(Table(name, {
            "k": uniform_keys(rng, rows, 3),
            "k2": uniform_keys(rng, rows, 2),
            "v": uniform_keys(rng, rows, 6),
            "w": uniform_keys(rng, rows, 6),
            "f": [(float("nan"), 1.0, 2.0)[int(i)] for i in rng.integers(0, 3, size=rows)],
            "s": choice_strings(rng, rows, colors[index % len(colors)]),
        }))
    predicates = [
        column_equals_column("t0", "k", "t1", "k"),
        column_equals_column("t1", "k2", "t2", "k2"),
        Predicate(ColumnRef("t2", "v"), "<=", ColumnRef("t3", "w")),
    ]
    if rng.random() < 0.5:
        predicates.append(column_equals_column("t0", "s", "t2", "s"))
    if rng.random() < 0.5:
        predicates.append(column_equals_column("t0", "f", "t1", "f"))
    if rng.random() < 0.5:
        total = FunctionCall("add", (ColumnRef("t0", "v"), ColumnRef("t2", "w")))
        predicates.append(Predicate(total, ">", Literal(int(rng.integers(1, 6)))))
    if rng.random() < 0.3:
        predicates.append(Predicate(ColumnRef("t0", "s"), "<", ColumnRef("t2", "s")))
    udfs = UdfRegistry()
    udfs.register("near", lambda a, b: abs(a - b) <= 2)
    if rng.random() < 0.5:
        predicates.append(udf_predicate("near", ("t1", "v"), ("t3", "w")))
    # Which equality a position jumps by is the first one listed: vary it.
    predicates = [predicates[int(i)] for i in rng.permutation(len(predicates))]
    return catalog, make_query(["t0", "t1", "t2", "t3"], predicates=predicates), udfs


def band_catalog_and_query(seed: int):
    """A three-table query whose ``t1`` hangs off the others by range bounds only.

    ``t1.p`` never decreases with the row id and repeats its values in runs,
    and the bounds in ``t0.lo`` / ``t0.hi`` / ``t2.c`` are drawn from the same
    small range, so band edges land inside and at both ends of runs of equal
    values.  ``t1.p`` gets a lower bound, an upper bound or both (strict or
    not, spelled with ``t1`` on either side), sometimes one more from ``t2``;
    ``t2`` joins ``t0`` by equality, and a unary filter on ``t1`` thins the
    filtered rows some of the time.
    """
    rng = make_rng(seed)
    catalog = Catalog()
    sizes = [int(rng.integers(1, 9)), int(rng.integers(1, 16)), int(rng.integers(1, 6))]
    catalog.add_table(Table("t0", {
        "k": uniform_keys(rng, sizes[0], 3),
        "lo": rng.integers(-1, 7, size=sizes[0]),
        "hi": rng.integers(0, 8, size=sizes[0]),
    }))
    catalog.add_table(Table("t1", {
        "p": np.sort(rng.integers(0, 6, size=sizes[1])),
        "w": uniform_keys(rng, sizes[1], 4),
    }))
    catalog.add_table(Table("t2", {
        "k": uniform_keys(rng, sizes[2], 3),
        "c": rng.integers(0, 7, size=sizes[2]),
    }))

    def bound(op, other):
        """``t1.p op other``, written either way round."""
        if rng.random() < 0.5:
            return Predicate(ColumnRef("t1", "p"), op, other)
        return Predicate(other, _MIRRORED_OP[op], ColumnRef("t1", "p"))

    lower, upper = (">", ">=")[int(rng.integers(0, 2))], ("<", "<=")[int(rng.integers(0, 2))]
    sides = int(rng.integers(0, 3))  # 0: lower only, 1: upper only, 2: both
    predicates = [column_equals_column("t0", "k", "t2", "k")]
    if sides != 1:
        predicates.append(bound(lower, ColumnRef("t0", "lo")))
    if sides != 0:
        predicates.append(bound(upper, ColumnRef("t0", "hi")))
    if rng.random() < 0.3:
        predicates.append(bound((lower, upper)[int(rng.integers(0, 2))], ColumnRef("t2", "c")))
    if rng.random() < 0.5:
        predicates.append(column_compare_literal("t1", "w", ">", int(rng.integers(0, 3))))
    return catalog, make_query(["t0", "t1", "t2"], predicates=predicates)


def keyed_catalog_and_query(seed: int):
    """A star query whose fact ``f`` references the unique ``id`` of ``d`` and ``e``.

    ``d.id`` and ``e.id`` are shuffled row numbers (``e.id`` as strings half
    of the time, from a dictionary other than ``f.s``'s), so the maps over
    them are unique whichever rows the unary filter on ``d.v`` removes; the
    references miss some ids and hit removed ones.  ``x`` joins ``f`` on
    ``k``, a key with three values: a position whose map repeats keys next
    to the unique ones.
    """
    rng = make_rng(seed)
    catalog = Catalog()
    dims, others, facts = int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 17))
    catalog.add_table(Table("d", {
        "id": rng.permutation(dims),
        "v": uniform_keys(rng, dims, 4),
    }))
    strings = bool(rng.random() < 0.5)

    def ids(values):
        return [f"e{value}" for value in values] if strings else values

    catalog.add_table(Table("e", {"id": ids(rng.permutation(others))}))
    catalog.add_table(Table("f", {
        "r": rng.integers(-1, dims + 2, size=facts),
        "s": ids(rng.integers(-1, others + 2, size=facts)),
        "k": uniform_keys(rng, facts, 3),
    }))
    catalog.add_table(Table("x", {"k": uniform_keys(rng, int(rng.integers(1, 7)), 3)}))
    predicates = [
        column_equals_column("f", "r", "d", "id"),
        column_equals_column("e", "id", "f", "s"),
        column_equals_column("f", "k", "x", "k"),
        column_compare_literal("d", "v", ">", int(rng.integers(0, 3))),
    ]
    return catalog, make_query(["d", "e", "f", "x"], predicates=predicates)


#: hypothesis axes shared by the properties below.
SHAPES = st.sampled_from([2, 3, 4, "wide", "wide", "band", "keyed"])
BATCH_SIZES = st.sampled_from([1, 2, 7, 1024])
#: slice budgets, up to a serving-size one at which steps run wide; ``0``
#: stands for the smallest legal one, ``len(order) + 1``.
BUDGETS = st.sampled_from([0, 3, 17, 100, 2_000])
SEEDS = st.integers(min_value=0, max_value=100_000)


def build_case(seed: int, shape, *, rows: int = 24):
    """``(prepared, order, udfs)`` for one generated query and one of its orders."""
    if shape == "wide":
        catalog, query, udfs = wide_catalog_and_query(seed)
    elif shape == "band":
        catalog, query = band_catalog_and_query(seed)
        udfs = None
    elif shape == "keyed":
        catalog, query = keyed_catalog_and_query(seed)
        udfs = None
    else:
        catalog, query = random_catalog_and_query(seed, num_tables=shape, rows=rows)
        udfs = None
    prepared = preprocess(catalog, query, udfs)
    orders = valid_join_orders(query.join_graph())
    return prepared, orders[seed % len(orders)], udfs


def run_sliced(prepared, order, batch_size, budget, udfs=None, *, offsets=None,
               advance_offsets=False, scalar=lambda slice_index: False,
               fresh_executor=False, after_slice=None):
    """Drive ContinueJoin in budget slices until completion.

    ``scalar(slice_index)`` says which slices run on the scalar reference
    instead of the production (block) executor.  ``fresh_executor`` builds a
    new ``MultiwayJoin`` for every slice, so nothing parked can help: the
    slice starts from the bare index vector, as after a tracker round-trip.
    ``after_slice(state, results, finished, previous)`` runs after each slice.
    """
    join = MultiwayJoin(prepared, udfs, batch_size=batch_size)
    offsets = offsets if offsets is not None else {alias: 0 for alias in prepared.aliases}
    state = initial_state(order, offsets)
    results = JoinResultSet(prepared.aliases)  # keeps the emission order
    meter = CostMeter()
    finished = False
    slices = 0
    previous = tuple(state.indices)
    while not finished:
        if fresh_executor:
            join = MultiwayJoin(prepared, udfs, batch_size=batch_size)
            state = state.copy()
        step = partial(continue_scalar, join) if scalar(slices) else join.continue_join
        finished = step(state, offsets, budget or len(order) + 1, results, meter)
        slices += 1
        assert slices < 200_000, "executor did not terminate"
        current = tuple(state.indices)
        if not finished:
            assert current >= previous, "state went backwards across a suspension"
        if after_slice is not None:
            after_slice(state, results, finished, previous)
        previous = current
        if advance_offsets:
            offsets[order[0]] = max(offsets[order[0]], state.indices[0])
    if not scalar(slices - 1):  # the block executor finished the order itself
        assert parked_frame_sets(join) == 0, "a finished order keeps nothing parked"
    return results, state, meter, slices


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, SHAPES, BATCH_SIZES, BUDGETS)
def test_batched_equals_scalar_results_and_states(seed, shape, batch_size, budget):
    """Property: identical result sets and identical suspend/resume states."""
    prepared, order, udfs = build_case(seed, shape)
    scalar_results, scalar_state, _, _ = run_sliced(prepared, order, 1, budget, udfs,
                                                    scalar=every_slice)
    batched_results, batched_state, _, _ = run_sliced(prepared, order, batch_size, budget, udfs)
    assert set(result_tuples(batched_results)) == set(result_tuples(scalar_results))
    assert batched_state.as_tuple() == scalar_state.as_tuple()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, SHAPES, BATCH_SIZES, BUDGETS)
def test_batches_of_one_match_scalar_reference(seed, shape, batch_size, budget):
    """Any ``batch_size`` — ``1`` is batches of one — against the scalar reference.

    It must produce the same rows in the same emission order, the same final
    state, and the same output charge, and every suspension point of either
    executor must be a valid resumption point of the other (alternating them
    slice by slice changes nothing).

    Scan/predicate charges and the positions of slice boundaries are *not*
    compared: the scalar loop spends one iteration examining the reset index
    on every descent where the block executor starts inside the hash bucket,
    so the two drain a slice budget at different rates (on these generators
    the totals differ for ~3 in 4 inputs, in either direction once resume
    re-descents are counted).
    """
    prepared, order, udfs = build_case(seed, shape)
    assert_matches_scalar(prepared, order, batch_size, budget, udfs)


def assert_matches_scalar(prepared, order, batch_size, budget, udfs=None, offsets=None):
    """Batched, and alternating with the scalar reference, equal the scalar run."""
    reference, reference_state, reference_meter, _ = run_sliced(
        prepared, order, 1, budget, udfs, offsets=offsets, scalar=every_slice)
    emitted = reference.drain_new()
    for label, scalar in (("batched", lambda i: False),
                          ("batched then scalar", lambda i: i % 2 == 1),
                          ("scalar then batched", lambda i: i % 2 == 0)):
        results, state, meter, _ = run_sliced(prepared, order, batch_size, budget, udfs,
                                              offsets=offsets, scalar=scalar)
        assert np.array_equal(results.to_relation().matrix(),
                              reference.to_relation().matrix()), label
        assert np.array_equal(results.drain_new(), emitted), f"{label}: emission order"
        assert state.as_tuple() == reference_state.as_tuple(), label
        assert meter.output_tuples == reference_meter.output_tuples, label


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, SHAPES, BATCH_SIZES, st.sampled_from([0, 4, 23, 111]))
def test_suspended_state_is_self_describing(seed, shape, batch_size, budget):
    """A suspended state resumes correctly from its indices alone.

    Every slice runs on a *fresh* executor, so no parked frames can help:
    the rebuilt frames must land on exactly the candidates the suspended run
    would have examined next.  This is the path the progress tracker
    exercises when another join order ran in between (only the index vector
    survives the tracker round-trip).
    """
    prepared, order, udfs = build_case(seed, shape, rows=20)
    reference, reference_state, _, _ = run_sliced(prepared, order, 1024, 1_000_000, udfs)
    results, state, _, _ = run_sliced(prepared, order, batch_size, budget, udfs,
                                      fresh_executor=True)
    assert np.array_equal(results.drain_new(), reference.drain_new()), \
        "same rows in the same order"
    assert state.as_tuple() == reference_state.as_tuple()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, SHAPES, BATCH_SIZES)
def test_batched_slicing_is_invariant(seed, shape, batch_size):
    """Any slice budget (any suspension pattern) yields the same results."""
    prepared, order, udfs = build_case(seed, shape, rows=20)
    reference, reference_state, _, _ = run_sliced(prepared, order, 1024, 1_000_000, udfs)
    for budget in (0, 5, 31, 256):
        results, state, _, _ = run_sliced(prepared, order, batch_size, budget, udfs)
        assert set(result_tuples(results)) == set(result_tuples(reference)), f"budget {budget}"
        assert state.as_tuple() == reference_state.as_tuple()


# ----------------------------------------------------------------------
# band jumps: where they apply, and where they must not
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, BATCH_SIZES)
def test_band_shape_matches_scalar_at_every_budget(seed, batch_size):
    """Every order of a band query, every budget: batched, scalar and
    alternating executors agree row for row, state for state.

    The scalar reference scans a band position and evaluates every bound per
    candidate, so this checks the band's cut, edges and repeated values
    included, rather than sharing it.
    """
    catalog, query = band_catalog_and_query(seed)
    prepared = preprocess(catalog, query)
    for order in valid_join_orders(query.join_graph()):
        for budget in (0, 3, 17, 100):
            assert_matches_scalar(prepared, order, batch_size, budget)


@pytest.mark.parametrize("seed", range(8))
def test_band_positions_are_cut_to_the_oracle(seed):
    """``t1`` after ``t0`` is a band on ``p``, and the join is exact."""
    catalog, query = band_catalog_and_query(seed)
    prepared = preprocess(catalog, query)
    order = ("t0", "t1", "t2")
    band = MultiwayJoin(prepared).context_for(order).jump_at[1]
    assert isinstance(band, _BandSpec) and band.own_column == "p"
    expected = reference_join_tuples(catalog, query)
    for budget in (0, 3, 100):
        results, _, _, _ = run_sliced(prepared, order, 1024, budget)
        assert set(result_tuples(results)) == expected, budget


# ----------------------------------------------------------------------
# key/foreign-key joins: a unique key's partner rows
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, BATCH_SIZES)
def test_keyed_shape_matches_scalar_at_every_budget_and_offset(seed, batch_size):
    """Every order of a key/foreign-key query, every budget, from zero and
    from drawn offsets: batched, scalar and alternating executors agree row
    for row, state for state; a slice resumed from the bare index vector
    and one resumed from its parked look-ahead give the same rows.

    The scalar reference looks each probe up in the map itself, so this
    checks the partner rows the edge keeps and the cut at the lower bound
    rather than sharing them.
    """
    catalog, query = keyed_catalog_and_query(seed)
    prepared = preprocess(catalog, query)
    assert prepared.join_maps[("d", "id")].unique and prepared.join_maps[("e", "id")].unique
    rng = make_rng(seed)
    drawn = {alias: int(rng.integers(0, prepared.cardinality(alias) + 1))
             for alias in prepared.aliases}
    for order in valid_join_orders(query.join_graph()):
        for offsets in (None, drawn):
            for budget in (0, 3, 17, 100):
                assert_matches_scalar(prepared, order, batch_size, budget, offsets=offsets)
            parked, _, parked_meter, _ = run_sliced(prepared, order, batch_size, 5,
                                                    offsets=offsets)
            fresh, _, fresh_meter, _ = run_sliced(prepared, order, batch_size, 5,
                                                  offsets=offsets, fresh_executor=True)
            assert np.array_equal(fresh.drain_new(), parked.drain_new()), order
            assert fresh_meter.output_tuples == parked_meter.output_tuples


def test_a_unique_key_position_keeps_only_the_prefixes_that_hit():
    """Behind ``f``, ``d`` is reached through its unique ``id``: the frame
    holds the prefixes whose partner survived the filter and the lower
    bound, each with that partner, in prefix order."""
    catalog = Catalog()
    catalog.add_table(Table("d", {"id": [4, 0, 3, 1, 2], "v": [1, 0, 1, 1, 1]}))
    catalog.add_table(Table("f", {"r": [3, 0, 9, 4, 1, 3], "k": [0] * 6}))
    query = make_query(["d", "f"], predicates=[
        column_equals_column("f", "r", "d", "id"), column_compare_literal("d", "v", ">", 0)])
    prepared = preprocess(catalog, query)
    assert prepared.filtered["d"].tolist() == [0, 2, 3, 4]  # id 0 is filtered out
    join = MultiwayJoin(prepared, batch_size=4)
    context = join.context_for(("f", "d"))
    block = np.arange(6, dtype=np.int64)[None, :]
    frame = join._make_frame(context, 1, block, 0)
    assert isinstance(frame.shape, Partners)
    # ids 3, 0, 9, 4, 1, 3 -> filtered d rows 1, -, -, 0, 2, 1
    assert frame.shape.parents.tolist() == [0, 3, 4, 5]
    assert frame.shape.partners.tolist() == [1, 0, 2, 1]
    assert frame.cursor() == (0, 1)
    cut = join._make_frame(context, 1, block, 1)
    assert cut.shape.parents.tolist() == [0, 4, 5] and cut.shape.partners.tolist() == [1, 2, 1]
    parent, candidates = cut.take(2)
    assert parent.tolist() == [0, 4] and candidates.tolist() == [1, 2]
    assert cut.cursor() == (5, 1)
    # The other way round ``f.r`` repeats 3: a bucket frame.
    assert not isinstance(join._make_frame(join.context_for(("d", "f")), 1,
                                           np.arange(4, dtype=np.int64)[None, :], 0).shape,
                          Partners)
    expected = reference_join_tuples(catalog, query)
    for order in (("f", "d"), ("d", "f")):
        for budget in (0, 3, 100):
            results, _, _, _ = run_sliced(prepared, order, 4, budget)
            assert set(result_tuples(results)) == expected, (order, budget)


def _no_band_case(own_values, other_values, op):
    """``t1.x op t0.x`` over the given values: the prepared query, its
    ``(t0, t1)`` order context, and the brute-force result."""
    catalog = Catalog()
    catalog.add_table(Table("t0", {"x": other_values}))
    catalog.add_table(Table("t1", {"x": own_values}))
    query = make_query(["t0", "t1"], predicates=[
        Predicate(ColumnRef("t1", "x"), op, ColumnRef("t0", "x"))])
    prepared = preprocess(catalog, query)
    context = MultiwayJoin(prepared).context_for(("t0", "t1"))
    return prepared, context, reference_join_tuples(catalog, query)


def test_no_band_over_a_column_with_one_descending_pair():
    prepared, context, expected = _no_band_case([0, 1, 1, 3, 2, 4, 4], [1, 3], ">")
    assert not prepared.ascends("t1", "x")
    assert context.jump_at[1] is None
    for budget in (0, 3, 17, 100):
        results, _, _, _ = run_sliced(prepared, ("t0", "t1"), 7, budget)
        assert set(result_tuples(results)) == expected, budget


def test_no_band_over_a_string_column():
    """Dictionary codes number strings as first seen, so ``b, b, c, a`` has
    ascending codes ``0, 0, 1, 2`` while the strings do not ascend: the band
    test is on the column type, not on the physical int64 dtype."""
    prepared, context, expected = _no_band_case(["b", "b", "c", "a"], ["a", "bb"], ">")
    assert prepared.physical_column("t1", "x").dtype == np.int64
    assert prepared.ascends("t1", "x")
    assert context.jump_at[1] is None
    for budget in (0, 3, 17, 100):
        results, _, _, _ = run_sliced(prepared, ("t0", "t1"), 7, budget)
        assert set(result_tuples(results)) == expected, budget


# ----------------------------------------------------------------------
# what the learning loop relies on: lower bound, charges, progress
# ----------------------------------------------------------------------
def position_vector(prepared, order, result_tuple):
    """A result tuple (base rows per alias) as filtered indices in join-order positions."""
    base_rows = dict(zip(prepared.aliases, result_tuple))
    return tuple(
        int(np.searchsorted(prepared.filtered[alias], base_rows[alias])) for alias in order
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, SHAPES, BATCH_SIZES, BUDGETS, st.booleans())
def test_everything_below_a_suspended_state_is_emitted(seed, shape, batch_size, budget,
                                                       fresh_executor):
    """After *any* suspension the state is a lexicographic lower bound.

    Every result combination below ``state.indices`` is already in the
    result set — the invariant prefix sharing, ``advance_offset`` and the
    reward functions are built on.
    """
    prepared, order, udfs = build_case(seed, shape, rows=16)
    complete, _, _, _ = run_sliced(prepared, order, 1024, 1_000_000, udfs)
    by_vector = sorted((position_vector(prepared, order, t), t) for t in result_tuples(complete))

    def lower_bound_holds(state, results, finished, previous):
        bound = tuple(state.indices)
        emitted = set(result_tuples(results))
        for vector, result_tuple in by_vector:
            if not finished and vector >= bound:
                break
            assert result_tuple in emitted, (vector, bound)

    run_sliced(prepared, order, batch_size, budget, udfs, fresh_executor=fresh_executor,
               after_slice=lower_bound_holds)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, SHAPES)
def test_run_to_completion_charges_ignore_batch_size_and_budget(seed, shape):
    """One order run to the end examines the same candidates however it is cut.

    On one executor (every slice resumes from its parked frames) the scan,
    predicate, UDF and output charges are *equal* for every ``batch_size``
    and ``slice_budget``.  Starting every slice from the bare index vector
    can only add to them — the re-descent along the saved indices and the
    look-ahead that was dropped with the frames — and never changes the
    output charge.
    """
    prepared, order, udfs = build_case(seed, shape, rows=20)
    _, _, reference, _ = run_sliced(prepared, order, 1024, 1_000_000, udfs)
    expected = reference.snapshot()
    for batch_size in (1, 2, 7, 1024):
        for budget in (0, 5, 31, 256):
            _, _, meter, _ = run_sliced(prepared, order, batch_size, budget, udfs)
            assert meter.snapshot() == expected, (batch_size, budget)
            _, _, meter, _ = run_sliced(prepared, order, batch_size, budget, udfs,
                                        fresh_executor=True)
            work = meter.snapshot()
            assert work.output_tuples == expected.output_tuples
            assert work.tuples_scanned >= expected.tuples_scanned
            assert work.predicate_evals >= expected.predicate_evals


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, SHAPES, BATCH_SIZES, st.sampled_from([2, 3, 10]), st.booleans())
def test_every_slice_finishes_or_advances(seed, shape, batch_size, factor, fresh_executor):
    """With a budget of at least ``2 * len(order)`` no slice stands still."""
    prepared, order, udfs = build_case(seed, shape)

    def moved(state, results, finished, previous):
        assert finished or tuple(state.indices) > previous

    run_sliced(prepared, order, batch_size, factor * len(order), udfs,
               fresh_executor=fresh_executor, after_slice=moved)


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
    assert set(result_tuples(results)) == expected


def test_batched_with_advancing_offsets_matches_oracle(tiny_catalog, tiny_join_query):
    """Offset advancement (shared progress) never loses or duplicates tuples."""
    expected = reference_join_tuples(tiny_catalog, tiny_join_query)
    prepared = preprocess(tiny_catalog, tiny_join_query)
    for order in valid_join_orders(tiny_join_query.join_graph()):
        results, _, _, _ = run_sliced(prepared, order, 16, 7, advance_offsets=True)
        assert set(result_tuples(results)) == expected, f"order {order}"


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
        assert set(result_tuples(batched)) == set(result_tuples(scalar))
        assert b_state.as_tuple() == s_state.as_tuple()


def test_suspension_parks_frames_under_the_index_vector(tiny_catalog, tiny_join_query):
    """A mid-block suspension parks its frames keyed by the state's index vector.

    (Restated from ``test_suspended_state_records_batch_cursors``: the state
    no longer carries per-position cursors — the order and the index vector
    are the whole key of the parked run — so the test pins that key, that a
    copy of the state resumes from it, and that finishing leaves nothing
    parked.)
    """
    prepared = preprocess(tiny_catalog, tiny_join_query)
    join = MultiwayJoin(prepared, batch_size=4)
    offsets = {alias: 0 for alias in prepared.aliases}
    state = initial_state(("c", "o", "i"), offsets)
    results = JoinResultSet(prepared.aliases)
    meter = CostMeter()
    finished = join.continue_join(state, offsets, 4, results, meter)
    assert not finished
    assert parked_frame_sets(join) == 1
    parked = join._parked[state.order]
    assert parked.snapshot == state.as_tuple()
    copied = state.copy()
    assert copied.indices == state.indices and copied.indices is not state.indices
    scanned = meter.tuples_scanned
    finished = join.continue_join(copied, offsets, 4, results, meter)
    assert meter.tuples_scanned - scanned <= 4, "resumed from the frames, no re-descent"
    assert not finished and join._parked[state.order].frames is parked.frames
    while not finished:
        finished = join.continue_join(copied, offsets, 4, results, meter)
    assert parked_frame_sets(join) == 0
    assert set(result_tuples(results)) == reference_join_tuples(tiny_catalog, tiny_join_query)


def test_skinner_c_engine_identical_across_batch_sizes(
        tiny_catalog, tiny_join_query, monkeypatch):
    """End-to-end: the engine returns the same relation for any batch size."""
    reference = None
    for batch_size in (1, 2, 64, 1024):
        monkeypatch.setattr(skinner_c, "BATCH_SIZE", batch_size)
        engine = SkinnerC(tiny_catalog, config=SkinnerConfig(slice_budget=32))
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


# ----------------------------------------------------------------------
# fences: counts, not wall time
# ----------------------------------------------------------------------
def test_vector_width_fence(monkeypatch):
    """Candidates examined per kernel step stay wide on a learning run.

    Every step of the executor — one vectorized lookup, filter and push or
    emit — passes through ``_filter_batch`` once.  On the key/foreign-key
    joins of the JOB analogue the per-parent-tuple loop this executor
    replaced managed 7.7 candidates per step at this scale and 1.1 at the
    benchmark's; blocks of prefixes manage ~32.  A later change cannot
    quietly fall back to one bucket per step.
    """
    workload = make_job_workload(0.3, 29)
    steps = 0
    filter_batch = MultiwayJoin._filter_batch

    def counted(self, *args):
        nonlocal steps
        steps += 1
        return filter_batch(self, *args)

    monkeypatch.setattr(MultiwayJoin, "_filter_batch", counted)
    engine = SkinnerC(workload.catalog, config=SkinnerConfig())
    examined = 0
    for entry in workload.queries:
        task = engine.task(entry.query)
        while not task.finished:
            task.run_episode()
        examined += task.join_meter.tuples_scanned
    assert examined / steps >= 16, (examined, steps)


def test_parked_look_ahead_is_bounded():
    """Alternating among many orders never parks more than a constant."""
    workload = make_job_workload(0.3, 29)
    query = max((entry.query for entry in workload.queries), key=lambda q: q.num_tables)
    orders = valid_join_orders(query.join_graph())
    assert len(orders) > 64
    prepared = preprocess(workload.catalog, query)
    join = MultiwayJoin(prepared, batch_size=1024)
    offsets = {alias: 0 for alias in prepared.aliases}
    states = {}
    results = JoinResultSet(prepared.aliases)
    meter = CostMeter()
    suspended = 0
    for turn in range(200):
        order = orders[(turn * 7) % len(orders)]
        state = states.setdefault(order, initial_state(order, offsets))
        if not join.continue_join(state, offsets, 12, results, meter):
            suspended += 1
        assert parked_frame_sets(join) <= 32
    assert suspended > 64, "the orders were suspended, not finished"
