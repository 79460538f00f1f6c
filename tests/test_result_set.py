"""Property tests of the array-backed :class:`JoinResultSet`.

The oracle is what the result set used to be: a Python ``set`` of tuples
plus a journal list of first occurrences, kept here in the test file.  Every
operation is applied to both and every observation must agree — membership,
``len``, the number each call reports as new, discovery order through
``drain_new``, lexicographic order through ``to_matrix``.

The result set itself keeps no set: blocks that carry a *source* promise not
to repeat each other, and are compared with anything only once a second
source has emitted.  The promise is tested where it is made (one join order,
run slice by slice, never emits a tuple twice) and so is what rests on it
(interleaved sources against the oracle; no comparison at all for one).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.meter import CostMeter
from repro.skinner.multiway_join import MultiwayJoin
from repro.skinner.preprocessor import preprocess
from repro.skinner.progress import ProgressTracker
from repro.skinner.result_set import JoinResultSet
from tests.conftest import add_rows, index_tuples, reference_join_tuples, result_tuples
from tests.test_properties import catalog_and_query
from tests.oracles.join_orders import valid_join_orders


class TupleSetOracle:
    """The set-of-tuples result store: dedup set + insertion journal."""

    def __init__(self) -> None:
        self.seen: set[tuple[int, ...]] = set()
        self.journal: list[tuple[int, ...]] = []
        self.drained = 0

    def add_all(self, tuples) -> int:
        added = 0
        for key in tuples:
            if key not in self.seen:
                self.seen.add(key)
                self.journal.append(key)
                added += 1
        return added

    def drain(self) -> list[tuple[int, ...]]:
        fresh = self.journal[self.drained:]
        self.drained = len(self.journal)
        return fresh


def _as_tuples(matrix: np.ndarray) -> list[tuple[int, ...]]:
    assert matrix.dtype == np.int64 and matrix.ndim == 2
    return [tuple(row) for row in matrix.tolist()]


@st.composite
def _scripts(draw):
    """A width, a value range, and a list of operations over small tuples.

    The range is chosen per example: tiny (repeats inside and across
    batches are the norm) or the whole of int64 (the product of the ranges
    is far beyond 2^63, so the sort keys cannot be packed into one).
    """
    width = draw(st.integers(1, 4))
    values = draw(st.sampled_from([
        st.integers(0, 3),
        st.integers(0, 50),
        st.integers(-(2**63), 2**63 - 1),
    ]))
    row = st.tuples(*[values] * width)
    batch = st.lists(row, max_size=12)
    operation = st.one_of(
        st.tuples(st.just("add"), row),
        st.tuples(st.just("add_many"), batch),
        st.tuples(st.just("add_batch"), batch),
        st.tuples(st.just("drain"), st.none()),
    )
    return width, draw(st.lists(operation, max_size=25))


@settings(max_examples=150, deadline=None)
@given(_scripts())
def test_result_set_matches_the_set_of_tuples_oracle(script):
    width, operations = script
    results = JoinResultSet(tuple(f"t{i}" for i in range(width)))
    oracle = TupleSetOracle()
    for name, argument in operations:
        if name == "add":
            assert add_rows(results, [argument]) == oracle.add_all([argument])
        elif name == "add_many":
            assert add_rows(results, iter(argument)) == oracle.add_all(argument)
        elif name == "add_batch":
            matrix = np.array(argument, dtype=np.int64).reshape(-1, width)
            assert add_rows(results, matrix) == oracle.add_all(argument)
        else:
            assert _as_tuples(results.drain_new()) == oracle.drain()
        assert len(results) == len(oracle.seen)
    assert _as_tuples(results.to_matrix()) == sorted(oracle.seen)
    assert result_tuples(results) == oracle.journal  # discovery order, never drained
    assert _as_tuples(results.drain_new()) == oracle.drain()
    assert results.drain_new().shape == (0, width)
    for probe in oracle.journal[:5] + [tuple([2] * width), tuple([7] * width)]:
        assert (probe in result_tuples(results)) == (probe in oracle.seen)
    assert results.estimated_bytes() == 8 * width * len(oracle.seen)
    assert [tuple(row) for row in index_tuples(results.to_relation())] == sorted(oracle.seen)


def test_row_count_product_beyond_int64_still_sorts_like_tuples():
    """Eight aliases over tables of 2^40 rows: no single int64 sort key."""
    rng = np.random.default_rng(5)
    matrix = rng.integers(0, 2**40, size=(400, 8), dtype=np.int64)
    matrix[:, :3] = matrix[:, :3] % 2  # long runs of equal leading columns
    results = JoinResultSet(tuple("abcdefgh"))
    assert add_rows(results, matrix) == len({tuple(row) for row in matrix.tolist()})
    assert _as_tuples(results.to_matrix()) == sorted({tuple(r) for r in matrix.tolist()})


def test_a_batch_that_is_all_new_is_adopted_not_copied():
    results = JoinResultSet(("a", "b"))
    first = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert add_rows(results, first) == 2
    assert results.drain_new() is first
    # A batch with a repeat (here: across batches) is filtered into a new block.
    second = np.array([[3, 4], [5, 6], [5, 6]], dtype=np.int64)
    assert add_rows(results, second) == 1
    assert _as_tuples(results.drain_new()) == [(5, 6)]


def test_wrong_shape_is_refused():
    results = JoinResultSet(("a", "b"))
    for bad in (np.zeros((2, 3), dtype=np.int64), np.zeros(4, dtype=np.int64)):
        with pytest.raises(ValueError, match="batch shape"):
            results.emit(bad, None)
    assert len(results) == 0 and (0, 0) not in result_tuples(results)


# ----------------------------------------------------------------------
# sources: the promise, and what rests on it
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(catalog_and_query(max_tables=4, max_rows=9), st.data(),
       st.sampled_from([1, 2, 3, 7, 40]), st.sampled_from([1, 4, 64]), st.booleans())
def test_one_order_run_slice_by_slice_never_emits_a_tuple_twice(
        bundle, data, budget, batch_size, join_maps):
    """The way ``SkinnerCTask`` drives an order: restored from the tracker,
    offsets advancing, resumed from the parked frames or — when they are
    dropped — re-descended from the index vector."""
    catalog, query = bundle
    prepared = preprocess(catalog, query, build_hash_maps=join_maps)
    orders = valid_join_orders(query.join_graph())
    order = orders[data.draw(st.integers(0, len(orders) - 1))]
    cardinalities = prepared.cardinalities()
    join = MultiwayJoin(prepared, batch_size=batch_size)
    tracker = ProgressTracker(prepared.aliases)
    results = JoinResultSet(prepared.aliases)
    meter = CostMeter()
    finished = prepared.is_empty()
    slices = 0
    while not finished:
        if data.draw(st.booleans()):
            join._parked.clear()  # forget the look-ahead: re-descend
        state = tracker.restore(order, cardinalities)
        finished = join.continue_join(state, tracker.offsets, budget, results, meter)
        tracker.backup(state)
        tracker.advance_offset(order[0], state.indices[0])
        finished = finished or tracker.offsets[order[0]] >= cardinalities[order[0]]
        slices += 1
        assert slices < 5_000
    emitted = result_tuples(results)
    assert len(emitted) == len(set(emitted)) == len(results)
    assert set(emitted) == reference_join_tuples(catalog, query)
    results.to_matrix()
    results.drain_new()
    assert results.distinctness_passes == 0  # one source: nothing was compared


@st.composite
def _interleavings(draw):
    """Rows of a small universe handed out by several sources.

    A source's blocks never repeat a row (that is its promise); different
    sources overlap freely, and untagged batches repeat anything, themselves
    included.  Values are tiny, or spread over 2^40-row ranges so that no
    int64 key holds a row and the byte-key fallback runs.
    """
    width = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1, 2**40]))
    value = st.integers(0, 3).map(lambda v: v * scale + v)
    universe = draw(st.lists(st.tuples(*[value] * width), unique=True, min_size=1, max_size=24))
    sources = []
    for _ in range(draw(st.integers(2, 4))):
        rows = draw(st.permutations(universe))[: draw(st.integers(0, len(universe)))]
        cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
        sources.append([rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)]) if b > a])
    steps = draw(st.lists(st.integers(0, len(sources) + 2), max_size=30))
    loose = st.lists(st.sampled_from(universe), max_size=8)
    return width, sources, [(step, draw(loose) if step == len(sources) else None,
                             draw(st.booleans())) for step in steps]


@settings(max_examples=200, deadline=None)
@given(_interleavings())
def test_interleaved_sources_match_the_set_of_tuples_oracle(script):
    width, sources, steps = script
    results = JoinResultSet(tuple(f"t{i}" for i in range(width)))
    oracle = TupleSetOracle()
    used = set()
    for step, loose, look in steps:
        if step < len(sources):
            if not sources[step]:
                continue
            block = sources[step].pop(0)
            results.emit(np.array(block, dtype=np.int64).reshape(-1, width), step)
            oracle.add_all(block)
            used.add(step)
        elif step == len(sources):  # an untagged batch, internal repeats and all
            matrix = np.array(loose, dtype=np.int64).reshape(-1, width)
            assert add_rows(results, matrix) == oracle.add_all(loose)
            used.add(None)
        elif step == len(sources) + 1:
            assert _as_tuples(results.drain_new()) == oracle.drain()
        if look:
            assert len(results) == len(oracle.seen)
    assert result_tuples(results) == oracle.journal
    assert _as_tuples(results.to_matrix()) == sorted(oracle.seen)
    assert _as_tuples(results.drain_new()) == oracle.drain()
    assert len(results) == len(oracle.seen)
    if len(used) < 2 and None not in used:
        assert results.distinctness_passes == 0


def test_rows_are_compared_only_once_a_second_source_has_emitted():
    results = JoinResultSet(("a", "b"))
    first = np.array([[1, 2], [3, 4]], dtype=np.int64)
    results.emit(first, "x")
    results.emit(np.array([[5, 6]], dtype=np.int64), "x")
    assert len(results) == 3 and results.drain_new().shape == (3, 2)
    assert results.distinctness_passes == 0
    results.emit(np.array([[3, 4], [7, 8]], dtype=np.int64), "y")
    assert results.distinctness_passes == 0  # nobody has looked yet
    assert _as_tuples(results.drain_new()) == [(7, 8)]
    assert results.distinctness_passes == 1
    results.emit(np.array([[9, 9]], dtype=np.int64), "y")
    assert len(results) == 5 and results.distinctness_passes == 2
    assert len(results) == 5 and results.distinctness_passes == 2  # nothing new to look at
