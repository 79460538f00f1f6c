"""Property tests of the array-backed :class:`JoinResultSet`.

The oracle is what the result set used to be: a Python ``set`` of tuples
plus a journal list of first occurrences, kept here in the test file.  Every
operation is applied to both and every observation must agree — membership,
``len``, the number each call reports as new, discovery order through
``drain_new``, lexicographic order through ``to_matrix``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skinner.result_set import JoinResultSet


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
            assert results.add(argument) == bool(oracle.add_all([argument]))
        elif name == "add_many":
            assert results.add_many(iter(argument)) == oracle.add_all(argument)
        elif name == "add_batch":
            matrix = np.array(argument, dtype=np.int64).reshape(-1, width)
            assert results.add_batch(matrix) == oracle.add_all(argument)
        else:
            assert _as_tuples(results.drain_new()) == oracle.drain()
        assert len(results) == len(oracle.seen)
    assert _as_tuples(results.to_matrix()) == sorted(oracle.seen)
    assert results.tuples() == oracle.journal  # discovery order, never drained
    assert _as_tuples(results.drain_new()) == oracle.drain()
    assert results.drain_new().shape == (0, width)
    for probe in oracle.journal[:5] + [tuple([2] * width), tuple([7] * width)]:
        assert (probe in results) == (probe in oracle.seen)
    assert results.estimated_bytes() == 8 * width * len(oracle.seen)
    assert [tuple(row) for row in results.to_relation().index_tuples()] == sorted(oracle.seen)


def test_row_count_product_beyond_int64_still_sorts_like_tuples():
    """Eight aliases over tables of 2^40 rows: no single int64 sort key."""
    rng = np.random.default_rng(5)
    matrix = rng.integers(0, 2**40, size=(400, 8), dtype=np.int64)
    matrix[:, :3] = matrix[:, :3] % 2  # long runs of equal leading columns
    results = JoinResultSet(tuple("abcdefgh"))
    assert results.add_batch(matrix) == len({tuple(row) for row in matrix.tolist()})
    assert _as_tuples(results.to_matrix()) == sorted({tuple(r) for r in matrix.tolist()})


def test_a_batch_that_is_all_new_is_adopted_not_copied():
    results = JoinResultSet(("a", "b"))
    first = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert results.add_batch(first) == 2
    assert results.drain_new() is first
    # A batch with a repeat (here: across batches) is filtered into a new block.
    second = np.array([[3, 4], [5, 6], [5, 6]], dtype=np.int64)
    assert results.add_batch(second) == 1
    assert _as_tuples(results.drain_new()) == [(5, 6)]


def test_wrong_shape_is_refused():
    results = JoinResultSet(("a", "b"))
    for bad in (np.zeros((2, 3), dtype=np.int64), np.zeros(4, dtype=np.int64)):
        with pytest.raises(ValueError, match="batch shape"):
            results.add_batch(bad)
    assert len(results) == 0 and (0, 0) not in results
