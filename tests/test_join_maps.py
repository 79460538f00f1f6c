"""Tests for the grouped-runs join maps of the Skinner preprocessor.

``GroupedJoinMap`` replaced the eager ``{decoded value: rows}`` dict with
the hash-join kernel's grouped-runs form plus a binary-search lookup.  The
lookup (``bounds`` of ``slots``, here of one decoded value at a time through
:func:`lookup`) must preserve the dict's semantics *exactly*:

* buckets are ascending filtered indices (stable grouping sort);
* float NaN keys and NaN probes never match (pinned join semantics);
* cross-type probes follow Python ``==``: ``1`` finds ``1.0`` and vice
  versa, but only under *exact* conversion (``2**53 + 1`` never finds
  ``2.0**53``), and string-vs-numeric probes match nothing.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.meter import CostMeter
from repro.query.predicates import column_equals_column
from repro.skinner.preprocessor import preprocess
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from tests.conftest import lookup
from benchmarks.paper.queries import make_query
from tests.oracles.join_map import buckets


def _map_for(column_values, column_name="c"):
    table = Table("t", {column_name: column_values})
    positions = np.arange(table.num_rows, dtype=np.int64)
    return GroupedJoinMap(table.column(column_name), positions)


class TestIntKeys:
    def test_buckets_are_ascending_filtered_indices(self):
        jmap = _map_for([5, 1, 5, 3, 5])
        assert list(lookup(jmap, 5)) == [0, 2, 4]
        assert list(lookup(jmap, 1)) == [1]
        assert lookup(jmap, 2) is None

    def test_float_probe_matches_only_exact_integrals(self):
        jmap = _map_for([5, 1, 3])
        assert list(lookup(jmap, 5.0)) == [0]
        assert lookup(jmap, 5.5) is None
        assert lookup(jmap, float("inf")) is None
        assert lookup(jmap, float("nan")) is None

    def test_bool_probe_behaves_like_int(self):
        jmap = _map_for([0, 1, 2])
        assert list(lookup(jmap, True)) == [1]
        assert list(lookup(jmap, False)) == [0]

    def test_out_of_range_and_string_probes_match_nothing(self):
        jmap = _map_for([5, 1, 3])
        assert lookup(jmap, float(2**64)) is None
        assert lookup(jmap, "5") is None


class TestFloatKeys:
    def test_nan_keys_never_match_any_probe(self):
        nan = float("nan")
        jmap = _map_for([1.0, nan, 2.5, nan])
        assert list(lookup(jmap, 1.0)) == [0]
        assert list(lookup(jmap, 2.5)) == [2]
        assert lookup(jmap, nan) is None
        assert lookup(jmap, float("nan")) is None

    def test_int_probe_requires_exact_float_conversion(self):
        jmap = _map_for([float(2**53), 1.0])
        assert list(lookup(jmap, 2**53)) == [0]
        # float(2**53 + 1) rounds to 2.0**53; the dict path would not have
        # found a key equal to 2**53 + 1, so neither may this lookup.
        assert lookup(jmap, 2**53 + 1) is None
        assert list(lookup(jmap, 1)) == [1]


class TestStringKeys:
    def test_dictionary_codes_and_absent_values(self):
        jmap = _map_for(["b", "a", "b", "c"])
        assert list(lookup(jmap, "b")) == [0, 2]
        assert list(lookup(jmap, "c")) == [3]
        assert lookup(jmap, "z") is None
        assert lookup(jmap, 1) is None  # numeric vs string: Python == is False


class TestMemoAndEmpty:
    def test_empty_positions(self):
        table = Table("t", {"c": [1, 2, 3]})
        jmap = GroupedJoinMap(table.column("c"), np.empty(0, dtype=np.int64))
        assert buckets(jmap) == 0
        assert lookup(jmap, 1) is None

    def test_a_lookup_remembers_nothing(self):
        """A map the statement cache keeps must not grow with its probes."""
        catalog = Catalog()
        catalog.add_table(Table("r", {"k": list(range(100))}))
        catalog.add_table(Table("s", {"k": list(range(100))}))
        query = make_query(["r", "s"], predicates=[column_equals_column("r", "k", "s", "k")])
        jmap = preprocess(catalog, query).join_maps[("r", "k")]
        assert preprocess(catalog, query).join_maps[("r", "k")] is jmap  # the cached map
        probes = list(range(-5_000, 5_000))
        for value in probes[:100]:  # warm whatever the first calls allocate once
            lookup(jmap, value)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for value in probes:
                lookup(jmap, value)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 4096
        assert list(lookup(jmap, 7)) == [7]
        assert lookup(jmap, 7.5) is None

    @pytest.mark.parametrize("keys, probes", [
        ([1.0, float("nan"), 2.0**53, 3.0], [float("nan"), 2**53 + 1, 2**53, 1, 3]),
        ([2**53 + 1, 2**53, 1], [2.0**53, float("nan"), 1.0, 2**53 + 1]),
        (["b", "a", "c", "a"], ["a", "zz", "c", "", "b"]),
    ])
    def test_get_agrees_with_lookup_many(self, keys, probes):
        """A value probed on its own, as the eddy probes, finds what the
        batched probe of the whole column finds for it."""
        jmap = _map_for(keys)
        source = Table("p", {"c": probes}).column("c")
        starts, counts = jmap.bounds(jmap.slots(source.data, source))
        for value, start, count in zip(source.decoded_data.tolist(), starts, counts):
            found = lookup(jmap, value)
            expected = [] if found is None else found.tolist()
            assert jmap.rows[start:start + count].tolist() == expected, value


# ----------------------------------------------------------------------
# the many-probe lookup of the prefix-block join
# ----------------------------------------------------------------------
_EDGE_INTS = [0, 1, -1, 5, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]
_EDGE_FLOATS = [
    0.0, -0.0, 1.0, 5.0, 5.5, float(2**53), float(2**53) + 2.0, 2.0**63, -(2.0**63),
    float("nan"), float("inf"), float("-inf"),
]
_ints = st.lists(st.one_of(
    st.sampled_from(_EDGE_INTS),
    st.integers(-6, 6),
    st.integers(-6, 6).map(lambda value: value * 10**6),  # sparse: binary-searched
), max_size=12)
_floats = st.lists(
    st.one_of(st.sampled_from(_EDGE_FLOATS), st.integers(-6, 6).map(float)), max_size=12
)
_strings = st.lists(st.sampled_from(["a", "b", "c", "d", "", "zz"]), max_size=12)
_column_values = st.one_of(_ints, _floats, _strings)


@settings(max_examples=300, deadline=None)
@given(_column_values, _column_values, st.data())
@example(_EDGE_FLOATS, _EDGE_INTS, None)
@example(_EDGE_INTS, _EDGE_FLOATS, None)
@example(["a", "b", "b", ""], ["b", "zz", "a"], None)
def test_lookup_many_equals_python_equality(key_values, probe_values, data):
    """``bounds(slots(values))`` holds, per probe, the indexed rows whose key
    equals its decoded value under Python ``==`` (what a ``{value: rows}``
    dict finds), in bucket-bounds form.

    Key and probe columns are drawn independently, so the pairs cover int
    keys probed by floats and the reverse (NaN, the infinities, values on
    both sides of 2**53 and at the int64 edges), string columns with
    *different* dictionaries, string against numeric, absent keys, an empty
    map and an empty probe vector; a random subset of the key rows is
    indexed (the filtered positions), and ``lower`` cuts each bucket.
    """
    keys = Table("k", {"c": key_values}) if key_values else None
    probes = Table("p", {"c": probe_values}) if probe_values else None
    if keys is None or probes is None:
        # An empty list has no inferable type: pair it with an int column.
        keys = keys or Table("k", {"c": np.empty(0, dtype=np.int64)})
        probes = probes or Table("p", {"c": np.empty(0, dtype=np.int64)})
    if data is None:  # the pinned examples: every row indexed
        positions, lower = np.arange(keys.num_rows, dtype=np.int64), 2
    else:
        positions = np.asarray(
            sorted(data.draw(st.sets(st.integers(0, max(0, keys.num_rows - 1)))
                             if keys.num_rows else st.just(set()))),
            dtype=np.int64,
        )
        lower = data.draw(st.integers(0, max(1, positions.shape[0])))
    jmap = GroupedJoinMap(keys.column("c"), positions)
    source = probes.column("c")
    indexed = keys.column("c").decoded_data[positions].tolist()
    for bound in (0, lower):
        starts, counts = jmap.bounds(jmap.slots(source.data, source), bound)
        assert starts.shape == counts.shape == source.data.shape
        for value, start, count in zip(source.decoded_data.tolist(), starts, counts):
            expected = np.array([row for row, key in enumerate(indexed) if key == value],
                                dtype=np.int64)
            expected = expected[expected >= bound]
            assert jmap.rows[start:start + count].tolist() == expected.tolist(), (
                value, bound)


def test_preprocessor_builds_grouped_maps_and_charges_scan():
    catalog = Catalog()
    catalog.add_table(Table("r", {"k": [1, 2, 2, 3]}))
    catalog.add_table(Table("s", {"k": [2, 3, 3]}))
    query = make_query(["r", "s"], predicates=[column_equals_column("r", "k", "s", "k")])
    meter = CostMeter()
    prepared = preprocess(catalog, query, None, meter)
    assert set(prepared.join_maps) == {("r", "k"), ("s", "k")}
    assert isinstance(prepared.join_maps[("r", "k")], GroupedJoinMap)
    assert list(lookup(prepared.join_maps[("r", "k")], 2)) == [1, 2]
    assert list(lookup(prepared.join_maps[("s", "k")], 3)) == [1, 2]
    # Build work is charged as scan: filtering (4 + 3) + map build (4 + 3).
    assert meter.tuples_scanned == 14
