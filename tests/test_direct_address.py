"""Dense int keys are found by direct address and find what binary search finds.

:func:`~repro.engine.joinkernels._find` answers an int64 probe of keys whose
span is at most ``DENSITY`` slots per key from the direct-address table
built when the keys were grouped, and binary-searches any other keys.
:meth:`~repro.engine.joinkernels.GroupedJoinMap.slots`,
:meth:`~repro.engine.joinkernels.GroupedJoinMap.edge` and
:meth:`~repro.engine.joinkernels.CompositeKeySpace.probe_codes` must equal
the plain binary search of ``tests/oracles/join_map.py`` on dense and sparse
keys, spans at the density limit and one past it, probes at the int64 ends
(where ``probe - low`` would leave int64), float probes of int keys, string
codes of two dictionaries, composite keys that re-compress, and ``suffix``
views.  The pins below show a silent fallback to the search.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine.joinkernels import DENSITY, GroupedJoinMap, encode_composite_keys
from repro.storage.column import Column
from tests.oracles import edge_reference, probe_codes_reference, slots_reference

LOWEST, HIGHEST = -(2**63), 2**63 - 1
BIG = 2**53
NAN, INF = float("nan"), float("inf")

#: Float probes of int keys: exact integrals find their key, the rest nothing
#: (``float(2**53 + 1)`` is ``2.0**53``; ``2.0**63`` is outside int64).
FLOAT_EDGES = [float(BIG), float(BIG + 1), NAN, INF, -INF, 2.0**63, -(2.0**63), 0.5, -0.0]
STRINGS = ["a", "b", "c", "d", "", "zz", "q"]


def _limit(count: int) -> int:
    """The widest span that still gets a direct-address table."""
    return DENSITY * (count + DENSITY)


@st.composite
def int_keys(draw) -> list[int]:
    """Sorted distinct int64 keys: dense, sparse, at the density limit or one
    past it, negative, and reaching (or one short of) either end of int64."""
    count = draw(st.integers(1, 24))
    limit = _limit(count)
    span = 1 if count == 1 else draw(st.sampled_from(
        [count, count + 5, limit, limit + 1, 10**6 * count, 2**40]))
    low = draw(st.sampled_from(
        [0, -3, -limit - 7, 10**12, LOWEST, LOWEST + 1, HIGHEST - span + 1, HIGHEST - span]))
    inner = draw(st.sets(st.integers(1, span - 2), min_size=count - 2, max_size=count - 2)
                 if count > 2 else st.just(set()))
    return sorted({low, low + span - 1} | {low + offset for offset in inner})


@st.composite
def int_probes(draw, keys: list[int]) -> list:
    """Keys, their neighbours, the int64 ends and arbitrary int64 values; or
    the float edges and the keys as floats."""
    near = [key + step for key in keys for step in (-1, 0, 1) if LOWEST <= key + step <= HIGHEST]
    ints = st.one_of(st.sampled_from(near + [LOWEST, HIGHEST, LOWEST + 1, HIGHEST - 1, 0]),
                     st.integers(LOWEST, HIGHEST))
    if draw(st.booleans()):
        return draw(st.lists(ints, max_size=16))
    floats = st.sampled_from(FLOAT_EDGES + [float(key) for key in keys])
    return draw(st.lists(floats, min_size=1, max_size=16))


@st.composite
def single_cases(draw):
    """``(build column, indexed positions, probe column, suffix bound)``."""
    if draw(st.booleans()):
        keys = draw(int_keys())
        probes = draw(int_probes(keys))
    else:  # strings: the two sides have their own dictionaries
        keys = draw(st.lists(st.sampled_from(STRINGS), min_size=1, max_size=12))
        probes = draw(st.lists(st.sampled_from(STRINGS[::-1]), max_size=12))
    values = draw(st.permutations(keys + draw(st.lists(st.sampled_from(keys), max_size=6))))
    positions, cut = _indexed(draw, len(values))
    return Column(values), positions, Column(probes or np.empty(0, np.int64)), cut


def _indexed(draw, rows: int) -> tuple[np.ndarray, int]:
    """All rows or a subset of them, and a suffix bound."""
    chosen = draw(st.one_of(st.just([True] * rows),
                            st.lists(st.booleans(), min_size=rows, max_size=rows)))
    positions = np.flatnonzero(np.array(chosen, dtype=bool)).astype(np.int64)
    return positions, draw(st.integers(0, positions.shape[0] + 1))


def _assert_equals_search(grouped: GroupedJoinMap, values, source, cut: int) -> None:
    view = grouped.suffix(cut)
    assert view._table is grouped._table
    for join_map in (grouped, view):
        assert join_map.slots(values, source).tolist() == \
            slots_reference(join_map, values, source).tolist()
        assert join_map.edge(values, source).tolist() == \
            edge_reference(join_map, values, source).tolist()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(single_cases())
@example((Column([LOWEST + 1, LOWEST + 2, LOWEST + 4]), np.arange(3, dtype=np.int64),
          Column([LOWEST, HIGHEST, LOWEST + 4, LOWEST + 3]), 1))
@example((Column([HIGHEST - 3, HIGHEST - 1]), np.arange(2, dtype=np.int64),
          Column([HIGHEST, LOWEST, HIGHEST - 1, 0]), 0))
@example((Column([-5, -1, 3]), np.arange(3, dtype=np.int64),
          Column([float(BIG + 1), NAN, INF, -INF, -5.0, 3.0]), 2))
def test_slots_and_edge_equal_binary_search(case):
    build, positions, probe, cut = case
    grouped = GroupedJoinMap(build, positions)
    _assert_equals_search(grouped, probe.data, probe, cut)


@st.composite
def composite_cases(draw):
    """``(build columns, positions, probe columns, suffix bound)``.  Sixteen
    columns of many distinct ints force the span guard to re-compress; half
    the probe rows copy a build row, so that whole codes meet."""
    width = draw(st.sampled_from([2, 3, 16]))
    wide = width == 16
    rows = draw(st.integers(20, 30) if wide else st.integers(1, 30))
    ints = st.integers(-1000, 1000) if wide else st.integers(-40, 40)
    kinds = ["int"] * width if wide else [draw(st.sampled_from(["int", "string"]))
                                          for _ in range(width)]
    build = [[draw(ints) if kind == "int" else draw(st.sampled_from(STRINGS))
              for _ in range(rows)] for kind in kinds]
    others = {"int": st.one_of(ints, st.sampled_from([LOWEST, HIGHEST])),
              "float": st.one_of(ints.map(float), st.sampled_from(FLOAT_EDGES)),
              "string": st.sampled_from(STRINGS[::-1])}
    sides = [draw(st.sampled_from(["int", "float"])) if kind == "int" else kind
             for kind in kinds]
    probe_rows = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            row = draw(st.integers(0, rows - 1))
            probe_rows.append([values[row] for values in build])
        else:
            probe_rows.append([draw(others[side]) for side in sides])
    probes = []
    for index, side in enumerate(sides):
        values = [row[index] for row in probe_rows]
        if side == "float":
            values = [float(value) for value in values]
        probes.append(Column(values or np.empty(0, np.int64)))
    positions, cut = _indexed(draw, rows)
    return [Column(values) for values in build], positions, probes, cut


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(composite_cases())
def test_composite_probe_codes_equal_binary_search(case):
    build, positions, probes, cut = case
    values = [column.data for column in probes]
    space, _ = encode_composite_keys(build, positions)
    codes, valid = space.probe_codes(values, probes)
    ref_codes, ref_valid = probe_codes_reference(space, values, probes)
    assert valid.tolist() == ref_valid.tolist()
    assert codes[valid].tolist() == ref_codes[valid].tolist()
    _assert_equals_search(GroupedJoinMap(build, positions), values, probes, cut)


def test_re_compressed_composite_codes_equal_binary_search():
    """Sixteen copies of a 40-value column: the span guard fires, and both the
    re-compressed partial codes and the per-column domains are looked up."""
    build = Column(list(range(40)))
    probe = Column(list(range(-5, 45)) + [LOWEST, HIGHEST])
    space, codes = encode_composite_keys([build] * 16, np.arange(40, dtype=np.int64))
    assert space.dense and all(table is not None for table in space.tables)
    values = [probe.data] * 16
    found, valid = space.probe_codes(values, [probe] * 16)
    ref_codes, ref_valid = probe_codes_reference(space, values, [probe] * 16)
    assert valid.tolist() == ref_valid.tolist() == [0 <= v < 40 for v in probe.data.tolist()]
    assert found[valid].tolist() == ref_codes[valid].tolist() == codes.tolist()


# ----------------------------------------------------------------------
# pins: which keys get a table, and who shares it
# ----------------------------------------------------------------------
def _map(values) -> GroupedJoinMap:
    column = Column(values)
    return GroupedJoinMap(column, np.arange(len(column), dtype=np.int64))


def test_dense_int_and_string_maps_use_a_table():
    assert _map([5, 1, 3, 5])._table is not None
    assert _map([-7, -3, -5])._table is not None
    assert _map(["b", "a", "c"])._table is not None  # dictionary codes are dense ints


def test_float_and_sparse_int_maps_are_searched():
    assert _map([1.0, 2.0, 3.0])._table is None
    assert _map([0, 10**6, 2 * 10**6])._table is None
    assert _map([LOWEST, LOWEST + 1])._table is None  # no neighbour below int64
    assert _map([HIGHEST - 1, HIGHEST])._table is None
    assert _map(np.empty(0, dtype=np.int64))._table is None


def test_the_density_limit_is_inclusive():
    for count in (2, 9, 100):
        limit = _limit(count)
        for span, tabled in ((limit, True), (limit + 1, False)):
            keys = np.unique(np.r_[np.arange(count - 1), span - 1] - 17)
            assert keys.shape[0] == count
            join_map = _map(keys)
            assert (join_map._table is not None) == tabled, (count, span)
            assert join_map.slots(keys, Column(keys)).tolist() == list(range(count))


def test_a_suffix_view_shares_its_grouped_maps_table():
    grouped = _map([4, 2, 4, 3, 2])
    view = grouped.suffix(2)
    assert view is not grouped and view._table is grouped._table
    assert grouped.suffix(3)._table is grouped._table


def test_nbytes_counts_the_table():
    dense, sparse = _map([4, 2, 4, 3]), _map([4, 2 * 10**6, 4, 3])
    assert dense.nbytes == sparse.nbytes + dense._table.nbytes
