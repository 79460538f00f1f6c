"""Skinner-C's hash jump looks each edge up once; a result is sorted only when read.

* :meth:`~repro.engine.joinkernels.GroupedJoinMap.bounds` of
  :meth:`~repro.engine.joinkernels.GroupedJoinMap.slots` finds what the
  one-step lookup with a per-probe rank search found
  (``tests/oracles/join_map.py``), and again on a repeated call;
* a hash-jump edge holds one entry per filtered probing row: the partner row
  where the map's key is unique, the bucket number otherwise.  It is built
  once per pre-processed statement and lives there only, cached, restricted
  or UDF-filtered alike: a kept statement's entry in the statement cache is
  charged its bytes when kept, before it is built, and goes, edges and all,
  when either table moves, so the cache's byte count stays what it charged;
* ``JoinResultSet.to_relation()`` defers stacking and sorting to the first
  read of an alias, so a ``COUNT(*)`` never sorts, and streamed or not, a
  finalized result is the same.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SkinnerConfig
from repro.engine import versioned_lru
from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.statement_cache import StatementCache
from repro.engine.versioned_lru import ENTRY_BYTES
from repro.query.parser import parse_query
from repro.query.udf import UdfRegistry
from repro.skinner import result_set
from repro.skinner.multiway_join import MultiwayJoin
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask
from repro.skinner.state import JoinState
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from tests.oracles import continue_scalar, lookup_many_reference
from tests.conftest import index_tuples, lru_items, result_tuples, statement_versions
from tests.oracles.join_map import buckets

BIG = 2**53
NAN = float("nan")

#: Per key kind: build-column values to draw from, and the values of the
#: probing columns, one per key column.  Strings on the two sides get two
#: dictionaries.
KEY_KINDS = {
    "int": ([[1, 2, 3, BIG, BIG + 1]], [[1, 2.0, 3.5, BIG, BIG + 1, float(BIG), NAN]]),
    "float": ([[1.0, 2.5, NAN, float(BIG), 3.0]], [[1, 2.5, NAN, BIG, BIG + 1, 3]]),
    "string": ([["a", "b", "c", ""]], [["b", "zz", "a", "", "c"]]),
    "string_vs_int": ([["1", "2"]], [[1, 2]]),
    "composite": ([[1, 2, BIG + 1], ["x", "y"]], [[1, 2.0, BIG + 1, BIG], ["y", "x", "q"]]),
    "composite_float": ([[0.5, NAN, 2.0], [BIG, BIG + 1]],
                        [[0.5, 2, NAN], [BIG + 1, float(BIG), BIG]]),
}


@st.composite
def lookup_cases(draw):
    kind = draw(st.sampled_from(sorted(KEY_KINDS)))
    build_pools, probe_pools = KEY_KINDS[kind]
    rows = draw(st.integers(min_value=0, max_value=30))
    build = [Column([draw(st.sampled_from(pool)) for _ in range(rows)]) for pool in build_pools]
    chosen = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    positions = np.flatnonzero(np.array(chosen, dtype=bool)).astype(np.int64)
    length = draw(st.integers(min_value=0, max_value=12))
    probes = [Column([draw(st.sampled_from(pool)) for _ in range(length)]) for pool in probe_pools]
    cut = draw(st.integers(min_value=0, max_value=positions.shape[0]))
    return build, positions, probes, cut


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lookup_cases())
def test_bounds_of_slots_is_the_one_step_lookup(case):
    """On grouped maps and suffix views, at ``lower`` 0, mid-way and past the end."""
    build, positions, probes, cut = case
    grouped = GroupedJoinMap(build if len(build) > 1 else build[0], positions)
    values = [column.data for column in probes]
    size = positions.shape[0]
    for join_map in (grouped, grouped.suffix(cut)):
        slots = join_map.slots(values, probes)
        assert slots.shape == (len(probes[0]),)
        assert ((slots >= 0) & (slots <= buckets(join_map))).all()
        for lower in (0, size // 2, size, size + 3):
            starts, counts = join_map.bounds(slots, lower)
            ref_starts, ref_counts = lookup_many_reference(join_map, values, probes, lower)
            assert counts.tolist() == ref_counts.tolist(), lower
            hit = counts > 0
            assert starts[hit].tolist() == ref_starts[hit].tolist(), lower
            many = join_map.bounds(join_map.slots(values, probes), lower)
            assert np.array_equal(many[0], starts) and np.array_equal(many[1], counts)


def test_a_probe_without_a_bucket_names_the_empty_trailing_one():
    join_map = GroupedJoinMap(Column([5, 1, 5]), np.arange(3, dtype=np.int64))
    probes = Column([5, 7, 1])
    slots = join_map.slots(probes.data, probes)
    assert slots.tolist() == [1, buckets(join_map), 0]
    starts, counts = join_map.bounds(slots)
    assert counts.tolist() == [2, 0, 1]
    assert join_map.rows[starts[0]:starts[0] + 2].tolist() == [0, 2]


def test_a_resumed_cut_is_made_once_per_lower():
    join_map = GroupedJoinMap(Column([1, 2, 1, 2, 1]), np.arange(5, dtype=np.int64))
    probes = Column([1, 2])
    slots = join_map.slots(probes.data, probes)
    first = join_map.bounds(slots, 2)
    cut = join_map._cut
    assert join_map.bounds(slots, 2)[1].tolist() == first[1].tolist() == [2, 1]
    assert join_map._cut is cut  # kept, not made again
    assert join_map.bounds(slots, 3)[1].tolist() == [1, 1]


# ----------------------------------------------------------------------
# edges on the pre-processed statement
# ----------------------------------------------------------------------
JOIN_SQL = "SELECT COUNT(*) AS n FROM r, s WHERE r.k = s.k AND r.v > 1"


def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(Table("r", {"k": [1, 2, 2, 3, 4], "v": [1, 2, 3, 4, 5]}))
    catalog.add_table(Table("s", {"k": [2, 3, 3, 5]}))
    return catalog


def _entries(cache: StatementCache) -> dict:
    """Every entry the cache holds after its next lookup, by key."""
    return dict(lru_items(cache.lru))


def _prepared_keys(cache: StatementCache) -> list:
    """Keys of the prepared statements held, least recently used first."""
    return [key for key in _entries(cache) if key[0] == "prepared"]


def _held_bytes(value) -> int:
    """Bytes of a cache entry's arrays as they are now."""
    return value[0].nbytes if isinstance(value, tuple) else value.nbytes


def _map_keys(cache: StatementCache, table: str) -> list:
    return [key for key in _entries(cache) if key[0] == "map" and key[1][1] == table]


def _edge(catalog: Catalog):
    """The edge whose build map is ``r.k`` and whose probes are ``s.k``."""
    prepared = preprocess(catalog, parse_query(JOIN_SQL, catalog))
    return prepared, prepared.edge("r", "k", "s", "k")


def test_an_edge_is_built_once_per_prepared_statement(monkeypatch):
    catalog = _catalog()
    prepared, slots = _edge(catalog)
    join_map = prepared.join_maps[("r", "k")]
    source = catalog.table("s").column("k")
    assert slots.tolist() == join_map.slots(source.data[prepared.filtered["s"]], source).tolist()
    assert not slots.flags.writeable
    calls = []
    original = GroupedJoinMap.slots
    monkeypatch.setattr(GroupedJoinMap, "slots", lambda *args: calls.append(1) or original(*args))
    assert _edge(catalog)[1] is slots  # the statement's prepared entry holds it
    assert prepared.edge("r", "k", "s", "k") is slots
    assert not calls
    cache = StatementCache.of(catalog)
    held = _entries(cache)
    assert {key[0] for key in held} == {"filter", "map", "prepared"}
    assert held[prepared.key].nbytes == prepared.nbytes + ENTRY_BYTES
    # Another statement probing the same map builds an edge of its own.
    other = preprocess(catalog, parse_query(JOIN_SQL + " AND s.k > 0", catalog))
    assert other is not prepared and other.join_maps[("r", "k")] is join_map
    assert other.edge("r", "k", "s", "k").tolist() == slots.tolist()
    assert len(calls) == 1


def test_a_write_to_the_probing_table_drops_the_edge_and_keeps_the_build_map():
    """The edge goes with the statement's prepared entry, which ``s`` owns."""
    catalog = _catalog()
    prepared, slots = _edge(catalog)
    cache = StatementCache.of(catalog)
    build_maps = _map_keys(cache, "r")
    assert build_maps and _prepared_keys(cache) == [prepared.key]
    catalog.add_table(Table("s", {"k": [1, 4]}), replace=True)
    assert _prepared_keys(cache) == []
    assert _map_keys(cache, "r") == build_maps
    assert "s" not in statement_versions(cache)
    fresh = _edge(catalog)
    assert fresh[0] is not prepared
    assert fresh[0].join_maps[("r", "k")] is prepared.join_maps[("r", "k")]
    assert fresh[1].tolist() == [buckets(prepared.join_maps[("r", "k")]), 2]  # 1 absent, 4 found


def test_a_write_to_the_build_table_drops_the_map_and_the_edge():
    catalog = _catalog()
    _edge(catalog)
    cache = StatementCache.of(catalog)
    catalog.add_table(Table("r", {"k": [3], "v": [9]}), replace=True)
    assert _prepared_keys(cache) == [] and _map_keys(cache, "r") == []
    assert "r" not in statement_versions(cache)
    assert all(key[1] != "r" for key in _entries(cache) if key[0] == "filter")


def test_an_evicted_edge_leaves_neither_owner_holding_it(monkeypatch):
    catalog = _catalog()
    prepared, _ = _edge(catalog)
    prepared.edge("s", "k", "r", "k")
    cache = StatementCache.of(catalog)
    # The tables in the other order read the same filters and maps and make a
    # second prepared entry: the first, both of its edges inside, is now the
    # oldest entry.
    swapped = preprocess(catalog, parse_query(JOIN_SQL.replace("FROM r, s", "FROM s, r"),
                                              catalog))
    swapped.edge("r", "k", "s", "k")
    assert _prepared_keys(cache) == [prepared.key, swapped.key]
    monkeypatch.setattr(versioned_lru, "MAX_BYTES", cache.nbytes)
    # One entry more, a filter: room is made by evicting the first statement
    # and its edges with it.
    preprocess(catalog, parse_query("SELECT COUNT(*) AS n FROM s WHERE s.k > 2", catalog),
               build_hash_maps=False)
    held = _entries(cache)
    assert prepared.key not in held and swapped.key in held
    assert cache.nbytes == sum(entry.nbytes for entry in held.values())
    # A write to either owner then finds nothing it does not hold.
    catalog.add_table(Table("r", {"k": [1], "v": [2]}), replace=True)
    catalog.add_table(Table("s", {"k": [1]}), replace=True)
    assert len(cache.lru) == 0 and cache.nbytes == 0


def test_an_edge_counts_against_the_byte_bound(monkeypatch):
    catalog = _catalog()
    prepared = preprocess(catalog, parse_query(JOIN_SQL, catalog))
    cache = StatementCache.of(catalog)
    charged = _entries(cache)[prepared.key].nbytes
    cached = prepared.edge("r", "k", "s", "k")
    held = _entries(cache)
    # The entry was charged the edge when it was kept: building it moves nothing.
    assert held[prepared.key].nbytes == charged and cached.nbytes > 0
    built = (sum(positions.nbytes for positions in prepared.filtered.values())
             + sum(join_map.nbytes for join_map in prepared.join_maps.values()))
    assert charged >= built + cached.nbytes + ENTRY_BYTES
    assert all(entry.nbytes == _held_bytes(entry.value) + ENTRY_BYTES for entry in held.values())
    assert cache.nbytes == sum(entry.nbytes for entry in held.values())
    # No entry holds an edge alone: it is charged once, in its statement's.
    assert {key[0] for key in held} == {"filter", "map", "prepared"}
    assert not any(entry.value is cached for entry in held.values())
    # A write to the probing table drops the edge with s's own entries, and
    # their bytes with them.
    before = cache.nbytes
    dropped = sum(entry.nbytes for entry in held.values() if "s" in entry.tables)
    catalog.add_table(Table("s", {"k": [1, 4]}), replace=True)
    assert prepared.key not in _entries(cache) and cache.nbytes == before - dropped
    # Under a bound too small for any entry nothing is kept; the edge is
    # still made for the statement that asked.
    monkeypatch.setattr(versioned_lru, "MAX_BYTES", 0)
    fresh = _catalog()
    slots = _edge(fresh)[1]
    assert slots.tolist() == cached.tolist() and len(StatementCache.of(fresh).lru) == 0


def test_a_restricted_alias_builds_its_edge_on_its_object():
    catalog = _catalog()
    query = parse_query(JOIN_SQL, catalog)
    prepared = preprocess(catalog, query, restrict_positions={"s": np.array([0, 1])})
    assert prepared.key is None
    edge = prepared.edge("r", "k", "s", "k")
    source = catalog.table("s").column("k")
    join_map = prepared.join_maps[("r", "k")]
    assert edge.tolist() == join_map.slots(source.data[[0, 1]], source).tolist()
    assert prepared.edge("r", "k", "s", "k") is edge
    assert prepared.edge("s", "k", "r", "k").shape == prepared.filtered["r"].shape
    assert _prepared_keys(StatementCache.of(catalog)) == []
    # The hash jump gathers from it: s rows 0 and 1 (k 2 and 3).
    results = JoinResultSet(prepared.aliases)
    join = MultiwayJoin(prepared, batch_size=4)
    assert join.continue_join(JoinState(("s", "r")), {}, 1000, results, CostMeter())
    assert sorted(result_tuples(results)) == [(1, 0), (2, 0), (3, 1)]


# ----------------------------------------------------------------------
# unique keys: partner rows
# ----------------------------------------------------------------------
KEYED_SQL = "SELECT COUNT(*) AS n FROM f, d WHERE f.k = d.id AND d.w > 0"


def _keyed_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(Table("d", {"id": [3, 0, 2, 1, 4], "w": [1, 1, 0, 1, 1]}))
    catalog.add_table(Table("f", {"k": [2, 3, 7, 3, 0, 4]}))
    return catalog


def _partner_edge_keys(cache: StatementCache) -> list:
    """Prepared statements holding an edge whose build map is ``d.id``."""
    return [key for key in _prepared_keys(cache)
            if any(edge[:2] == ("d", "id") for edge in _entries(cache)[key].value[0]._edge_cache)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lookup_cases())
def test_a_unique_map_gives_each_probe_its_bucket_row(case):
    build, positions, probes, cut = case
    grouped = GroupedJoinMap(build if len(build) > 1 else build[0], positions)
    values = [column.data for column in probes]
    for join_map in (grouped, grouped.suffix(cut)):
        slots = join_map.slots(values, probes)
        edge = join_map.edge(values, probes)
        assert join_map.unique == (buckets(join_map) == join_map.rows.shape[0])
        if not join_map.unique:
            assert np.array_equal(edge, slots)
            continue
        starts, counts = join_map.bounds(slots)
        expected = [join_map.rows[start] if count else -1 for start, count in zip(starts, counts)]
        # A suffix view gives the partners it cuts too: the caller drops them.
        kept = [row if row >= join_map.lower else -1 for row in edge.tolist()]
        assert kept == expected


def test_key_foreign_key_edges_hold_partner_rows_and_exact_bytes():
    """After key/foreign-key statements the cache counts exactly the bytes it
    holds, and a write to either table of a partner edge drops it."""
    catalog = _keyed_catalog()
    engine = SkinnerC(catalog, config=FAST)
    for sql in (KEYED_SQL, KEYED_SQL.replace("d.w > 0", "d.w >= 0"),
                "SELECT COUNT(*) AS n FROM f a, f b, d WHERE a.k = d.id AND b.k = d.id"):
        assert engine.execute(parse_query(sql, catalog)).table.row_tuples()
    cache = StatementCache.of(catalog)
    held = _entries(cache).values()
    assert cache.nbytes == sum(entry.nbytes for entry in held)
    assert all(entry.nbytes == _held_bytes(entry.value) + ENTRY_BYTES for entry in held)
    prepared = preprocess(catalog, parse_query(KEYED_SQL, catalog))
    assert prepared.join_maps[("d", "id")].unique
    # d rows 0, 1, 3, 4 pass (ids 3, 0, 1, 4); f.k 2, 3, 7, 3, 0, 4.
    assert prepared.edge("d", "id", "f", "k").tolist() == [-1, 0, -1, 0, 1, 3]
    assert not prepared.join_maps[("f", "k")].unique  # f.k repeats 3: buckets
    for table, rows in (("d", {"id": [0, 1], "w": [1, 1]}), ("f", {"k": [1]})):
        assert _partner_edge_keys(cache)
        catalog.add_table(Table(table, rows), replace=True)
        assert _partner_edge_keys(cache) == [], table
        assert cache.nbytes == sum(entry.nbytes for entry in _entries(cache).values())
        engine.execute(parse_query(KEYED_SQL, catalog))


def test_an_uncached_unique_map_gives_partner_rows_from_its_object():
    catalog = _keyed_catalog()
    query = parse_query(KEYED_SQL, catalog)
    prepared = preprocess(catalog, query, restrict_positions={"f": np.arange(6)})
    assert prepared.key is None
    assert prepared.edge("d", "id", "f", "k").tolist() == [-1, 0, -1, 0, 1, 3]
    for batch_size, budget in ((1, 3), (4, 5), (64, 1000)):
        results = JoinResultSet(prepared.aliases)
        join = MultiwayJoin(prepared, batch_size=batch_size)
        state = JoinState(("f", "d"))
        while not join.continue_join(state, {}, budget, results, CostMeter()):
            pass
        assert result_tuples(results) == [(1, 0), (3, 0), (4, 1), (5, 4)]


# ----------------------------------------------------------------------
# a result is sorted when an alias is read
# ----------------------------------------------------------------------
COUNT_SQL = "SELECT COUNT(*) AS n FROM f, d WHERE f.k = d.k AND f.v < 700"
ROWS_SQL = "SELECT f.v AS v, d.w AS w FROM f, d WHERE f.k = d.k AND f.v < 300 AND d.w > 1"
FAST = SkinnerConfig(slice_budget=16)


def _star_catalog() -> Catalog:
    rng = np.random.default_rng(7)
    catalog = Catalog()
    catalog.add_table(Table("f", {"k": rng.integers(0, 40, 500).tolist(),
                                  "v": rng.integers(0, 1000, 500).tolist()}))
    catalog.add_table(Table("d", {"k": list(range(40)), "w": [k % 4 for k in range(40)]}))
    return catalog


def _run(sql: str, *, stream: bool = False):
    catalog = _star_catalog()
    task = SkinnerCTask(catalog, parse_query(sql, catalog), None, FAST)
    if stream:
        task.enable_streaming()
    drained = []
    while not task.finished:
        task.run_episode()
        if stream:
            drained.append(task.drain_new_tuples())
    return task, task.finalize(), drained


def test_a_count_star_never_sorts_its_result(monkeypatch):
    _, expected, _ = _run(COUNT_SQL)
    forced = SkinnerC(_star_catalog()).execute_with_order(
        parse_query(COUNT_SQL, _star_catalog()), ("d", "f"))

    def refuse(matrix):
        raise AssertionError("a COUNT(*) sorted its result")

    monkeypatch.setattr(result_set, "_lexicographic_order", refuse)
    task, result, _ = _run(COUNT_SQL)
    assert result.table.row_tuples() == expected.table.row_tuples()
    assert result.table.row_tuples()[0][0] == len(task.result_set) > 0
    assert result.metrics.work == expected.metrics.work
    catalog = _star_catalog()
    unsorted = SkinnerC(catalog).execute_with_order(parse_query(COUNT_SQL, catalog), ("d", "f"))
    assert unsorted.table.row_tuples() == forced.table.row_tuples()
    assert unsorted.metrics.work == forced.metrics.work
    with pytest.raises(AssertionError, match="sorted"):
        _run(ROWS_SQL)


def test_a_streamed_statement_finalizes_byte_identically():
    _, plain, _ = _run(ROWS_SQL)
    task, streamed, drained = _run(ROWS_SQL, stream=True)
    assert sum(block.shape[0] for block in drained) == len(task.result_set)
    assert streamed.table.row_tuples() == plain.table.row_tuples()
    assert streamed.metrics.work == plain.metrics.work
    # The relation sorts what was settled when it was made, once, on first read.
    relation = task.result_set.to_relation()
    assert len(relation) == len(task.result_set)
    assert np.array_equal(relation.matrix(task.result_set.aliases), task.result_set.to_matrix())


def test_a_deferred_relation_builds_once_and_checks_its_shape():
    calls = []

    def build():
        calls.append(1)
        return np.array([[0, 1], [2, 3]], dtype=np.int64)

    relation = RowIdRelation.deferred(("a", "b"), 2, build)
    assert len(relation) == 2 and relation.aliases == ["a", "b"] and not calls
    assert relation.ids("b").tolist() == [1, 3]
    assert index_tuples(relation.take(np.array([1]))) == [(2, 3)]
    assert calls == [1]
    wrong = RowIdRelation.deferred(("a",), 3, build)
    with pytest.raises(Exception, match="shape"):
        wrong.ids("a")


# ----------------------------------------------------------------------
# one hash-jump path: an uncached probing alias builds its edges too
# ----------------------------------------------------------------------
UDF_SQL = "SELECT COUNT(*) AS n FROM f, d WHERE f.k = d.k AND d.w > 0 AND odd(f.v)"


def _uncached(catalog: Catalog, probing: str, udfs: UdfRegistry):
    """A statement whose ``f`` is filtered by a UDF or restricted to a morsel."""
    if probing == "udf":
        return preprocess(catalog, parse_query(UDF_SQL, catalog), udfs)
    query = parse_query(COUNT_SQL, catalog)
    morsel = preprocess(catalog, query).filtered["f"][100:300]
    return preprocess(catalog, query, restrict_positions={"f": morsel})


@pytest.mark.parametrize("probing", ["udf", "morsel"])
def test_an_uncached_probing_alias_takes_the_one_hash_jump_path(monkeypatch, probing):
    """At every batch size the join finds the scalar oracle's rows, and each
    edge is built once per object."""
    catalog = _star_catalog()
    udfs = UdfRegistry()
    udfs.register("odd", lambda v: v % 2 == 1)
    prepared = _uncached(catalog, probing, udfs)
    assert prepared.key is None
    calls = []
    original = GroupedJoinMap.slots
    monkeypatch.setattr(GroupedJoinMap, "slots", lambda *args: calls.append(1) or original(*args))
    for order in (("f", "d"), ("d", "f")):
        expected = JoinResultSet(prepared.aliases)
        state = JoinState(order)
        scalar = MultiwayJoin(prepared, udfs)
        while not continue_scalar(scalar, state, {}, 10_000, expected, CostMeter()):
            pass
        assert len(expected) > 0
        for batch_size in (1, 4, 1024):
            results = JoinResultSet(prepared.aliases)
            join = MultiwayJoin(prepared, udfs, batch_size=batch_size)
            state = JoinState(order)
            while not join.continue_join(state, {}, 37, results, CostMeter()):
                pass
            assert sorted(result_tuples(results)) == sorted(result_tuples(expected)), (
                order, batch_size)
    # d.k probed by f.k, f.k probed by d.k: two edges, each built once.
    assert len(calls) == 2 and len(prepared._edge_cache) == 2
