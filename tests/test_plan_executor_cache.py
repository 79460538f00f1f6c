"""The plan executor's build sides come from the catalog's statement cache.

One :class:`~repro.engine.joinkernels.GroupedJoinMap` per table version,
filter and key columns serves Skinner-C's pre-processing and every
plan-executor engine; Skinner-G/H's remainders are
:meth:`~repro.engine.joinkernels.GroupedJoinMap.suffix` views of it.  These
tests pin that the views find exactly what a map grouped afresh over the
remainder finds, that nothing is grouped twice, and that nothing is kept that
could go stale or outlive its connection.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.connection import connect
from repro.baselines.traditional import TraditionalEngine
from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.executor import PlanExecutor
from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.joinsteps import edge_candidates
from repro.engine.meter import CostMeter
from repro.engine.statement_cache import StatementCache
from repro.errors import BudgetExceeded
from repro.query.predicates import column_equals_column
from repro.query.udf import UdfRegistry
from repro.skinner.preprocessor import preprocess
from repro.skinner.skinner_g import GenericLearningRun, SkinnerG
from repro.skinner.skinner_h import SkinnerH
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.workloads.tpch import make_tpch_workload
from tests.conftest import counting_groupings, index_tuples, lookup, same_tables, udf_predicate
from benchmarks.paper.queries import make_query
from tests.oracles.join_map import buckets


# ----------------------------------------------------------------------
# suffix views
# ----------------------------------------------------------------------
BIG = 2**53
NAN = float("nan")

#: Per key kind: build-column values to draw from, and the probe columns
#: (values to draw from) the map is probed with, one per key column.
KEY_KINDS = {
    "int": ([[1, 2, 3, BIG, BIG + 1]], [[1, 2.0, 3.5, BIG, BIG + 1, float(BIG)]]),
    "float_nan": ([[1.0, 2.5, NAN, float(BIG), 3.0]], [[1, 2.5, NAN, BIG, BIG + 1, 3]]),
    "string": ([["a", "b", "c", ""]], [["b", "zz", "a", "", "c"]]),
    "composite": ([[1, 2, BIG + 1], ["x", "y"]], [[1, 2.0, BIG + 1, BIG], ["y", "x", "q"]]),
    "composite_float": ([[0.5, NAN, 2.0], [BIG, BIG + 1]],
                        [[0.5, 2, NAN], [BIG + 1, float(BIG), BIG]]),
}


def _columns(draw, pools, rows):
    return [Column([draw(st.sampled_from(pool)) for _ in range(rows)]) for pool in pools]


@st.composite
def suffix_cases(draw):
    kind = draw(st.sampled_from(sorted(KEY_KINDS)))
    build_pools, probe_pools = KEY_KINDS[kind]
    rows = draw(st.integers(min_value=0, max_value=30))
    build = _columns(draw, build_pools, rows)
    chosen = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    positions = np.flatnonzero(np.array(chosen, dtype=bool)).astype(np.int64)
    probes = _columns(draw, probe_pools, draw(st.integers(min_value=0, max_value=12)))
    return build, positions, probes


def _matches(join_map, probes, lower=0):
    shape = edge_candidates(join_map, join_map.edge([c.data for c in probes], probes), lower)
    return shape.take(0, shape.total)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(suffix_cases())
def test_a_suffix_finds_what_a_map_over_the_remainder_finds(case):
    """``suffix(k)`` + ``edge`` + the shared ``take`` equals a map
    grouped afresh over ``positions[k:]``, every row ``k`` higher."""
    build, positions, probes = case
    grouped = GroupedJoinMap(build, positions)
    for k in range(positions.shape[0] + 1):
        view = grouped.suffix(k)
        fresh = GroupedJoinMap(build, positions[k:])
        selector, rows = _matches(view, probes)
        fresh_selector, fresh_rows = _matches(fresh, probes)
        assert np.array_equal(selector, fresh_selector)
        assert np.array_equal(rows, fresh_rows + k)
        # A resumed lookup on the view cuts like one on the grouped map.
        for lower in range(k, positions.shape[0] + 1, 3):
            assert all(np.array_equal(a, b) for a, b in zip(
                _matches(view, probes, lower), _matches(grouped, probes, lower)
            ))


def test_a_suffix_shares_the_grouped_arrays():
    grouped = GroupedJoinMap(Column([3, 1, 3, 2, 1]), np.arange(5, dtype=np.int64))
    view = grouped.suffix(4)
    assert view.rows is grouped.rows and grouped.suffix(0) is grouped
    assert lookup(view, 1).tolist() == [4] and lookup(grouped, 1).tolist() == [1, 4]
    assert lookup(view, 2) is None and lookup(grouped, 2).tolist() == [3]  # emptied: absent
    assert buckets(view) == buckets(grouped)


# ----------------------------------------------------------------------
# the executor on the cache
# ----------------------------------------------------------------------
def _two_table_catalog():
    catalog = Catalog()
    catalog.add_table(Table("a", {"x": [1, 2, 3, 4]}))
    catalog.add_table(Table("b", {"x": [1, 2, 3, 4, 1, 2, 3, 4]}))
    query = make_query(["a", "b"], predicates=[column_equals_column("a", "x", "b", "x")])
    return catalog, query


def test_a_build_charge_over_the_budget_leaves_no_cache_entry():
    catalog, query = _two_table_catalog()
    executor = PlanExecutor(catalog, query)
    executor.pre_process()
    held = len(StatementCache.of(catalog).lru)
    meter = CostMeter(budget=5)  # the build scan of b's 8 rows crosses it
    with counting_groupings() as grouped, pytest.raises(BudgetExceeded):
        executor.execute_order(["a", "b"], meter)
    assert meter.tuples_scanned == 8 and meter.hash_probes == 0
    assert grouped[0] == 0 and len(StatementCache.of(catalog).lru) == held
    for _ in range(2):  # grouped on the first whole run only
        meter = CostMeter()
        with counting_groupings() as grouped:
            relation = executor.execute_order(["a", "b"], meter)
        assert len(relation) == 8 and meter.tuples_scanned == 8
    assert grouped[0] == 0 and len(StatementCache.of(catalog).lru) == held + 1


def test_a_remainder_is_charged_its_rows_and_grouped_never():
    catalog, query = _two_table_catalog()
    executor = PlanExecutor(catalog, query)
    executor.execute_order(["a", "b"], CostMeter())
    for lower in (0, 3, 3, 5, 8):
        meter = CostMeter()
        with counting_groupings() as grouped:
            relation = executor.execute_order(["a", "b"], meter, (0, 4), {"b": lower})
        assert grouped[0] == 0
        assert meter.tuples_scanned == 8 - lower
        assert relation.ids("b").tolist() == [row for row in (0, 4, 1, 5, 2, 6, 3, 7)
                                             if row >= lower]


ENGINES = {
    "traditional": lambda catalog, config: TraditionalEngine(catalog),
    "skinner-g": lambda catalog, config: SkinnerG(catalog, config=config),
    "skinner-h": lambda catalog, config: SkinnerH(catalog, config=config),
}


def test_repeating_a_statement_groups_nothing_on_any_engine():
    """Cold, each engine groups its build sides; after that no statement
    groups again, on the engine that ran it or on another one."""
    workload = make_tpch_workload(1.0, 29)
    config = DEFAULT_CONFIG.with_overrides(batches_per_table=3, base_timeout=50, seed=11)
    queries = [workload_query.query for workload_query in workload.queries[:4]]
    engines = {name: make(workload.catalog, config) for name, make in ENGINES.items()}
    answers = {}
    with counting_groupings() as cold:
        for query in queries:
            for name, engine in engines.items():
                answers[name, query] = engine.execute(query)
    assert cold[0] > 0
    for query in queries:
        for name in reversed(list(ENGINES)):
            fresh = ENGINES[name](workload.catalog, config)  # a new engine, the same catalog
            with counting_groupings() as warm:
                result = fresh.execute(query)
            assert warm[0] == 0, (name, query)
            assert result.rows == answers[name, query].rows
            assert result.metrics.work == answers[name, query].metrics.work


def test_skinner_c_and_the_plan_executor_share_one_map_per_key_column():
    catalog, query = _two_table_catalog()
    prepared = preprocess(catalog, query)
    with counting_groupings() as grouped:
        TraditionalEngine(catalog).execute(query)
        SkinnerG(catalog, config=DEFAULT_CONFIG).execute(query)
    assert grouped[0] == 0
    assert set(prepared.join_maps) == {("a", "x"), ("b", "x")}


def test_skinner_g_groups_each_build_side_once_per_query():
    """Batch offsets move the remainders on; no build side is grouped again."""
    batches = 3
    config = SkinnerConfig(batches_per_table=batches, base_timeout=50, seed=11)
    workload = make_tpch_workload(1.0, 29)
    for workload_query in workload.queries[:4]:
        with counting_groupings() as grouped:
            run = GenericLearningRun(same_tables(workload.catalog), workload_query.query, None,
                                     config)
            while not run.finished:
                run.step()
        assert run.iterations > 20 * batches  # most slices joined a remainder
        # At most one grouping per (alias, key columns) the executor built on.
        assert 0 < grouped[0] <= len(run.engine._executor._builds)


def test_a_map_over_a_udf_filter_is_kept_for_the_executor_only():
    catalog, query = _two_table_catalog()
    udfs = UdfRegistry()
    udfs.register("keep", lambda value: value != 2)
    query = make_query(["a", "b"], predicates=[
        column_equals_column("a", "x", "b", "x"), udf_predicate("keep", ("b", "x"))])
    executor = PlanExecutor(catalog, query, udfs)
    with counting_groupings() as grouped:
        for lower in (0, 1, 2, 0):
            executor.execute_order(["a", "b"], CostMeter(), (0, 4), {"b": lower})
    assert grouped[0] == 1
    with counting_groupings() as grouped:
        PlanExecutor(catalog, query, udfs).execute_order(["a", "b"], CostMeter())
    assert grouped[0] == 1


def test_a_table_replaced_mid_query_leaves_nothing_stale():
    """An executor built before a write joins the rows it started on, and
    what it builds on them is never served to a statement after the write."""
    catalog, query = _two_table_catalog()
    before = PlanExecutor(catalog, query)
    catalog.add_table(Table("b", {"x": [4, 4, 9]}), replace=True)
    old = before.execute_order(["a", "b"], CostMeter())
    assert len(old) == 8
    new = PlanExecutor(catalog, query).execute_order(["a", "b"], CostMeter())
    assert index_tuples(new, ["a", "b"]) == [(3, 0), (3, 1)]
    assert buckets(preprocess(catalog, query).join_maps[("b", "x")]) == 2


@pytest.fixture(params=["memory", "durable"])
def backend(request, tmp_path):
    """``connect`` keywords of an in-memory or a durable catalog."""
    return {"data_dir": tmp_path / "db"} if request.param == "durable" else {}


STATEMENTS = (
    "SELECT COUNT(*) AS n, SUM(f.v) AS s FROM f, d, e "
    "WHERE f.k = d.k AND d.k = e.k AND d.w = e.w AND f.v < 700",
    "SELECT d.w AS w, f.v AS v FROM f, d WHERE f.k = d.k AND f.v < 300 ORDER BY v, w",
)


@pytest.mark.parametrize("engine", ["traditional", "reoptimizer", "skinner-g", "skinner-h"])
def test_warm_statements_group_nothing_and_charge_what_cold_ones_do(backend, engine,
                                                                   baseline_engines):
    config = SkinnerConfig(batches_per_table=3, base_timeout=150, serving_warm_start=False)
    conn = connect(config, **backend)
    rng = np.random.default_rng(5)
    conn.create_table("f", {"k": rng.integers(0, 40, 500).tolist(),
                            "v": rng.integers(0, 1000, 500).tolist()})
    conn.create_table("d", {"k": list(range(40)), "w": [k % 4 for k in range(40)]})
    conn.create_table("e", {"k": rng.integers(0, 40, 90).tolist(),
                            "w": rng.integers(0, 4, 90).tolist()})
    conn.commit()
    try:
        for sql in STATEMENTS:
            cold = conn.execute_direct(sql, engine=engine)
            with counting_groupings() as grouped:
                warm = conn.execute_direct(sql, engine=engine)
            assert grouped[0] == 0
            assert warm.rows == cold.rows
            assert warm.metrics.work == cold.metrics.work
    finally:
        conn.close()


def test_a_closed_connection_lets_its_join_maps_go(backend):
    conn = connect(**backend)
    conn.create_table("r", {"k": [1, 2, 3, 1], "v": [5, 6, 7, 8]})
    conn.create_table("s", {"k": [1, 1, 3], "w": [0, 1, 2]})
    sql = "SELECT r.v, s.w FROM r, s WHERE r.k = s.k"
    assert len(conn.execute(sql, engine="traditional").rows) == 5
    held = weakref.ref(preprocess(conn.catalog, conn.parse(sql)).join_maps[("s", "k")])
    gc.collect()
    assert held() is not None  # the statement cache keeps it
    conn.close()
    gc.collect()
    assert held() is None
    assert conn.catalog.statement_cache is None
