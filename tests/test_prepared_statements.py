"""A repeated Skinner-C statement is prepared once.

The statement cache keeps what pre-processing made of a statement's FROM and
WHERE (``StatementCache.prepared``): its filtered positions, join maps,
hash-jump edges and gathered columns, and the multi-way join's plan of every
order it ran.  A statement with the same FROM and WHERE on the same table
versions takes that object with one lookup and has the charges of the cold
build replayed.  Pinned here:

* a hit returns the rows, the ``WorkBreakdown`` (``preprocess_work``
  included), the slices, the final order and the result size of a cold run:
  for repeated text, and for another SELECT over the same FROM/WHERE, which
  shares the entry;
* ``x = 1`` and ``x = 1.0``, ``2**53`` and ``2.0**53``, never share one;
* a write to one of its tables drops it; a UDF predicate, a morsel's
  restricted task and a build without join maps make none;
* a work budget runs out inside pre-processing at the same charge on a hit;
* two tasks in flight on one entry each run as they would alone;
* pre-processing a repeated statement makes exactly one cache lookup;
* an entry is charged once, when kept, for every array its tasks may come
  to hold, whatever orders they run: its charge never changes.

Also here: the two per-statement costs of submitting that are computed once
or without a deep copy — the result cache's fingerprint and the
pre-processing meter's counts.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import SkinnerConfig
from repro.docstore.axes import axis_query
from repro.docstore.shred import shred_nodes
from repro.docstore.workload import _query_pool, build_forest
from repro.engine.meter import CostMeter
from repro.engine.statement_cache import StatementCache
from repro.engine.task import run_to_completion
from repro.errors import BudgetExceeded
from repro.query.parser import parse_query
from repro.query.udf import UdfRegistry
from repro.serving import cache as serving_cache
from repro.skinner.preprocessor import preprocess
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.job import make_job_workload
from tests.conftest import lru_items

FAST = SkinnerConfig(slice_budget=32, serving_warm_start=False)

WHERE = "WHERE f.k = d.k AND f.g = e.g AND f.v < 700 AND d.w >= 2"
COUNT_SQL = f"SELECT COUNT(*) AS n FROM f, d, e {WHERE}"
ROWS_SQL = f"SELECT f.v AS v, d.w AS w, e.z AS z FROM f, d, e {WHERE} ORDER BY v, w, z"


def _catalog() -> Catalog:
    rng = np.random.default_rng(11)
    catalog = Catalog()
    catalog.add_table(Table("f", {"k": rng.integers(0, 60, 500), "g": rng.integers(0, 8, 500),
                                  "v": rng.integers(0, 1000, 500)}))
    catalog.add_table(Table("d", {"k": np.arange(60), "w": np.arange(60) % 5}))
    catalog.add_table(Table("e", {"g": rng.integers(0, 8, 30), "z": rng.integers(0, 9, 30)}))
    return catalog


def _task(catalog: Catalog, sql: str, udfs: UdfRegistry | None = None) -> SkinnerCTask:
    return SkinnerC(catalog, udfs, FAST).task(parse_query(sql, catalog))


def _observed(task: SkinnerCTask) -> tuple:
    """What a run shows: rows, work, pre-processing work, slices, order, size."""
    result = run_to_completion(task)
    metrics = result.metrics
    return (result.table.row_tuples(), metrics.work, metrics.extra["preprocess_work"],
            metrics.time_slices, metrics.final_join_order, metrics.result_tuple_count)


def _cold(sql: str) -> tuple:
    return _observed(_task(_catalog(), sql))


def _prepared_keys(catalog: Catalog) -> list:
    return [key for key, _ in lru_items(StatementCache.of(catalog).lru) if key[0] == "prepared"]


@pytest.mark.parametrize("sql", [COUNT_SQL, ROWS_SQL], ids=["count", "rows"])
def test_repeated_text_is_a_hit_that_equals_a_cold_run(sql):
    catalog = _catalog()
    first = _task(catalog, sql)
    assert _observed(first) == _cold(sql)
    again = _task(catalog, sql)
    assert again.prepared is first.prepared
    assert _observed(again) == _cold(sql)
    assert len(_prepared_keys(catalog)) == 1


def test_another_select_over_the_same_from_and_where_shares_the_entry():
    catalog = _catalog()
    count = _task(catalog, COUNT_SQL)
    _observed(count)
    rows = _task(catalog, ROWS_SQL)
    assert rows.prepared is count.prepared
    assert _observed(rows) == _cold(ROWS_SQL)
    assert len(_prepared_keys(catalog)) == 1


@pytest.mark.parametrize("literals", [("1", "1.0"), ("9007199254740992", "9007199254740992.0")])
def test_equal_literals_of_other_types_never_share(literals):
    """``2**53 + 1`` in an int64 column equals ``2.0**53`` but not ``2**53``."""
    def make() -> Catalog:
        catalog = _catalog()
        catalog.add_table(Table("t", {"k": np.arange(4), "x": np.array(
            [1, 2**53, 2**53 + 1, 5], dtype=np.int64)}))
        return catalog

    catalog = make()
    tasks, answers = [], []
    for literal in literals:
        sql = f"SELECT COUNT(*) AS n FROM t, d WHERE t.k = d.k AND t.x = {literal}"
        tasks.append(_task(catalog, sql))
        answers.append(_observed(tasks[-1]))
        assert answers[-1] == _observed(_task(make(), sql))
    assert tasks[0].prepared is not tasks[1].prepared
    assert len(_prepared_keys(catalog)) == 2
    if literals[0] != "1":
        assert [answer[0] for answer in answers] == [[(1,)], [(2,)]]


def test_a_write_to_one_table_drops_the_entry():
    catalog = _catalog()
    _observed(_task(catalog, COUNT_SQL))
    catalog.add_table(Table("z", {"a": [1]}))  # a table the statement does not read
    assert len(_prepared_keys(catalog)) == 1
    replaced = Table("e", {"g": np.arange(8), "z": np.arange(8)})
    catalog.add_table(replaced, replace=True)
    assert _prepared_keys(catalog) == []
    fresh = _catalog()
    fresh.add_table(replaced, replace=True)
    assert _observed(_task(catalog, COUNT_SQL)) == _observed(_task(fresh, COUNT_SQL))


def test_a_udf_predicate_a_morsel_and_a_build_without_maps_make_no_entry():
    catalog = _catalog()
    udfs = UdfRegistry()
    udfs.register("keep", lambda v: v % 3 == 0)
    sql = f"SELECT COUNT(*) AS n FROM f, d, e {WHERE} AND keep(f.v)"
    _observed(_task(catalog, sql, udfs))
    query = parse_query(COUNT_SQL, catalog)
    morsel = SkinnerCTask(catalog, query, config=FAST, restrict_positions={"f": np.arange(100)})
    _observed(morsel)
    assert morsel.prepared.key is None
    assert morsel.join._contexts is morsel.prepared.order_contexts  # its own, unkept object
    assert preprocess(catalog, query, build_hash_maps=False).key is None
    assert _prepared_keys(catalog) == []


def test_a_budget_runs_out_inside_preprocessing_at_the_same_charge():
    warm = _catalog()
    full = CostMeter()
    preprocess(warm, parse_query(COUNT_SQL, warm), meter=full)  # keeps the entry
    budgets = sorted({0, 1, 2, full.total // 3, full.total // 2, full.total - 1, full.total})
    for budget in budgets:
        outcomes = []
        for catalog in (_catalog(), warm):
            meter = CostMeter(budget=budget)
            try:
                preprocess(catalog, parse_query(COUNT_SQL, catalog), meter=meter)
                spent = None
            except BudgetExceeded as exceeded:
                spent = exceeded.spent
            outcomes.append((spent, meter.snapshot()))
        assert outcomes[0] == outcomes[1], budget
        assert (outcomes[0][0] is None) == (budget >= full.total)
    assert len(_prepared_keys(warm)) == 1


def test_two_tasks_in_flight_on_one_entry_run_as_alone():
    catalog = _catalog()
    _observed(_task(catalog, COUNT_SQL))
    first, second = _task(catalog, COUNT_SQL), _task(catalog, ROWS_SQL)
    assert first.prepared is second.prepared
    while not (first.finished and second.finished):
        first.run_episode()
        second.run_episode()
    for task, sql in ((first, COUNT_SQL), (second, ROWS_SQL)):
        assert _observed(task) == _cold(sql)


def test_a_repeated_statement_makes_one_cache_lookup():
    catalog = _catalog()
    _observed(_task(catalog, COUNT_SQL))
    lru = StatementCache.of(catalog).lru
    before = lru.hits + lru.misses
    task = _task(catalog, COUNT_SQL)
    assert (lru.hits + lru.misses, lru.hits) == (before + 1, lru.hits)
    _observed(task)  # its edges and gathered columns are the entry's too
    assert lru.hits + lru.misses == before + 1


def _array_bytes(prepared) -> int:
    """Bytes of the arrays a prepared statement holds now (a join map's
    own ``nbytes`` already covers the per-bucket cut it may keep)."""
    gathered = (*prepared._edge_cache.values(), *prepared._physical_cache.values(),
                *prepared._decoded_array_cache.values())
    return (sum(positions.nbytes for positions in prepared.filtered.values())
            + sum(join_map.nbytes for join_map in prepared.join_maps.values())
            + sum(array.nbytes for array in gathered))


def test_the_entry_is_charged_every_array_it_holds():
    catalog = _catalog()
    task = _task(catalog, COUNT_SQL)
    cache = StatementCache.of(catalog)
    (key,) = _prepared_keys(catalog)
    charged = dict(lru_items(cache.lru))[key].nbytes
    assert charged == task.prepared.nbytes + 8 * 2**10
    _observed(task)  # gathers edges: the entry was charged them at keep
    assert dict(lru_items(cache.lru))[key].nbytes == charged
    assert task.prepared._edge_cache and charged >= _array_bytes(task.prepared) + 8 * 2**10
    assert cache.nbytes == sum(entry.nbytes for _, entry in lru_items(cache.lru))


def _string_join_catalog() -> tuple[Catalog, list[str]]:
    rng = np.random.default_rng(5)
    names = [f"n{i:02d}" for i in range(40)]
    catalog = Catalog()
    catalog.add_table(Table("a", {"s": [names[i] for i in rng.integers(0, 40, 300)],
                                  "t": [names[i] for i in rng.integers(0, 40, 300)]}))
    catalog.add_table(Table("b", {"s": names[5:], "t": names[:-5]}))
    return catalog, ["SELECT COUNT(*) AS n FROM a, b WHERE a.s = b.s",
                     "SELECT COUNT(*) AS n FROM a, b WHERE a.s = b.s AND a.t < b.t"]


def _docstore_catalog() -> tuple[Catalog, list[str]]:
    catalog = Catalog()
    catalog.add_table(Table("doc", shred_nodes(build_forest(documents=4, seed=7))))
    return catalog, [axis_query("doc", steps, select=f"s{len(steps) - 1}.pre")
                     for _, _, steps in _query_pool("doc")]


def _job_catalog() -> tuple[Catalog, list]:
    workload = make_job_workload(scale=0.4, seed=13)
    return workload.catalog, [named.query for named in workload.queries]


@pytest.mark.parametrize("make", [_job_catalog, _docstore_catalog, _string_join_catalog],
                         ids=["job", "docstore", "string"])
def test_a_kept_entry_is_charged_once_for_everything_it_can_hold(make):
    """Whatever orders its tasks run, learned or forced, a kept entry's
    charge is what :meth:`StatementCache.keep` put and covers every array
    it holds."""
    catalog, statements = make()
    cache = StatementCache.of(catalog)
    engine = SkinnerC(catalog, config=FAST)
    for statement in statements:
        query = parse_query(statement, catalog) if isinstance(statement, str) else statement
        learned = run_to_completion(engine.task(query))
        key = query.prepared_key
        charged = dict(lru_items(cache.lru))[key].nbytes
        engine.execute_with_order(query, learned.metrics.final_join_order)
        engine.execute_with_order(query, tuple(reversed(learned.metrics.final_join_order)))
        prepared = preprocess(catalog, query)
        assert dict(lru_items(cache.lru))[key].nbytes == charged == prepared.nbytes + 8 * 2**10
        assert charged >= _array_bytes(prepared) + 8 * 2**10, query.display()


# ----------------------------------------------------------------------
# the rest of a submit
# ----------------------------------------------------------------------
def test_a_fingerprint_is_computed_once_per_query_engine_and_config(monkeypatch):
    catalog = _catalog()
    query = parse_query(COUNT_SQL, catalog)
    config = SkinnerConfig()
    digest = serving_cache.query_fingerprint(query, engine="skinner-c", config=config)
    parts = (query.display(), "skinner-c", repr(config))
    assert digest == hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
    monkeypatch.setattr(serving_cache, "hashlib", None)  # no second digest
    assert serving_cache.query_fingerprint(query, engine="skinner-c", config=config) == digest
    monkeypatch.undo()
    # An equal config object, another engine: fingerprinted again, each as before.
    assert serving_cache.query_fingerprint(query, engine="skinner-c",
                                           config=SkinnerConfig()) == digest
    assert serving_cache.query_fingerprint(query, engine="skinner-g", config=config) != digest


def test_preprocess_work_counts_are_asdict_of_the_snapshot():
    meter = CostMeter()
    for charge, amount in (("charge_scan", 7), ("charge_predicate", 3), ("charge_probe", 2),
                           ("charge_intermediate", 5), ("charge_output", 1), ("charge_udf", 4)):
        getattr(meter, charge)(amount)
    assert meter.counts() == dataclasses.asdict(meter.snapshot())
    assert list(meter.counts()) == list(dataclasses.asdict(meter.snapshot()))
    task = _task(_catalog(), COUNT_SQL)
    extra = run_to_completion(task).metrics.extra
    assert extra["preprocess_work"] == dataclasses.asdict(task.pre_meter.snapshot())
