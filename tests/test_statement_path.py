"""A learned Skinner-C statement pays for its join and little more.

Each cost that used to ride along with every statement or every slice is
pinned here by what it calls, the way ``test_prepared_statements`` pins the
one cache lookup of a repeated statement:

* a slice that runs the order the last slice ran resumes where that slice
  stopped and asks the progress tracker nothing; every slice, resumed or
  restored, starts where the tracker would have put it;
* a repeated statement on a warm connection reads no table version from
  the catalog and seeds no random generator;
* a prepared statement's charges are billed at once, not call by call;
* ``COUNT(*)``, and ``COUNT`` of a numeric column, count rows without
  evaluating the argument;
* seeding makes no node for a neutral sibling until one is written to.

And the property behind them all: every ``QueryMetrics`` field but the wall
times is what a fresh connection gives for the same statement sequence.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.api import connect
from repro.config import SkinnerConfig
from repro.engine import postprocess
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.query.expressions import ColumnRef
from repro.query.parser import parse_query
from repro.skinner.progress import ProgressTracker
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.uct import tree as uct_tree
from repro.uct.policy import DEFAULT_EXPLORATION_WEIGHT, SKINNER_C_EXPLORATION_WEIGHT
from repro.uct.tree import UctJoinTree
from repro.workloads.job import make_job_workload
from tests.oracles import rows_post_process
from tests.oracles.uct import subtree_size
from tests.test_postprocess_columnar import assert_tables_identical

#: Metrics fields that are seconds, not work.
WALL_FIELDS = ("wall_time_seconds",)
WALL_EXTRA = ("episode_wall_seconds",)


@pytest.fixture(scope="module")
def job():
    return make_job_workload(scale=0.6, seed=13)


def _counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` from here on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _warm_connection(job, passes=3):
    conn = connect(SkinnerConfig(), workers=1)
    for name in job.catalog.table_names():
        conn.add_table(job.catalog.table(name))
    conn.commit()
    cursor = conn.cursor()
    for _ in range(passes):
        for query in job.queries:
            cursor.execute(query.query.display(), use_result_cache=False)
            cursor.fetchall()
    return conn, cursor


@pytest.mark.parametrize("budget", [20, 100, 500])
def test_every_slice_starts_where_the_tracker_would_restore_it(job, monkeypatch, budget):
    """The oracle of the resumed slice: whether it skipped the tracker or
    not, a slice runs from the state ``ProgressTracker.restore`` returns."""
    slices = repeats = 0
    engine = SkinnerC(job.catalog, job.udfs, SkinnerConfig(slice_budget=budget))
    for query in job.queries:
        task = engine.task(query.query)
        orders = []

        def continue_join(state, offsets, *rest, task=task, orders=orders,
                          original=task.join.continue_join):
            restored = task.tracker.restore(state.order, task._cardinalities)
            assert restored.indices == state.indices
            orders.append(state.order)
            return original(state, offsets, *rest)

        monkeypatch.setattr(task.join, "continue_join", continue_join)
        while not task.finished:
            task.run_episode()
        slices += len(orders)
        repeats += sum(a == b for a, b in zip(orders, orders[1:]))
    assert slices > len(job.queries) and repeats


def test_a_resumed_slice_asks_the_tracker_nothing(job, monkeypatch):
    restores = _counting(monkeypatch, ProgressTracker, "restore")
    slices = switches = 0
    for query in job.queries:
        if query.query.num_tables < 2:
            continue
        task = SkinnerCTask(job.catalog, query.query, job.udfs,
                            SkinnerConfig(slice_budget=20), trace=True)
        while not task.finished:
            task.run_episode()
        orders = [record["order"] for record in task.trace_records]
        slices += len(orders)
        switches += 1 + sum(a != b for a, b in zip(orders, orders[1:]))
    assert len(restores) == switches < slices
    # A forced order resumes every slice but its first.
    restores.clear()
    query = max(job.queries, key=lambda q: q.query.num_tables).query
    result = SkinnerC(job.catalog, job.udfs, SkinnerConfig(slice_budget=1)).execute_with_order(
        query, tuple(query.join_graph().aliases))
    assert result.metrics.time_slices > 1 and len(restores) == 1


def test_a_repeated_statement_reads_no_version_and_seeds_no_generator(job, monkeypatch):
    conn, cursor = _warm_connection(job)
    versions = _counting(monkeypatch, Catalog, "version")
    generators = _counting(monkeypatch, uct_tree.random.Random, "seed")
    for query in job.queries:
        cursor.execute(query.query.display(), use_result_cache=False)
        cursor.fetchall()
    assert versions == [] and generators == []
    # A write moves the versions: the next statement reads them again.
    conn.add_table(job.catalog.table(job.catalog.table_names()[0]), replace=True)
    cursor.execute(job.queries[0].query.display(), use_result_cache=False)
    cursor.fetchall()
    assert versions
    conn.close()


def test_a_prepared_statement_bills_its_charges_at_once(job, monkeypatch):
    query = job.queries[4].query
    cold = SkinnerCTask(job.catalog, query, job.udfs)
    charges = _counting(monkeypatch, CostMeter, "charge_scan")
    warm = SkinnerCTask(job.catalog, query, job.udfs)
    assert charges == []
    assert warm.pre_meter.counts() == cold.pre_meter.counts()
    # With a work budget the same charges go in call by call, so the budget
    # runs out where it did: the forced run charges its own meter.
    budgeted = CostMeter(budget=10**9)
    budgeted.replay([("charge_scan", 3), ("charge_predicate", 2)], cold.pre_meter.snapshot())
    assert (len(charges), budgeted.total) == (1, 5)


def test_count_star_counts_rows_without_evaluating_them(job, monkeypatch):
    evaluated = _counting(monkeypatch, postprocess, "evaluate_array")
    result = SkinnerC(job.catalog, job.udfs).execute(job.queries[0].query)
    assert result.table.column_names and result.table.num_rows == 1
    assert evaluated == []


@pytest.mark.parametrize("sql", [
    "SELECT COUNT(t.a) AS n FROM t",
    "SELECT t.g, COUNT(t.f) AS n, COUNT(*) AS m, SUM(t.a) AS s FROM t GROUP BY t.g",
    "SELECT t.g, COUNT(t.a) AS n FROM t GROUP BY t.g ORDER BY n DESC, t.g",
    "SELECT DISTINCT COUNT(t.f) AS n FROM t GROUP BY t.g",
])
@pytest.mark.parametrize("rows", [0, 1, 37])
def test_count_of_a_numeric_column_counts_rows_without_evaluating_it(monkeypatch, sql, rows):
    """NULLs are not modelled: ``COUNT`` of an INT or FLOAT column is the
    group size, which grouping knows without gathering the column."""
    table = Table("t", {"g": [f"g{i % 4}" for i in range(40)], "a": list(range(40)),
                        "f": [i / 4 for i in range(40)]})
    catalog = Catalog()
    catalog.add_table(table)
    query = parse_query(sql, catalog)
    relation = RowIdRelation.from_base("t", np.arange(rows))
    expected = rows_post_process(query, relation, {"t": table})
    evaluated = _counting(monkeypatch, postprocess, "evaluate_array")
    actual = postprocess.post_process(query, relation, {"t": table})
    counted = {ColumnRef("t", "f")} | ({ColumnRef("t", "a")} if "SUM" not in sql else set())
    assert not counted & {call[0] for call in evaluated}
    assert_tables_identical(expected, actual)


@pytest.mark.parametrize("weight", [SKINNER_C_EXPLORATION_WEIGHT, DEFAULT_EXPLORATION_WEIGHT])
def test_neutral_siblings_are_nodes_only_once_written_to(job, weight):
    query = max(job.queries, key=lambda q: q.query.num_tables).query
    graph = query.join_graph()
    tree = UctJoinTree(graph, exploration_weight=weight, seed=1)
    tree.seed(tuple(graph.aliases), 0.5, 3)
    siblings = tree.root.children.values()
    assert tree.node_count() == subtree_size(tree.root) > len(graph.aliases) + 1
    assert len({id(node) for node in siblings}) == 2 < len(siblings)
    rewards = random.Random(3)
    for _ in range(200):
        tree.update(tree.choose_order(), rewards.random() * 0.01)
    assert tree.node_count() == subtree_size(tree.root)
    neutral = uct_tree._NEUTRAL
    assert (neutral.visits, neutral.reward_sum, neutral.children, neutral.eligible) == (
        1, 0.0, {}, None)
    if weight == DEFAULT_EXPLORATION_WEIGHT:  # it explored them: each is its own now
        assert len({id(node) for node in siblings}) == len(siblings)


def _metrics(conn, queries):
    """Per statement, its metrics with the wall times taken out."""
    cursor = conn.cursor()
    measured = []
    for query in queries:
        cursor.execute(query.query.display(), use_result_cache=False)
        metrics = cursor.result().metrics
        fields = {k: v for k, v in dataclasses.asdict(metrics).items() if k not in WALL_FIELDS}
        fields["extra"] = {k: v for k, v in metrics.extra.items() if k not in WALL_EXTRA}
        measured.append(fields)
    cursor.close()
    return measured


def test_a_warm_connection_reports_what_a_fresh_one_does(job):
    """Across the 20 statements on a warm connection, every metric but the
    wall times equals what the same statement sequence gives on a fresh
    connection at one worker."""
    first, cursor = _warm_connection(job, passes=2)
    cursor.close()
    second, cursor = _warm_connection(job, passes=2)
    cursor.close()
    try:
        warm = _metrics(first, job.queries)
        assert warm == _metrics(second, job.queries)
        assert all(fields["time_slices"] for fields in warm)
    finally:
        first.close()
        second.close()
