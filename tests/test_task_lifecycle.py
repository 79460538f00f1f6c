"""Every engine's task is a ``GeneratorTask``: one episode loop, one metrics builder.

What a task reports is what it was charged, at any point of its run, and a
forced join order on Skinner-C is an ordinary task that matches the
task-free loop it replaced (``tests/oracles/forced_order.py``).
"""

from __future__ import annotations

import pytest

from repro.api import DEFAULT_REGISTRY
from repro.api.registry import EngineContext
from repro.config import SkinnerConfig
from repro.engine.task import GeneratorTask
from repro.query.predicates import column_compare_literal
from repro.query.query import make_query
from repro.skinner import parallel
from repro.skinner.parallel import ParallelSkinnerCTask, shutdown_workers
from repro.skinner.skinner_c import SkinnerC
from benchmarks.paper.ablations import SkinnerCVariant
from tests.oracles import forced_order

#: Small budgets, so nearly every engine's run takes more than three episodes.
CONFIG = SkinnerConfig(slice_budget=8, batches_per_table=3, base_timeout=5)

#: Every built-in engine, the harness's plug-ins, and the morsel coordinator
#: inline and pooled.
TASKS = [*DEFAULT_REGISTRY.names(), "eddy", "reoptimizer", "parallel-1", "parallel-2"]


@pytest.fixture(scope="module", autouse=True)
def _pool_hygiene():
    yield
    shutdown_workers()


def _make_task(name, workload, monkeypatch) -> GeneratorTask:
    query = workload.queries[5].query  # four tables
    if name.startswith("parallel"):
        # The test-size morsels of tests/test_parallel.py.
        monkeypatch.setattr(parallel, "MORSELS", 4)
        monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 8)
        workers = int(name.partition("-")[2])
        return ParallelSkinnerCTask(
            workload.catalog, query, None, CONFIG.with_overrides(parallel_workers=workers))
    context = EngineContext(workload.catalog, workload.udfs, CONFIG)
    return DEFAULT_REGISTRY.resolve(name).create_task(context, query)


@pytest.mark.parametrize("name", TASKS)
def test_reported_work_is_work_total(name, job_workload, monkeypatch, baseline_engines):
    task = _make_task(name, job_workload, monkeypatch)
    assert isinstance(task, GeneratorTask)
    task.episode_rows = 8  # the baselines' episodes, as short as the others'
    try:
        episodes = 0
        for after in (0, 1, 3):
            while episodes < after and not task.finished:
                task.run_episode()
                episodes += 1
            assert task.partial_metrics(0).work.total == task.work_total(), episodes
        while not task.finished:
            task.run_episode()
        metrics = task.finalize().metrics
        assert metrics.work.total == task.work_total()
        assert metrics.extra["episode_wall_seconds"] > 0
    finally:
        task.close()


def _connected_orders(query) -> list[tuple[str, ...]]:
    """Every join order that never joins a table it shares no predicate with."""
    graph = query.join_graph()
    orders: list[tuple[str, ...]] = []

    def extend(prefix: list[str]) -> None:
        if len(prefix) == len(graph.aliases):
            orders.append(tuple(prefix))
            return
        for alias in graph.eligible_next(prefix):
            extend([*prefix, alias])

    extend([])
    return orders


def _assert_forced_matches_oracle(engine: SkinnerC, query, order, join_maps=True) -> None:
    expected = forced_order(engine, query, order, join_maps=join_maps)
    actual = engine.execute_with_order(query, order)
    assert actual.table.rows() == expected.table.rows(), order
    assert actual.metrics.work == expected.metrics.work, order
    assert actual.metrics.final_join_order == expected.metrics.final_join_order
    assert actual.metrics.extra["preprocess_work"] == expected.metrics.extra["preprocess_work"]
    assert actual.metrics.intermediate_cardinality == expected.metrics.intermediate_cardinality
    assert actual.metrics.result_tuple_count == expected.metrics.result_tuple_count
    assert actual.metrics.engine == expected.metrics.engine


def _forced_engine(workload, hash_jump: bool) -> SkinnerC:
    """Skinner-C, or without hash jumps Table 6's variant without join maps."""
    config = SkinnerConfig(slice_budget=2)
    if hash_jump:
        return SkinnerC(workload.catalog, workload.udfs, config)
    return SkinnerCVariant(workload.catalog, workload.udfs, config, join_maps=False)


@pytest.mark.parametrize("hash_jump", [True, False])
@pytest.mark.parametrize("index", [2, 5, 13])
def test_forced_order_task_matches_the_oracle(job_workload, index, hash_jump):
    query = job_workload.queries[index].query
    # 64 candidates per call: every order takes several continue_join calls.
    engine = _forced_engine(job_workload, hash_jump)
    orders = _connected_orders(query)
    assert len(orders) > 1
    for order in orders:
        _assert_forced_matches_oracle(engine, query, order, hash_jump)


@pytest.mark.parametrize("hash_jump", [True, False])
def test_forced_order_task_matches_the_oracle_on_edge_inputs(job_workload, hash_jump):
    engine = _forced_engine(job_workload, hash_jump)
    single = make_query(
        [("t", "title")], predicates=[column_compare_literal("t", "production_year", ">", 1990)])
    _assert_forced_matches_oracle(engine, single, ("t",), hash_jump)
    empty = job_workload.queries[0].query
    empty = make_query(
        list(empty.tables),
        predicates=[*empty.predicates, column_compare_literal("t", "production_year", "<", 0)],
        select_items=empty.select_items,
    )
    for order in _connected_orders(empty):
        _assert_forced_matches_oracle(engine, empty, order, hash_jump)
