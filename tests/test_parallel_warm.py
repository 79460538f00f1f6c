"""Morsel-parallel Skinner-C under a warm start.

A prior names orders and the selections they have accumulated; the pilot
starts them at that rung of the slice-budget schedule and hands what it
ends with to the remaining morsels the same way.  None of it may depend on
the pool size: rows, meter charges and slice counts of a warm-started query
are those of the one-worker run, whether the prior comes from a caller or
from the serving layer's order cache.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api import connect
from repro.config import DEFAULT_CONFIG
from repro.serving.cache import join_graph_signature
from repro.skinner.multiway_join import SECOND_LOOK_FROM
from repro.skinner.parallel import ParallelSkinnerCTask, shutdown_workers
from tests.test_parallel import _small_morsels, build_catalog, join_query  # noqa: F401

#: Slices short enough that the pilot earns a rung worth handing on.
WARM = DEFAULT_CONFIG.with_overrides(slice_budget=8)


@pytest.fixture(scope="module", autouse=True)
def _pool_hygiene():
    """After the module: no worker processes."""
    yield
    shutdown_workers()
    assert multiprocessing.active_children() == []


def _run(catalog, query, workers, order_prior=None):
    task = ParallelSkinnerCTask(
        catalog, query, None, WARM.with_overrides(parallel_workers=workers),
        order_prior=order_prior,
    )
    try:
        while not task.finished:
            task.run_episode()
        return task.finalize(), task.order_evidence()
    finally:
        task.close()


def test_seeded_morsels_are_identical_across_worker_counts():
    catalog = build_catalog()
    query = join_query()
    cold, evidence = _run(catalog, query, 1)
    winner = cold.metrics.final_join_order
    assert evidence[winner] >= SECOND_LOOK_FROM
    prior = [(winner, 1.0, 8, evidence[winner])]
    results = {workers: _run(catalog, query, workers, prior) for workers in (1, 2, 3)}
    reference, handed_on = results[1]
    assert reference.table.rows() == cold.table.rows()
    # The head start shows: the same rows in fewer, longer slices.
    assert reference.metrics.time_slices < cold.metrics.time_slices
    assert handed_on[winner] > evidence[winner]
    for workers, (result, accumulated) in results.items():
        assert result.table.rows() == reference.table.rows(), workers
        assert result.metrics.work == reference.metrics.work, workers
        assert result.metrics.time_slices == reference.metrics.time_slices, workers
        assert (result.metrics.extra["preprocess_work"]
                == reference.metrics.extra["preprocess_work"]), workers
        assert accumulated == handed_on, workers


def test_a_served_warm_start_is_identical_across_worker_counts():
    """Through ``connect()``: each statement takes the orders and the
    evidence of the one before from the order cache.  (One worker is the
    plain task there, so the pool sizes compared are two and three.)"""
    outcomes = {}
    for workers in (2, 3):
        conn = connect(WARM, workers=workers)
        for name in ("t1", "t2"):
            conn.add_table(build_catalog().table(name))
        conn.commit()
        sql = "SELECT COUNT(*) FROM t1, t2 WHERE t1.id = t2.fk AND t1.v < 8"
        runs = []
        for _ in range(3):
            cursor = conn.cursor()
            cursor.execute(sql, use_result_cache=False)
            rows = cursor.fetchall()
            metrics = cursor.result().metrics
            assert metrics.extra["parallel_workers"] == workers
            runs.append((sorted(rows), metrics.work, metrics.time_slices))
        assert conn.stats()["order_cache"]["hits"] == 2
        priors, _, _ = conn.server.order_cache.get(join_graph_signature(conn.parse(sql)))
        outcomes[workers] = (runs, priors)
        conn.close()
    assert outcomes[2] == outcomes[3]
    runs, priors = outcomes[2]
    assert runs[0][0] == runs[1][0] == runs[2][0] and runs[2][2] < runs[0][2]
    assert max(selections for _, _, _, selections in priors) >= SECOND_LOOK_FROM
