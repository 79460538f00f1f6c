"""Tests for morsel-parallel Skinner-C and the ExecutionBackend API.

The central property: the worker pool changes *where* a query's morsels
run, never *what* they compute.  A query executed with N workers must
produce byte-identical result rows and identical meter charges to the same
query with 1 worker — and identical rows to the plain single-process
Skinner-C task — because the morsel plan is a pure function of the data,
never of the pool size.  On top of that the new surface is pinned:
``?workers=N`` applied server-side, registry conformance validation,
fallback rules, worker-pool hygiene, and a query that outlives its killed
workers (the ``workers`` setting's resolution and validation are
table-driven in ``tests/test_connection_settings.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DEFAULT_REGISTRY, EngineSpec, connect
from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.task import EngineTask, ExecutionBackend
from repro.errors import ReproError
from repro.query.predicates import (
    column_compare_literal,
    column_equals_column,
)
from repro.query.udf import UdfRegistry
from repro.serving import QueryServer
from repro.skinner import parallel
from repro.skinner.parallel import ParallelSkinnerCTask, shutdown_workers
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import make_rng
from benchmarks.paper.queries import make_query
from tests.conftest import udf_predicate


@pytest.fixture(autouse=True)
def _small_morsels(monkeypatch):
    """Morsels small enough that test-sized tables actually morselize."""
    monkeypatch.setattr(parallel, "MORSELS", 4)
    monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 8)


def build_catalog(seed: int = 7, n1: int = 400, n2: int = 300) -> Catalog:
    rng = make_rng(seed)
    catalog = Catalog()
    catalog.add_table(Table("t1", {
        "id": [int(x) for x in rng.integers(0, 50, n1)],
        "v": [int(x) for x in rng.integers(0, 10, n1)],
    }))
    catalog.add_table(Table("t2", {
        "fk": [int(x) for x in rng.integers(0, 50, n2)],
        "w": [int(x) for x in rng.integers(0, 10, n2)],
    }))
    return catalog


def join_query(limit_v: int = 8):
    return make_query(
        ["t1", "t2"],
        predicates=[
            column_equals_column("t1", "id", "t2", "fk"),
            column_compare_literal("t1", "v", "<", limit_v),
        ],
    )


def run_parallel(catalog, query, workers: int, config: SkinnerConfig = DEFAULT_CONFIG,
                 trace: bool = False):
    task = ParallelSkinnerCTask(
        catalog, query, None, config.with_overrides(parallel_workers=workers), trace=trace
    )
    try:
        while not task.finished:
            task.run_episode()
        return task.finalize()
    finally:
        task.close()


@pytest.fixture(scope="module", autouse=True)
def _pool_hygiene():
    """After the module: no worker processes."""
    yield
    shutdown_workers()
    assert multiprocessing.active_children() == []


class TestByteIdentity:
    """Rows and charges are invariant under the worker count."""

    def test_identical_across_worker_counts(self):
        catalog = build_catalog()
        query = join_query()
        plain = SkinnerC(catalog, None, DEFAULT_CONFIG).execute(query)
        results = {w: run_parallel(catalog, query, w) for w in (1, 2, 3)}
        reference = results[1]
        assert reference.table.rows() == plain.table.rows()
        for workers, result in results.items():
            assert result.table.rows() == reference.table.rows(), workers
            assert result.metrics.work == reference.metrics.work, workers
            assert result.metrics.time_slices == reference.metrics.time_slices
            assert result.metrics.uct_nodes == reference.metrics.uct_nodes
            assert result.metrics.final_join_order == reference.metrics.final_join_order
            assert (result.metrics.extra["preprocess_work"]
                    == reference.metrics.extra["preprocess_work"])

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 1_000),
        n1=st.integers(40, 160),
        n2=st.integers(40, 160),
        limit_v=st.integers(1, 10),
    )
    def test_randomized_rows_and_charges(self, seed, n1, n2, limit_v):
        catalog = build_catalog(seed=seed, n1=n1, n2=n2)
        query = join_query(limit_v)
        plain = SkinnerC(catalog, None, DEFAULT_CONFIG).execute(query)
        single = run_parallel(catalog, query, 1)
        multi = run_parallel(catalog, query, 2)
        assert single.table.rows() == multi.table.rows() == plain.table.rows()
        assert single.metrics.work == multi.metrics.work
        assert single.metrics.extra["preprocess_work"] == multi.metrics.extra["preprocess_work"]

    def test_engine_routing_matches_plain(self):
        catalog = build_catalog()
        query = join_query()
        plain = SkinnerC(catalog, None, DEFAULT_CONFIG).execute(query)
        routed = SkinnerC(
            catalog, None, DEFAULT_CONFIG.with_overrides(parallel_workers=2)
        ).execute(query)
        assert routed.table.rows() == plain.table.rows()
        assert routed.metrics.extra["parallel_workers"] == 2

    def test_morsel_plan_ignores_worker_count(self):
        catalog = build_catalog()
        plans = []
        for workers in (1, 2, 7):
            task = ParallelSkinnerCTask(
                catalog, join_query(), None,
                DEFAULT_CONFIG.with_overrides(parallel_workers=workers),
            )
            plans.append((task._partition_alias, task._morsel_bounds))
            task.close()
        assert len(plans[0][1]) > 1
        assert plans[0] == plans[1] == plans[2]


class TestTracing:
    """Tracing does not pick the execution path: a traced statement under
    ``workers>1`` runs morsel-parallel, one trace record per slice."""

    def test_a_traced_task_is_the_coordinator(self):
        config = DEFAULT_CONFIG.with_overrides(parallel_workers=2)
        task = SkinnerC(build_catalog(), None, config).task(join_query(), trace=True)
        try:
            assert isinstance(task, ParallelSkinnerCTask)
        finally:
            task.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_traced_run_matches_the_untraced_one(self, workers):
        catalog = build_catalog()
        query = join_query()
        untraced = run_parallel(catalog, query, workers)
        traced = run_parallel(catalog, query, workers, trace=True)
        assert traced.metrics.extra["parallel_morsels"] > 1
        assert traced.table.rows() == untraced.table.rows()
        assert traced.metrics.work == untraced.metrics.work
        assert traced.metrics.time_slices == untraced.metrics.time_slices
        assert len(traced.metrics.extra["trace"]) == traced.metrics.time_slices
        assert untraced.metrics.extra["trace"] == []

    def test_a_traced_statement_runs_morsel_parallel(self):
        catalog = build_catalog()
        query = join_query()
        engine = SkinnerC(catalog, None, DEFAULT_CONFIG.with_overrides(parallel_workers=2))
        traced, untraced = engine.execute(query, trace=True), engine.execute(query)
        assert traced.metrics.extra["parallel_workers"] == 2
        assert traced.table.rows() == untraced.table.rows()
        assert traced.metrics.work == untraced.metrics.work
        assert traced.metrics.time_slices == untraced.metrics.time_slices
        assert len(traced.metrics.extra["trace"]) == traced.metrics.time_slices


class TestFallbacks:
    def test_udf_query_falls_back_with_warning(self):
        catalog = build_catalog()
        udfs = UdfRegistry()
        udfs.register("is_even", lambda value: value % 2 == 0)
        query = make_query(
            ["t1", "t2"],
            predicates=[
                column_equals_column("t1", "id", "t2", "fk"),
                udf_predicate("is_even", ("t1", "v")),
            ],
        )
        engine = SkinnerC(catalog, udfs, DEFAULT_CONFIG.with_overrides(parallel_workers=2))
        with pytest.warns(RuntimeWarning, match="UDF"):
            task = engine.task(query)
        assert isinstance(task, SkinnerCTask)
        assert not isinstance(task, ParallelSkinnerCTask)

    def test_tiny_input_falls_back_silently(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_MORSEL_ROWS", 64)
        catalog = build_catalog(n1=10, n2=10)
        config = DEFAULT_CONFIG.with_overrides(parallel_workers=2)
        task = SkinnerC(catalog, None, config).task(join_query())
        assert not isinstance(task, ParallelSkinnerCTask)

    def test_workers_one_uses_plain_task(self):
        catalog = build_catalog()
        task = SkinnerC(catalog, None, DEFAULT_CONFIG).task(join_query())
        assert isinstance(task, SkinnerCTask)
        assert not isinstance(task, ParallelSkinnerCTask)


class TestRegistryConformance:
    """The one rule: a ``task_class`` is a concrete ``EngineTask`` subclass."""

    def test_non_engine_task_class_rejected(self):
        class Task:  # the right methods, but not an EngineTask
            def run_episode(self):
                return True

            def work_total(self):
                return 0

            def finalize(self):
                raise NotImplementedError

        for task_class in (Task, "SkinnerCTask", SkinnerC):
            spec = EngineSpec("bad-task", lambda ctx: None, task_class=task_class)
            with pytest.raises(ReproError, match="concrete EngineTask subclass"):
                DEFAULT_REGISTRY.register(spec)
        assert "bad-task" not in DEFAULT_REGISTRY

    def test_abstract_task_class_rejected(self):
        class Partial(EngineTask):  # work_total and finalize missing
            def run_episode(self):
                return True

        for task_class in (EngineTask, Partial):
            spec = EngineSpec("bad-abstract", lambda ctx: None, task_class=task_class)
            with pytest.raises(ReproError, match="concrete EngineTask subclass"):
                DEFAULT_REGISTRY.register(spec)
        assert "bad-abstract" not in DEFAULT_REGISTRY

    def test_registration_without_task_class_refused(self):
        spec = EngineSpec("plain-engine", lambda ctx: None, task_class=None)
        with pytest.raises(ReproError, match="concrete EngineTask subclass"):
            DEFAULT_REGISTRY.register(spec)
        assert "plain-engine" not in DEFAULT_REGISTRY

    def test_builtin_skinner_c_names_its_task_class(self):
        spec = DEFAULT_REGISTRY.resolve("skinner-c")
        assert spec.task_class is SkinnerCTask
        # What the tasks can do is read off the task, parallel or not.
        for task_class in (SkinnerCTask, ParallelSkinnerCTask):
            assert task_class.streamable and task_class.warm_startable
        assert not DEFAULT_REGISTRY.resolve("skinner-g").task_class.streamable

    def test_abcs_are_exported(self):
        assert issubclass(SkinnerCTask, EngineTask)
        assert issubclass(SkinnerC, ExecutionBackend)


class TestServingIntegration:
    def test_cancel_mid_query_drops_unstarted_morsels(self, monkeypatch):
        monkeypatch.setattr(parallel, "MORSELS", 8)
        shutdown_workers()  # a cold pool: no morsel starts before the cancel
        catalog = build_catalog()
        config = DEFAULT_CONFIG.with_overrides(
            parallel_workers=2, slice_budget=16, serving_warm_start=False
        )
        server = QueryServer(catalog, config=config)
        ticket = server.submit(join_query(), use_result_cache=False)
        task = server._session(ticket).task
        # Morsel 0 runs on the coordinator; the rest are dispatched once it is done.
        while not task._dispatched and server.step():
            pass
        morsels = list(task._dispatched)
        assert len(morsels) == 7
        assert server.cancel(ticket)
        assert task._dispatched == []
        # The pool hands at most workers + 1 morsels to its call queue ahead
        # of time; every other morsel is cancelled before it starts.
        assert sum(future.cancelled() for future in morsels) >= len(morsels) - 3

    def test_served_parallel_matches_direct(self):
        catalog = build_catalog()
        config = DEFAULT_CONFIG.with_overrides(
            parallel_workers=2, serving_warm_start=False
        )
        server = QueryServer(catalog, config=config)
        query = join_query()
        ticket = server.submit(query, use_result_cache=False)
        while server.step():
            pass
        served = server.result(ticket)
        direct = run_parallel(catalog, query, 2, config)
        assert served.table.rows() == direct.table.rows()
        assert served.metrics.work == direct.metrics.work


def _kill_workers(workers: int):
    """SIGKILL every process of the cached pool of ``workers``; return it."""
    pool = parallel._POOLS[workers]
    for process in list(pool._processes.values()):
        os.kill(process.pid, signal.SIGKILL)
    return pool


class TestWorkerDeath:
    """A killed pool worker fails the morsels it held, never hangs the query."""

    def test_query_outlives_its_killed_workers(self):
        catalog = build_catalog()
        query = join_query()
        undisturbed = run_parallel(catalog, query, 2)
        shutdown_workers()  # the pool below is spawned by this query
        task = ParallelSkinnerCTask(
            catalog, query, None, DEFAULT_CONFIG.with_overrides(parallel_workers=2)
        )
        try:
            while not task._dispatched and not task.finished:
                task.run_episode()
            killed = _kill_workers(2)
            while not task.finished:
                task.run_episode()
            result = task.finalize()
        finally:
            task.close()
        # The coordinator ran the morsels itself: same rows, same charges.
        assert result.table.rows() == undisturbed.table.rows()
        assert result.metrics.work == undisturbed.metrics.work
        assert result.metrics.time_slices == undisturbed.metrics.time_slices
        assert result.metrics.extra["pool_broken"] is True
        assert undisturbed.metrics.extra["pool_broken"] is False
        assert 2 not in parallel._POOLS
        again = run_parallel(catalog, query, 2)
        assert parallel._POOLS[2] is not killed
        assert again.metrics.work == undisturbed.metrics.work
        assert again.metrics.extra["pool_broken"] is False
        # Workers killed while idle: shutting the pool down still returns.
        _kill_workers(2)
        shutdown = threading.Thread(target=shutdown_workers, daemon=True)
        shutdown.start()
        shutdown.join(timeout=30)
        assert not shutdown.is_alive()
        assert multiprocessing.active_children() == []


class TestWireWorkers:
    def test_dsn_workers_applies_server_side(self):
        from repro.net.server import ServerThread

        config = SkinnerConfig(slice_budget=64, serving_warm_start=False)
        with ServerThread(config=config) as live:
            catalog = build_catalog()
            for name in ("t1", "t2"):
                live.connection.add_table(catalog.table(name))
            conn = connect(live.dsn + "?workers=2")
            try:
                assert conn.info()["workers"] == 2
                sql = "SELECT t1.v, t2.w FROM t1, t2 WHERE t1.id = t2.fk"
                remote = conn.execute(sql)
                assert remote.metrics.extra["parallel_workers"] == 2
                local = connect(config)
                try:
                    for name in ("t1", "t2"):
                        local.add_table(catalog.table(name))
                    expected = local.execute(sql)
                finally:
                    local.close()
                assert remote.table.rows() == expected.table.rows()
            finally:
                conn.close()
