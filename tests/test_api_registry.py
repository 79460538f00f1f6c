"""Tests for the engine registry: single dispatch point, pluggable engines."""

import pytest

from repro import (
    ENGINE_NAMES,
    Connection,
    InterfaceError,
    QueryServer,
    ReproError,
    SkinnerConfig,
    register_engine,
)
from repro.api import BUILTIN_SPECS, DEFAULT_REGISTRY, EngineRegistry, EngineSpec, connect
from repro.engine.task import EngineTask
from repro.net.server import ServerThread
from repro.result import QueryMetrics, QueryResult
from repro.storage.table import Table
from benchmarks.paper import baselines

FAST = SkinnerConfig(slice_budget=64, batches_per_table=3, base_timeout=200)

BUILTINS = (
    "skinner-c",
    "skinner-g",
    "skinner-h",
    "traditional",
    "skinner_g_sqlite",
    "skinner_h_sqlite",
)


class OneEpisodeTask(EngineTask):
    """A plugin that wants one episode: the whole query in its first grant."""

    def __init__(self, query) -> None:
        self.query, self.result = query, None

    def run_episode(self) -> bool:
        table = Table("result", {"answer": [42]})
        self.result = QueryResult(table, QueryMetrics(engine="toy"))
        self.finished = True
        return True

    def work_total(self) -> int:
        return self.result.metrics.work.total if self.result else 0

    def finalize(self) -> QueryResult:
        return self.result


class ToyEngine:
    """A trivial engine answering every query with one constant row."""

    def __init__(self, context) -> None:
        self.context = context

    def task(self, query) -> OneEpisodeTask:
        return OneEpisodeTask(query)


@pytest.fixture
def db() -> Connection:
    db = connect(FAST, autocommit=True)
    db.create_table("r", {"id": [1, 2, 3], "x": [10, 20, 30]})
    return db


@pytest.fixture
def toy_registered():
    spec = register_engine(name="toy", factory=ToyEngine, task_class=OneEpisodeTask)
    try:
        yield spec
    finally:
        DEFAULT_REGISTRY.unregister("toy")


class TestRegistryBasics:
    def test_builtins_registered(self):
        assert DEFAULT_REGISTRY.names() == BUILTINS

    def test_engine_names_and_servable_engines_are_registry_views(self):
        assert tuple(ENGINE_NAMES) == DEFAULT_REGISTRY.names()
        assert ENGINE_NAMES == DEFAULT_REGISTRY.names()

    def test_views_are_live(self, toy_registered):
        assert "toy" in ENGINE_NAMES
        assert list(ENGINE_NAMES) == list(DEFAULT_REGISTRY.names())

    def test_resolve_is_case_insensitive(self):
        assert DEFAULT_REGISTRY.resolve("SKINNER-C").name == "skinner-c"

    def test_duplicate_registration_rejected(self, toy_registered):
        with pytest.raises(ReproError, match="already registered"):
            register_engine(name="toy", factory=ToyEngine, task_class=OneEpisodeTask)
        register_engine(name="toy", factory=ToyEngine, task_class=OneEpisodeTask,
                        replace=True)

    def test_spec_capabilities_default_off(self, toy_registered):
        task_class = DEFAULT_REGISTRY.resolve("toy").task_class
        assert task_class is OneEpisodeTask
        assert not task_class.streamable and not task_class.warm_startable

    def test_spec_without_task_class_refused(self):
        with pytest.raises(ReproError, match="concrete EngineTask subclass, got None"):
            register_engine(name="no-task", factory=ToyEngine)
        with pytest.raises(TypeError, match="task_class"):
            EngineSpec("no-task", ToyEngine)
        assert "no-task" not in DEFAULT_REGISTRY

    def test_every_builtin_engine_names_a_task_class(self):
        for name in BUILTINS:
            assert issubclass(DEFAULT_REGISTRY.resolve(name).task_class, EngineTask)

    def test_custom_registry_is_isolated(self):
        registry = EngineRegistry()
        registry.register(EngineSpec("only", ToyEngine, OneEpisodeTask))
        assert registry.names() == ("only",)
        assert "only" not in DEFAULT_REGISTRY


class TestUnknownEngineError:
    """Satellite: the unknown-engine error comes from one place (the registry)
    with the same message on the serving and direct paths."""

    def _message(self, call) -> str:
        with pytest.raises(ReproError) as excinfo:
            call()
        return str(excinfo.value)

    def test_same_message_on_both_paths(self, db):
        served = self._message(lambda: db.execute("SELECT r.x FROM r", engine="sqlite"))
        direct = self._message(
            lambda: db.execute_direct("SELECT r.x FROM r", engine="sqlite")
        )
        assert served == direct
        assert "unknown engine 'sqlite'" in served
        assert "registered engines:" in served
        for name in BUILTINS:
            assert name in served

    def test_same_message_on_server_submit_and_cursor(self, db):
        submit = self._message(
            lambda: db.server.submit("SELECT r.x FROM r", engine="sqlite")
        )
        cursor = self._message(
            lambda: db.cursor().execute("SELECT r.x FROM r", engine="sqlite")
        )
        direct = self._message(
            lambda: db.execute_direct("SELECT r.x FROM r", engine="sqlite")
        )
        assert submit == cursor == direct


class TestCustomEngine:
    """Acceptance: a registered toy engine executes through both
    ``Connection.cursor()`` and ``Connection.execute`` without touching
    library code."""

    def test_toy_engine_via_execute(self, db, toy_registered):
        result = db.execute("SELECT r.x FROM r", engine="toy")
        assert result.rows == [{"answer": 42}]
        assert result.metrics.engine == "toy"

    def test_toy_engine_via_execute_direct(self, db, toy_registered):
        result = db.execute_direct("SELECT r.x FROM r", engine="toy")
        assert result.rows == [{"answer": 42}]

    def test_toy_engine_via_cursor(self, toy_registered):
        conn = connect(FAST)
        conn.create_table("r", {"id": [1], "x": [10]})
        cursor = conn.cursor()
        cursor.execute("SELECT r.x FROM r", engine="toy")
        assert cursor.fetchall() == [(42,)]

    def test_toy_engine_via_server_submit(self, db, toy_registered):
        ticket = db.server.submit("SELECT r.x FROM r", engine="toy")
        assert db.server.result(ticket).rows == [{"answer": 42}]

    def test_factory_receives_context(self, db, toy_registered):
        captured = {}

        def factory(context):
            captured["context"] = context
            return ToyEngine(context)

        register_engine(name="toy", factory=factory, task_class=OneEpisodeTask,
                        replace=True)
        config = db.config.with_overrides(slice_budget=7)
        db.execute("SELECT r.x FROM r", engine="toy", config=config)
        context = captured["context"]
        assert context.catalog is db.catalog
        assert context.config == config


class TestHarnessBaselinePlugins:
    """The paper's eddy and re-optimizer reach the package through
    ``register_engine()`` alone: registered, they answer on every path a
    built-in engine does, with the traditional engine's rows."""

    SQL = "SELECT r.id AS id, s.w AS w FROM r, s WHERE r.id = s.id AND r.x > 10"

    @staticmethod
    def _seed(conn):
        conn.create_table("r", {"id": [1, 2, 3, 4], "x": [10, 20, 30, 40]})
        conn.create_table("s", {"id": [2, 3, 3, 5, 1], "w": [7, 8, 9, 6, 5]})
        conn.commit()
        return conn

    @staticmethod
    def _fetchall(conn, sql, engine):
        cursor = conn.cursor()
        cursor.execute(sql, engine=engine, use_result_cache=False)
        return sorted(cursor.fetchall())

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh-registry", "default-registry"])
    def test_plugins_answer_like_traditional_on_every_path(self, fresh):
        registry = EngineRegistry() if fresh else DEFAULT_REGISTRY
        if fresh:
            for spec in BUILTIN_SPECS:
                registry.register(spec)
        target = registry if fresh else None
        try:
            assert [spec.name for spec in baselines.register(target)] == ["eddy", "reoptimizer"]
            with pytest.raises(ReproError, match="already registered"):
                baselines.register(target)
            conn = self._seed(connect(FAST, registry=registry))
            server = QueryServer(conn.catalog, conn.udfs, FAST, registry=registry)
            expected = sorted(tuple(row.values()) for row in conn.execute(
                self.SQL, engine="traditional").rows)
            assert len(expected) == 3
            with ServerThread(self._seed(connect(FAST, registry=registry))) as live:
                remote = connect(live.dsn)
                for engine in ("eddy", "reoptimizer"):
                    results = [
                        conn.execute(self.SQL, engine=engine, use_result_cache=False),
                        conn.execute_direct(self.SQL, engine=engine),
                        server.result(server.submit(self.SQL, engine=engine)),
                    ]
                    for result in results:
                        assert result.metrics.engine == engine
                        assert sorted(tuple(row.values()) for row in result.rows) == expected
                    assert self._fetchall(conn, self.SQL, engine) == expected
                    assert self._fetchall(remote, self.SQL, engine) == expected
                remote.close()
            conn.close()
        finally:
            baselines.unregister(target)
        assert registry.names() == BUILTINS
        assert tuple(ENGINE_NAMES) == BUILTINS
        with pytest.raises(InterfaceError, match="unknown engine 'eddy'"):
            registry.resolve("eddy")


class ToyTask(EngineTask):
    """The whole contract: three methods, no optional hook overridden."""

    def __init__(self) -> None:
        self.episodes = 0

    def run_episode(self) -> bool:
        self.episodes += 1
        self.finished = self.episodes >= 3
        return self.finished

    def work_total(self) -> int:
        return 10 * self.episodes

    def finalize(self) -> QueryResult:
        table = Table("result", {"answer": [self.episodes]})
        return QueryResult(table, QueryMetrics(engine="toy-task"))


class ToyEpisodicEngine:
    def __init__(self, context) -> None:
        pass

    def task(self, query) -> ToyTask:
        return ToyTask()


class TestEpisodicCustomEngine:
    """A task that is nothing but an ``EngineTask`` subclass is served like
    any other: the server calls the inherited hooks instead of probing."""

    @pytest.fixture
    def toy_task_registered(self):
        register_engine(name="toy-task", factory=ToyEpisodicEngine, task_class=ToyTask)
        try:
            yield
        finally:
            DEFAULT_REGISTRY.unregister("toy-task")

    def test_inherited_hooks_stream_at_completion_and_record_no_priors(
        self, db, toy_task_registered
    ):
        server = db.server
        ticket = server.submit("SELECT r.x FROM r LIMIT 1", engine="toy-task", stream=True)
        task = server.session(ticket).task
        assert isinstance(task, ToyTask) and not task.streamable
        assert server.step() and server.step()  # two of three episodes
        # nothing before completion
        assert server.fetch_batch(ticket, drive=False).row_tuples() == []
        assert server.fetch_batch(ticket).row_tuples() == [(3,)]
        assert server.poll(ticket)["state"] == "finished"
        assert server.poll(ticket)["work_done"] == 30 == server.ledger.grand_total()
        assert server.session(ticket).task is None  # released through close()
        assert server.order_cache.counters()["entries"] == 0
        assert task.learned_orders() == () and len(task.drain_new_tuples()) == 0
        assert task.partial_metrics(2).result_rows == 2

    def test_cancel_closes_the_task(self, db, toy_task_registered, monkeypatch):
        closed = []
        monkeypatch.setattr(ToyTask, "close", lambda self: closed.append(self))
        ticket = db.server.submit("SELECT r.x FROM r", engine="toy-task")
        task = db.server.session(ticket).task
        db.server.step()
        assert db.server.cancel(ticket)
        assert closed == [task]
