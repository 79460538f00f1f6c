"""Tests for the engine registry: single dispatch point, pluggable engines."""

import pytest

from repro import ENGINE_NAMES, Connection, ReproError, SkinnerConfig, register_engine
from repro.api import DEFAULT_REGISTRY, EngineRegistry, EngineSpec, connect
from repro.engine.task import EngineTask
from repro.result import QueryMetrics, QueryResult
from repro.storage.table import Table

FAST = SkinnerConfig(slice_budget=64, batches_per_table=3, base_timeout=200)

BUILTINS = (
    "skinner-c",
    "skinner-g",
    "skinner-h",
    "traditional",
    "eddy",
    "reoptimizer",
    "skinner_g_sqlite",
    "skinner_h_sqlite",
)


class ToyEngine:
    """A trivial engine answering every query with one constant row."""

    def __init__(self, context) -> None:
        self.context = context

    def execute(self, query) -> QueryResult:
        table = Table("result", {"answer": [42]})
        return QueryResult(table, QueryMetrics(engine="toy"))


@pytest.fixture
def db() -> Connection:
    db = connect(FAST, autocommit=True)
    db.create_table("r", {"id": [1, 2, 3], "x": [10, 20, 30]})
    return db


@pytest.fixture
def toy_registered():
    spec = register_engine(name="toy", factory=ToyEngine)
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
        with pytest.raises(ReproError):
            register_engine(name="toy", factory=ToyEngine)
        register_engine(name="toy", factory=ToyEngine, replace=True)

    def test_spec_capabilities_default_off(self, toy_registered):
        spec = DEFAULT_REGISTRY.resolve("toy")
        assert not spec.supports_forced_order
        assert spec.task_class is None  # not episodic: one monolithic episode

    def test_custom_registry_is_isolated(self):
        registry = EngineRegistry()
        registry.register(EngineSpec("only", ToyEngine))
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

        register_engine(name="toy", factory=factory, replace=True)
        config = db.config.with_overrides(slice_budget=7)
        db.execute("SELECT r.x FROM r", engine="toy", config=config)
        context = captured["context"]
        assert context.catalog is db.catalog
        assert context.config == config


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


class TestForcedOrderCapability:
    def test_forced_order_rejected_without_capability(self, db):
        for call in (
            lambda: db.execute("SELECT r.x FROM r", engine="eddy", forced_order=("r",)),
            lambda: db.execute_direct(
                "SELECT r.x FROM r", engine="eddy", forced_order=("r",)
            ),
        ):
            with pytest.raises(ReproError, match="forced_order is not supported"):
                call()

    def test_forced_order_accepted_by_traditional(self, db):
        db.create_table("s", {"rid": [1, 2], "y": [5, 6]})
        result = db.execute(
            "SELECT r.x FROM r, s WHERE r.id = s.rid",
            engine="traditional",
            forced_order=("s", "r"),
        )
        assert result.metrics.final_join_order == ("s", "r")
