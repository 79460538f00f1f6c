"""The public surface, pinned — so it cannot grow without someone deciding to.

SkinnerDB's pitch is that there is nothing to tune.  Every field of
``SkinnerConfig``, every name in ``repro.__all__``, every keyword of
``connect()`` and every row of the connection settings table is an option
somebody has to test in combination with all the others, so adding one is a
reviewed decision: change the expectation here in the same PR and say why.
Removing one only needs the expectation shrunk.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import Connection, Cursor, EngineSpec, QueryServer, SkinnerConfig, connect
from repro.api import BUILTIN_SPECS, DEFAULT_REGISTRY
from repro.api.settings import SETTINGS
from repro.api.transport import LocalTransport, Transport
from repro.engine.operators import hash_join_candidates
from repro.engine.postprocess import post_process
from repro.engine.task import EngineTask
from repro.net.client import RemoteTransport
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.server import ReproServer
from tests.conftest import lru_items

CONFIG_FIELDS = {
    # Skinner-C
    "slice_budget",
    # Skinner-G/H
    "batches_per_table", "base_timeout",
    # learning
    "seed",
    # serving layer
    "serving_max_inflight", "serving_warm_start",
    # connection settings and storage
    "parallel_workers", "data_dir", "default_engine", "buffer_pool_bytes",
}

PUBLIC_NAMES = {
    "BudgetExceeded", "CatalogError", "Connection", "Cursor", "DEFAULT_CONFIG",
    "ENGINE_NAMES", "EngineRegistry", "EngineSpec", "ExecutionError", "InterfaceError",
    "OperationalError", "ParseError", "PlanningError", "Query", "QueryMetrics",
    "QueryResult", "QueryServer", "ReproError", "SchemaError", "SessionState",
    "SkinnerConfig", "Table", "__version__", "apilevel", "connect", "paramstyle",
    "parse_query", "register_engine", "threadsafety",
}

#: The engine boundary: what a spec declares and what a task may be asked.
ENGINE_SPEC_FIELDS = ["name", "factory", "task_class"]
ENGINE_TASK_NAMES = {
    "finished", "streamable", "warm_startable",
    "run_episode", "work_total", "finalize",
    "enable_streaming", "drain_new_tuples", "partial_metrics", "learned_orders", "close",
}

#: The engines the package serves; the paper's comparison engines are
#: plug-ins of ``benchmarks/paper/baselines.py``.
BUILTIN_ENGINES = (
    "skinner-c", "skinner-g", "skinner-h", "traditional",
    "skinner_g_sqlite", "skinner_h_sqlite",
)

#: What the benchmark harness owns: the comparison engines and the C_out
#: oracle of Tables 3 and 4.
HARNESS_NAMES = {
    "EddyEngine", "ReOptimizerEngine", "TrueCardinality", "optimal_plan",
    "join_subset_cardinality",
}

#: The operations that differ between in-process and ``repro://``.
TRANSPORT_VERBS = {
    "submit", "fetch_batch", "poll", "result", "release",
    "add_table", "drop_table",
    "commit", "rollback", "stats", "close",
}

#: The verbs a ``repro://`` server answers after ``hello`` (``_verb_*``).
WIRE_VERBS = {
    "submit", "fetch", "poll", "result", "release",
    "create_table", "drop_table", "commit", "rollback", "set_quota", "stats",
}

CONNECT_PARAMETERS = [
    ("config", inspect.Parameter.POSITIONAL_OR_KEYWORD),
    ("registry", inspect.Parameter.KEYWORD_ONLY),
    ("autocommit", inspect.Parameter.KEYWORD_ONLY),
    ("tenant", inspect.Parameter.KEYWORD_ONLY),
    ("timeout", inspect.Parameter.KEYWORD_ONLY),
    ("workers", inspect.Parameter.KEYWORD_ONLY),
    ("data_dir", inspect.Parameter.KEYWORD_ONLY),
    ("engine", inspect.Parameter.KEYWORD_ONLY),
]

#: Per-call options of the four ways to run a query, in signature order.
EXECUTE_PARAMETERS = {
    Cursor.execute: [
        "self", "operation", "parameters", "engine", "config", "use_result_cache",
    ],
    Connection.execute: [
        "self", "query", "engine", "config", "use_result_cache", "params",
    ],
    Connection.execute_direct: [
        "self", "query", "engine", "config", "params",
    ],
    QueryServer.submit: [
        "self", "query", "engine", "config", "tenant", "use_result_cache", "stream",
    ],
    Transport.submit: [
        "self", "operation", "parameters", "engine", "config", "use_result_cache",
        "stream", "release", "first",
    ],
}


def test_config_fields_are_exactly_these():
    fields = [field.name for field in dataclasses.fields(SkinnerConfig)]
    assert len(fields) == len(set(fields)) == 10
    assert set(fields) == CONFIG_FIELDS


def test_every_config_field_has_a_reader():
    """A field nothing in ``repro`` reads is a knob with one value: a constant.

    Every field must be read as an attribute (``config.<field>``) somewhere
    outside ``repro/config.py``, so deleting a field's last reader fails here
    instead of leaving the field behind.
    """
    package = Path(repro.__file__).parent
    read: set[str] = set()
    for path in package.rglob("*.py"):
        if path == package / "config.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    assert CONFIG_FIELDS - read == set()


def test_engine_contract_is_exactly_this():
    """One statement of the task contract: the spec's three fields, the
    three abstract methods, and a default for every optional hook."""
    assert [field.name for field in dataclasses.fields(EngineSpec)] == ENGINE_SPEC_FIELDS
    public = {name for name in vars(EngineTask) if not name.startswith("_")}
    assert public == ENGINE_TASK_NAMES
    assert EngineTask.__abstractmethods__ == {"run_episode", "work_total", "finalize"}
    assert not (EngineTask.streamable or EngineTask.warm_startable)


def test_package_exports_are_exactly_these():
    assert len(repro.__all__) == len(set(repro.__all__))
    assert set(repro.__all__) == PUBLIC_NAMES
    assert all(hasattr(repro, name) for name in repro.__all__)


def test_connect_signature_is_exactly_this():
    parameters = inspect.signature(connect).parameters.values()
    assert [(p.name, p.kind) for p in parameters] == CONNECT_PARAMETERS
    defaults = {p.name: p.default for p in parameters}
    assert defaults.pop("config") == SkinnerConfig()
    assert defaults.pop("autocommit") is False
    assert set(defaults.values()) == {None}


def test_settings_table_is_exactly_this():
    assert [(s.name, s.config_field, s.env_var) for s in SETTINGS] == [
        ("workers", "parallel_workers", "REPRO_PARALLEL_WORKERS"),
        ("data_dir", "data_dir", "REPRO_DATA_DIR"),
        ("engine", "default_engine", "REPRO_ENGINE"),
    ]
    # Each setting is a connect() keyword and lands in a real config field.
    assert {s.name for s in SETTINGS} <= {name for name, _ in CONNECT_PARAMETERS}
    assert {s.config_field for s in SETTINGS} <= CONFIG_FIELDS


def test_execute_signatures_are_exactly_these():
    for function, expected in EXECUTE_PARAMETERS.items():
        assert list(inspect.signature(function).parameters) == expected, function.__qualname__


def test_transport_carries_exactly_the_boundary_verbs():
    """A transport carries what crosses the local/remote boundary and
    nothing derivable from it: ``execute``, table creation and file loads
    are written once, in ``Connection``.  Tables are fetched in one
    batch-returning form, and there is one wire encoding."""
    assert Transport.__abstractmethods__ == TRANSPORT_VERBS
    public = {name for name in vars(Transport) if not name.startswith("_")}
    assert public == TRANSPORT_VERBS | {"tenant"}
    derived = ("execute", "fetch", "create_table", "load_csv", "load_document", "register_udf")
    for owner in (LocalTransport, RemoteTransport, QueryServer):
        assert not [name for name in derived if hasattr(owner, name)], owner.__name__
    assert list(inspect.signature(QueryServer.fetch_batch).parameters) == [
        "self", "ticket", "max_rows", "drive"]
    assert list(inspect.signature(Transport.fetch_batch).parameters) == [
        "self", "ticket", "max_rows"]
    assert list(inspect.signature(Transport.submit).parameters)[-3:] == [
        "stream", "release", "first"]
    assert PROTOCOL_VERSION == 7


def test_the_wire_answers_exactly_these_verbs():
    """``release`` is the one way to let go of a ticket, on the wire too."""
    verbs = {name.removeprefix("_verb_") for name in vars(ReproServer)
             if name.startswith("_verb_")}
    assert verbs == WIRE_VERBS


def test_the_cursor_has_one_path_for_both_transports():
    """The cursor never asks which transport it has or what it can do."""
    tree = ast.parse(inspect.getsource(inspect.getmodule(Cursor)))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"hasattr", "isinstance", "is_remote", "LocalTransport",
                        "RemoteTransport"}


def _parameter_offenders(names: set[str]) -> list[str]:
    """Functions and methods of the package taking any of ``names``."""
    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        functions = []
        for member in vars(module).values():
            if getattr(member, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(member):
                functions.append(member)
            elif inspect.isclass(member):
                functions += [
                    getattr(attribute, "__func__", attribute)
                    for attribute in vars(member).values()
                    if inspect.isfunction(getattr(attribute, "__func__", attribute))
                ]
        offenders += [
            f"{module.__name__}.{function.__qualname__}"
            for function in functions
            if names & set(inspect.signature(function).parameters)
        ]
    return offenders


def test_modelled_threads_is_an_argument_of_the_report_only():
    """No callable of the package takes a modelled system or core count.

    The product reports work units and wall seconds; ``threads`` and the
    engine ``profile`` (``dbms_profile``) weight a finished run's work in
    the bench reports only (``benchmarks/paper``).
    """
    assert _parameter_offenders({"threads", "profile", "dbms_profile"}) == []


def test_a_statement_is_sql_parameters_engine_and_config():
    """No callable of the package takes a forced join order or a
    per-statement scheduling knob.  An experiment forces an order on an
    engine object (``execute_with_order``), and tenant quotas are the
    server's one scheduling policy."""
    assert _parameter_offenders({"forced_order", "weight", "priority"}) == []


def test_the_package_is_the_engine():
    """The paper harness and the test oracles live beside the package, not in it.

    No module under ``src/repro`` imports ``tests`` or ``benchmarks``, the
    harness and the Postgres adapter are gone from the installed package,
    and the join and post-processing operators have one path each.
    """
    package = Path(repro.__file__).parent
    offenders = []
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(package)}: {name}"
                for name in names
                if name.split(".")[0] in ("tests", "benchmarks")
            ]
    assert offenders == []
    modules = {info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")}
    assert not {"repro.bench", "repro.external.postgres_adapter"} & modules
    for operator in (hash_join_candidates, post_process):
        assert "mode" not in inspect.signature(operator).parameters, operator.__name__


def test_the_package_serves_exactly_these_engines():
    assert DEFAULT_REGISTRY.names() == BUILTIN_ENGINES
    assert tuple(spec.name for spec in BUILTIN_SPECS) == BUILTIN_ENGINES


def _harness_offenders(package: Path) -> list[str]:
    """Where a module under ``package`` defines or imports a harness name,
    imports ``benchmarks``, or compares a ``__name__`` attribute with a
    string (recognising a class by its name)."""
    offenders = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in HARNESS_NAMES:
                    offenders.append(f"{where}:{node.lineno}: defines {node.name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names] if isinstance(
                    node, ast.Import) else [node.module or ""]
                names = {alias.name.split(".")[-1] for alias in node.names}
                if any(module.split(".")[0] == "benchmarks" for module in modules):
                    offenders.append(f"{where}:{node.lineno}: imports benchmarks")
                offenders += [f"{where}:{node.lineno}: imports {name}"
                              for name in sorted(names & HARNESS_NAMES)]
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(o, ast.Attribute) and o.attr == "__name__"
                       for o in operands) and any(
                        isinstance(o, ast.Constant) and isinstance(o.value, str)
                        for o in operands):
                    offenders.append(f"{where}:{node.lineno}: compares __name__")
    return offenders


def test_the_baselines_and_the_oracle_are_harness_plugins():
    """The eddy, the re-optimizer and the C_out oracle live in
    ``benchmarks/paper`` and reach the package through ``register_engine``
    and the plan executor's public calls; no optimizer recognises an
    estimator by its class name."""
    assert _harness_offenders(Path(repro.__file__).parent) == []


def test_the_harness_scan_sees_each_offence(tmp_path):
    (tmp_path / "defines.py").write_text("class TrueCardinality:\n    pass\n")
    (tmp_path / "imports.py").write_text("from somewhere import EddyEngine, optimal_plan\n")
    (tmp_path / "harness.py").write_text("import benchmarks.paper.baselines\n")
    (tmp_path / "sniffs.py").write_text(
        "def kind(x):\n    return type(x).__name__ == 'TrueCardinality'\n")
    (tmp_path / "main.py").write_text("if __name__ == '__main__':\n    pass\n")
    assert _harness_offenders(tmp_path) == [
        "defines.py:1: defines TrueCardinality",
        "harness.py:1: imports benchmarks",
        "imports.py:1: imports EddyEngine",
        "imports.py:1: imports optimal_plan",
        "sniffs.py:2: compares __name__",
    ]


def test_the_ablations_are_harness_variants():
    """Tables 5 and 6 run engine variants of ``benchmarks/paper/ablations.py``.

    No module of the package names the ablation switches that once were
    config fields, and Skinner-C and Skinner-G pick orders by UCT alone:
    neither imports ``random``.
    """
    package = Path(repro.__file__).parent
    named = [
        f"{path.relative_to(package)}: {name}"
        for path in package.rglob("*.py")
        for name in ("order_selection", "use_hash_jump")
        if name in path.read_text(encoding="utf-8")
    ]
    assert named == []
    for module in ("skinner/skinner_c.py", "skinner/skinner_g.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        imported = {
            alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
        } | {
            (node.module or "").split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        }
        assert "random" not in imported, module


def test_skinner_g_and_h_have_two_hosts_and_no_layer_around_them():
    """A provider returns a ``GenericEngine``: the plan executor is one, the
    sqlite engine the other, and nothing wraps, abstracts or configures
    either beyond what one value in use needs."""
    import repro.external
    from repro.engine.executor import PlanExecutor
    from repro.engine.task import GenericEngine
    from repro.external import SqlEmitter, SqliteAdapter
    from repro.skinner import skinner_g

    assert not (Path(repro.__file__).parent / "external" / "adapter.py").exists()
    assert "DbmsAdapter" not in repro.external.__all__
    assert not hasattr(repro.external, "DbmsAdapter")
    assert list(inspect.signature(SqliteAdapter).parameters) == []
    assert list(inspect.signature(SqlEmitter).parameters) == ["catalog", "query"]
    assert issubclass(PlanExecutor, GenericEngine)
    assert not hasattr(skinner_g, "InternalGenericEngine")
    engine_field = {field.name: field for field in
                    dataclasses.fields(skinner_g.GenericLearningRun)}["engine"]
    assert engine_field.default is dataclasses.MISSING
    assert engine_field.default_factory is dataclasses.MISSING
    assert not hasattr(GenericEngine, "close")
    assert list(inspect.signature(PlanExecutor.pre_process).parameters) == ["self", "meter"]


#: Row-at-a-time accessors: a call to one of them is a per-row path.
ROW_AT_A_TIME_CALLS = {"evaluate", "binding", "row", "binding_for", "value_at"}


def test_operators_evaluate_expressions_over_arrays_only():
    """The filters, the multi-way join and post-processing have one path.

    They evaluate every expression, UDF calls included, through
    ``repro.engine.vectorized``; none of them calls ``Expression.evaluate``,
    ``Predicate.evaluate`` or a per-row binding accessor.
    """
    package = Path(repro.__file__).parent
    offenders = []
    for module in ("engine/operators.py", "engine/postprocess.py", "skinner/multiway_join.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            function = node.func
            name = function.attr if isinstance(function, ast.Attribute) else getattr(
                function, "id", None)
            if name in ROW_AT_A_TIME_CALLS:
                offenders.append(f"{module}:{node.lineno}: {name}(")
    assert offenders == []


#: Run arithmetic: what turns per-prefix runs into flat candidate arrays.
RUN_ARITHMETIC_CALLS = {"repeat", "cumsum", "tile", "divmod"}


def test_one_join_step_kernel():
    """Both executors take a join step's candidates from ``engine/joinsteps.py``.

    Neither the plan executor's operators nor the multi-way join expand runs
    themselves: no call to ``repeat``, ``cumsum``, ``tile`` or ``divmod``
    outside the shared kernel.
    """
    package = Path(repro.__file__).parent
    offenders = []
    for module in ("engine/operators.py", "engine/executor.py", "skinner/multiway_join.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            function = node.func
            name = function.attr if isinstance(function, ast.Attribute) else getattr(
                function, "id", None)
            if name in RUN_ARITHMETIC_CALLS:
                offenders.append(f"{module}:{node.lineno}: {name}(")
    assert offenders == []


def _scoped_nodes(tree: ast.AST, scope: tuple[str, ...] = ()):
    """``(enclosing class/function names, node)`` for every node under ``tree``."""
    for child in ast.iter_child_nodes(tree):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, child.name)
        yield from _scoped_nodes(child, inner)


def test_every_task_runs_the_one_episode_loop():
    """One task lifecycle: ``GeneratorTask`` is the only task that writes
    ``run_episode``, the one place a task post-processes (beside the
    server's projection of streamed rows), and the one metrics builder."""
    package = Path(repro.__file__).parent
    episodes, post_processing, measured = [], [], []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, node in _scoped_nodes(tree):
            where = f"{path.relative_to(package)}:{'.'.join(scope)}"
            if isinstance(node, ast.FunctionDef) and node.name == "run_episode":
                episodes.append(where)
            if not isinstance(node, ast.Call):
                continue
            function = node.func
            if isinstance(function, ast.Name) and function.id == "post_process":
                post_processing.append(where)
            if (isinstance(function, ast.Attribute) and function.attr == "measured"
                    and isinstance(function.value, ast.Name)
                    and function.value.id == "QueryMetrics"):
                measured.append(where)
    assert episodes == ["engine/task.py:EngineTask", "engine/task.py:GeneratorTask"]
    assert post_processing == [
        "engine/task.py:GeneratorTask.finalize", "serving/server.py:QueryServer._pump_stream"]
    assert measured == ["engine/task.py:GeneratorTask.partial_metrics"]
    # The per-engine builders folded into the tasks' ``metric_fields``.
    from repro.skinner import skinner_c, skinner_g, skinner_h

    assert not hasattr(skinner_c, "skinner_c_metrics")
    assert not hasattr(skinner_g.SkinnerG, "_finalize")
    assert not hasattr(skinner_h.SkinnerH, "_traditional_result")



#: The task surface the morsel coordinator inherits from ``SkinnerCTask``.
COORDINATOR_INHERITS = {
    "enable_streaming", "drain_new_tuples", "stream_aliases", "stream_tables",
    "learned_orders", "order_evidence", "run_episode", "finalize",
}


def test_the_morsel_coordinator_is_a_skinner_c_task():
    """``ParallelSkinnerCTask`` is a ``SkinnerCTask`` over morsel 0: it
    overrides hooks (``preprocess``, ``episodes``, ``meters``,
    ``metric_fields``) but defines none of the task surface, so nothing in
    it forwards to a second, wrapped task."""
    from repro.skinner.parallel import ParallelSkinnerCTask
    from repro.skinner.skinner_c import SkinnerCTask

    assert ParallelSkinnerCTask.__bases__ == (SkinnerCTask,)
    (cls,) = ast.parse(inspect.getsource(ParallelSkinnerCTask)).body
    defined = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {target.id for target in targets if isinstance(target, ast.Name)}
    assert not defined & COORDINATOR_INHERITS
    assert "_pilot" not in inspect.getsource(inspect.getmodule(ParallelSkinnerCTask))


#: Names the one versioned LRU replaced: count bounds and per-cache classes.
RETIRED_CACHE_NAMES = {
    "MAX_PARSED", "RESULT_CACHE_SIZE", "ORDER_CACHE_SIZE",
    "_LruCache", "ResultCache", "JoinOrderCache",
}


def _cache_offenders(package: Path) -> list[str]:
    """Where a module under ``package`` imports ``OrderedDict`` outside the
    versioned LRU and the buffer pool, defines a retired cache name, or
    defines ``MAX_BYTES`` outside the versioned LRU."""
    own_lru = {Path("engine/versioned_lru.py"), Path("storage/buffer.py")}
    offenders = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.split(".")[-1] for alias in node.names}
                if "OrderedDict" in names and where not in own_lru:
                    offenders.append(f"{where}:{node.lineno}: imports OrderedDict")
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in RETIRED_CACHE_NAMES:
                    offenders.append(f"{where}:{node.lineno}: defines {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    name = target.id if isinstance(target, ast.Name) else None
                    if name in RETIRED_CACHE_NAMES or (
                            name == "MAX_BYTES" and where != Path("engine/versioned_lru.py")):
                        offenders.append(f"{where}:{node.lineno}: defines {name}")
    return offenders


def test_only_skinner_c_keeps_a_result_set():
    """Only Skinner-C's join orders repeat tuples (paper §4.5): every other
    engine's rows are distinct by construction and skip ``JoinResultSet``."""
    root = Path(repro.__file__).parent.parent.parent
    users = set()
    for folder in ("src/repro", "benchmarks/paper"):
        for path in (root / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if any(isinstance(node, ast.Name) and node.id == "JoinResultSet"
                   or isinstance(node, ast.alias) and node.name == "JoinResultSet"
                   for node in ast.walk(tree)):
                users.add(path.relative_to(root).as_posix())
    assert users == {"src/repro/skinner/__init__.py", "src/repro/skinner/skinner_c.py",
                     "src/repro/skinner/multiway_join.py"}


def test_one_function_sorts_every_canonical_order(monkeypatch):
    from repro.engine import relation as relation_module
    from repro.engine.relation import RowIdRelation
    from repro.skinner.result_set import JoinResultSet

    sorted_ = []
    original = relation_module._lexicographic_order

    def counted(matrix):
        sorted_.append(matrix.shape[0])
        return original(matrix)

    monkeypatch.setattr(relation_module, "_lexicographic_order", counted)
    rows = np.array([[2, 0], [0, 1], [1, 1]], dtype=np.int64)
    results = JoinResultSet(("a", "b"))
    results.emit(rows, "one order")
    expected = [[0, 1], [1, 1], [2, 0]]
    assert RowIdRelation.from_blocks(("a", "b"), [rows]).matrix().tolist() == expected
    assert results.to_relation().matrix().tolist() == expected
    assert RowIdRelation.from_matrix(("a", "b"), rows).canonical_order().matrix().tolist() \
        == expected
    assert sorted_ == [3, 3, 3]


def test_every_cache_of_derived_values_is_one_versioned_lru():
    """Parses, filtered positions, join maps, prepared statements (their
    hash-jump edges inside), results and order priors live in
    :class:`~repro.engine.versioned_lru.VersionedLru` instances under one
    byte bound; the buffer pool's page cache is the one other LRU."""
    from repro.engine.statement_cache import StatementCache
    from repro.engine.versioned_lru import VersionedLru
    from repro.storage.catalog import Catalog

    assert _cache_offenders(Path(repro.__file__).parent) == []
    serving = importlib.import_module("repro.serving")
    assert not {"ResultCache", "JoinOrderCache"} & set(serving.__all__)
    catalog = Catalog()
    server = QueryServer(catalog)
    for cache in (StatementCache.of(catalog).lru, server.result_cache, server.order_cache):
        assert type(cache) is VersionedLru
    assert set(server.stats()["cache_bytes"]) == {"statement", "result", "order"}


def test_hash_jump_edges_live_on_their_prepared_statement_only():
    """Whether Skinner-C's probing alias is cached, restricted to a morsel's
    rows or filtered by a UDF, its edges are built on the statement's
    pre-processed object: the statement cache holds four kinds of entry and
    charges exactly the bytes they hold."""
    import numpy as np

    from repro.engine.statement_cache import StatementCache
    from repro.query.parser import parse_query
    from repro.query.udf import UdfRegistry
    from repro.skinner.skinner_c import SkinnerCTask
    from repro.storage.catalog import Catalog
    from repro.storage.table import Table

    catalog = Catalog()
    catalog.add_table(Table("f", {"k": [row % 7 for row in range(60)], "v": list(range(60))}))
    catalog.add_table(Table("d", {"k": list(range(7)), "w": [k % 3 for k in range(7)]}))
    udfs = UdfRegistry()
    udfs.register("odd", lambda v: v % 2 == 1)
    sql = "SELECT COUNT(*) AS n FROM f, d WHERE f.k = d.k AND d.w > 0"
    for text, restrict in ((sql, None), (sql, {"f": np.arange(10, 40)}),
                           (f"{sql} AND odd(f.v)", None)):
        task = SkinnerCTask(catalog, parse_query(text, catalog), udfs,
                            SkinnerConfig(slice_budget=16), restrict_positions=restrict)
        while not task.finished:
            task.run_episode()
        assert task.finalize().table.row_tuples()[0][0] > 0
        assert task.prepared._edge_cache, "the statement built no edge"
    cache = StatementCache.of(catalog)
    entries = lru_items(cache.lru)
    assert {key[0] for key, _ in entries} <= {"sql", "filter", "map", "prepared"}
    assert cache.nbytes == sum(entry.nbytes for _, entry in entries)


def test_the_cache_scan_sees_each_offence(tmp_path):
    (tmp_path / "engine").mkdir()
    (tmp_path / "engine" / "versioned_lru.py").write_text(
        "from collections import OrderedDict\nMAX_BYTES = 1\n")
    (tmp_path / "ordered.py").write_text("import collections.OrderedDict\n")
    (tmp_path / "bounds.py").write_text("MAX_BYTES = 2\nRESULT_CACHE_SIZE: int = 64\n")
    (tmp_path / "classes.py").write_text("class JoinOrderCache:\n    pass\n")
    assert _cache_offenders(tmp_path) == [
        "bounds.py:1: defines MAX_BYTES",
        "bounds.py:2: defines RESULT_CACHE_SIZE",
        "classes.py:1: defines JoinOrderCache",
        "ordered.py:1: imports OrderedDict",
    ]


#: Members that left ``src/`` because no product path ran them: deleted with
#: the tests that checked only them, or moved to ``tests/oracles/``,
#: ``tests/conftest.py`` or ``benchmarks/paper/`` (``benchmarks/reach.py``).
RETIRED_MEMBERS = {
    # deleted: only their own unit tests called them
    "JoinGraph.count_join_orders", "JoinGraph.is_connected", "JoinGraph.predicates_between",
    "JoinGraph.neighbors", "Query.output_columns", "Query.has_post_processing",
    "group_rows", "GroupedRows", "RowIdRelation.from_index_tuples", "RowIdRelation.empty",
    "PyramidTimeoutScheme.levels_used", "PyramidTimeoutScheme.base_timeout",
    "LeftDeepPlan.display", "LeftDeepPlan.num_tables", "CostMeter.charge",
    "WorkLedger.snapshot", "UctJoinTree.exploration_weight", "Connection.in_transaction",
    "AdmissionController.max_inflight", "FairScheduler.active", "UdfRegistry.names",
    "Workload.query_names", "Table.from_rows", "Table.renamed", "Table.select",
    "Table.filter_mask", "Table.column_types", "Column.__eq__", "Column.__hash__",
    "Column.raw", "Column.isin", "Column.min_max", "engine_names", "BufferManager.data_dir",
    "DurableBufferManager.data_dir", "DbmsAdapter.interrupt", "SqliteAdapter.interrupt",
    "DbmsAdapter.__enter__", "DbmsAdapter.__exit__", "Star.tables", "Star.columns",
    "Cursor.__repr__", "Table.__len__", "Table.__repr__", "Column.__repr__",
    "RowIdRelation.__repr__", "UctNode.__repr__", "FairScheduler.__len__",
    "UdfRegistry.__len__", "QueryResult.__len__", "StatementCache.__len__",
    "Expression.__str__", "Predicate.__str__", "Query.__str__", "LeftDeepPlan.__str__",
    # the tuple-at-a-time leftovers of the join map and the result set
    "GroupedJoinMap.get", "GroupedJoinMap._encode_probe", "GroupedJoinMap.__contains__",
    "GroupedJoinMap.__len__", "JoinResultSet.add", "JoinResultSet.add_many",
    "JoinResultSet.add_batch", "JoinResultSet.__contains__", "JoinResultSet.tuples",
    # moved: the harness's (benchmarks/paper/) and the tests' (tests/)
    "PlanExecutor.restricted", "_restrict_query", "hash_join_step", "make_query",
    "udf_predicate", "Expression.evaluate", "ColumnRef.evaluate", "Literal.evaluate",
    "FunctionCall.evaluate", "Star.evaluate", "Predicate.evaluate", "RowIdRelation.binding",
    "RowIdRelation.index_tuples", "PreprocessedQuery.base_row", "ucb_score",
    "UctJoinTree.selection_counts", "UctNode.subtree_size", "ProgressTracker._nodes",
    "JoinGraph.valid_join_orders", "MultiwayJoin.parked_frame_sets", "StatementCache.versions",
    "VersionedLru.items", "parse_count", "save_csv", "to_xml",
    # Skinner-G/H's hosts implement GenericEngine directly
    "InternalGenericEngine", "DbmsAdapter", "GenericEngine.close", "SqliteAdapter.connect",
    # one canonical sort, in engine/relation.py
    "JoinResultSet.to_matrix", "JoinResultSet._sorted", "RowIdRelation.deferred",
}


def _retired_offenders(package: Path) -> list[str]:
    """Where a module under ``package`` defines a retired member, by
    qualified name (``Class.method``, or a module-level name)."""
    offenders = []

    def visit(body: list[ast.stmt], prefix: str, where: Path) -> None:
        for node in body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + node.name
                if name in RETIRED_MEMBERS:
                    offenders.append(f"{where}:{node.lineno}: defines {name}")
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{name}.", where)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")).body, "",
              path.relative_to(package))
    return offenders


def test_members_no_product_path_ran_stay_out_of_the_package():
    import repro.api
    import repro.engine
    import repro.storage
    import repro.uct

    assert _retired_offenders(Path(repro.__file__).parent) == []
    exported = (set(repro.engine.__all__) | set(repro.uct.__all__) | set(repro.api.__all__)
                | set(repro.storage.__all__))
    assert not exported & RETIRED_MEMBERS


def test_the_retired_member_scan_sees_each_offence(tmp_path):
    (tmp_path / "query.py").write_text(
        "def make_query():\n    pass\n\n\nclass JoinGraph:\n"
        "    def neighbors(self):\n        pass\n\n    def eligible_next(self):\n"
        "        pass\n")
    (tmp_path / "kernels.py").write_text(
        "class GroupedRows:\n    pass\n\n\nclass Other:\n    def neighbors(self):\n"
        "        pass\n")
    assert _retired_offenders(tmp_path) == [
        "kernels.py:1: defines GroupedRows",
        "query.py:1: defines make_query",
        "query.py:6: defines JoinGraph.neighbors",
    ]


def test_every_reach_allowlist_line_names_a_src_function_and_a_reason():
    """``benchmarks/reach_allowlist.txt``: each unreached function that may
    stay, with one of the four kinds of reason.  A line naming a function
    ``src/`` no longer defines is stale."""
    from benchmarks.reach import REASON_KINDS, functions, read_allowlist

    defined = {f"{path}:{name}" for path, defs in functions().items()
               for name in defs.values()}
    entries = read_allowlist()
    assert entries
    assert sorted(set(entries) - defined) == []
    assert {name for name, (kind, _) in entries.items() if kind not in REASON_KINDS} == set()
    assert {name for name, (_, reason) in entries.items() if not reason} == set()


def test_the_reach_gate_reports_each_def_no_pass_ran():
    """``benchmarks/reach.py`` names, by path and qualified name, each
    outermost def of ``src/`` whose code no pass ran, and nothing else."""
    from benchmarks.reach import ROOT, functions, unreached

    found = functions()
    ran = {(str(ROOT / path), line) for path, defs in found.items() for line in defs}
    assert unreached(ran) == []
    missed = [(path, line, name) for path, defs in sorted(found.items())
              for line, name in sorted(defs.items())][::97]
    assert len(missed) > 5
    assert unreached(ran - {(str(ROOT / path), line) for path, line, _ in missed}) == [
        f"{path}:{name}" for path, _, name in missed]


def test_the_reach_allowlist_reads_kind_and_reason_and_refuses_a_repeat(tmp_path):
    from benchmarks.reach import read_allowlist

    path = tmp_path / "allowlist.txt"
    line = "src/repro/a.py:A.f input: only a query above the DP's table limit\n"
    path.write_text("# comment\n\n" + line)
    assert read_allowlist(path) == {
        "src/repro/a.py:A.f": ("input", "only a query above the DP's table limit")}
    path.write_text(line + line)
    with pytest.raises(ValueError, match="listed twice"):
        read_allowlist(path)
