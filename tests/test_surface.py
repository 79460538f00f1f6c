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

import repro
from repro import Connection, Cursor, EngineSpec, QueryServer, SkinnerConfig, connect
from repro.api.settings import SETTINGS
from repro.api.transport import LocalTransport, Transport
from repro.engine.operators import hash_join_step
from repro.engine.postprocess import post_process
from repro.engine.task import EngineTask
from repro.net.client import RemoteTransport
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.server import ReproServer

CONFIG_FIELDS = {
    # Skinner-C
    "slice_budget", "use_hash_jump",
    # Skinner-G/H
    "batches_per_table", "base_timeout",
    # learning
    "order_selection", "seed",
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
ENGINE_SPEC_FIELDS = ["name", "factory", "supports_forced_order", "task_class"]
ENGINE_TASK_NAMES = {
    "finished", "streamable", "warm_startable",
    "run_episode", "work_total", "finalize",
    "enable_streaming", "drain_new_tuples", "partial_metrics", "learned_orders", "close",
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
        "self", "operation", "parameters", "engine", "config",
        "forced_order", "use_result_cache", "weight", "priority",
    ],
    Connection.execute: [
        "self", "query", "engine", "config", "forced_order",
        "use_result_cache", "params",
    ],
    Connection.execute_direct: [
        "self", "query", "engine", "config", "forced_order", "params",
    ],
    QueryServer.submit: [
        "self", "query", "engine", "config", "forced_order", "weight",
        "priority", "tenant", "use_result_cache", "stream",
    ],
}


def test_config_fields_are_exactly_these():
    fields = [field.name for field in dataclasses.fields(SkinnerConfig)]
    assert len(fields) == len(set(fields)) == 12
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
    """One statement of the task contract: the spec's four fields, the
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
    assert list(inspect.signature(Transport.submit).parameters)[-2:] == ["stream", "release"]
    assert PROTOCOL_VERSION == 4


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


def test_modelled_threads_is_an_argument_of_the_report_only():
    """No callable of the package takes a modelled system or core count.

    The product reports work units and wall seconds; ``threads`` and the
    engine ``profile`` (``dbms_profile``) weight a finished run's work in
    the bench reports only (``benchmarks/paper``).
    """
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
            if {"threads", "profile", "dbms_profile"} & set(inspect.signature(function).parameters)
        ]
    assert offenders == []


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
    for operator in (hash_join_step, post_process):
        assert "mode" not in inspect.signature(operator).parameters, operator.__name__


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
