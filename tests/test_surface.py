"""The public surface, pinned — so it cannot grow without someone deciding to.

SkinnerDB's pitch is that there is nothing to tune.  Every field of
``SkinnerConfig``, every name in ``repro.__all__``, every keyword of
``connect()`` and every row of the connection settings table is an option
somebody has to test in combination with all the others, so adding one is a
reviewed decision: change the expectation here in the same PR and say why.
Removing one only needs the expectation shrunk.
"""

from __future__ import annotations

import dataclasses
import inspect

import repro
from repro import SkinnerConfig, connect
from repro.api.settings import SETTINGS

CONFIG_FIELDS = {
    # Skinner-C
    "slice_budget", "batch_size", "exploration_weight", "reward_function",
    "use_hash_jump", "share_progress", "use_offsets",
    # Skinner-G/H
    "batches_per_table", "base_timeout", "generic_exploration_weight",
    # learning
    "order_selection", "seed",
    # serving layer
    "serving_max_inflight", "serving_quantum_episodes", "serving_result_cache_size",
    "serving_order_cache_size", "serving_warm_start", "serving_warm_start_visits",
    "serving_grant_wall_ms", "serving_tenant_backlog", "serving_limit_pushdown",
    # morsel parallelism
    "parallel_workers", "parallel_morsels", "parallel_min_morsel_rows",
    "parallel_start_method",
    # storage
    "data_dir", "buffer_pool_bytes",
    # connection default
    "default_engine",
}

PUBLIC_NAMES = {
    "BudgetExceeded", "CatalogError", "Connection", "Cursor", "DEFAULT_CONFIG",
    "ENGINE_NAMES", "EngineRegistry", "EngineSpec", "ExecutionError", "InterfaceError",
    "OperationalError", "ParseError", "PlanningError", "Query", "QueryMetrics",
    "QueryResult", "QueryServer", "ReproError", "SchemaError", "SessionState",
    "SkinnerConfig", "Table", "__version__", "apilevel", "connect", "paramstyle",
    "parse_query", "register_engine", "threadsafety",
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


def test_config_fields_are_exactly_these():
    fields = [field.name for field in dataclasses.fields(SkinnerConfig)]
    assert len(fields) == len(set(fields)) == 28
    assert set(fields) == CONFIG_FIELDS


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
