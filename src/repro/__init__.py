"""repro — a from-scratch reproduction of SkinnerDB (SIGMOD 2019).

SkinnerDB evaluates queries without any a-priori cost or cardinality model:
it learns near-optimal join orders *during* the execution of the current
query with the UCT reinforcement-learning algorithm, bounding the regret
against an optimal join order.  This package implements the complete system
in Python — the column-store substrate, a SQL subset, the traditional
optimizer and adaptive baselines the paper compares against, the three
Skinner execution strategies, the benchmark workloads, and a harness that
regenerates every table and figure of the paper's evaluation.

Quick start (PEP 249 API, see ``docs/api.md``)::

    from repro import connect

    conn = connect()
    conn.create_table("r", {"id": [1, 2, 3], "x": [10, 20, 30]})
    conn.create_table("s", {"rid": [1, 1, 3], "y": [7, 8, 9]})
    cur = conn.cursor()
    cur.execute("SELECT r.x, s.y FROM r, s WHERE r.id = ?", (1,))
    for row in cur:
        print(row)

Whole-result convenience (no cursor), schema mutations auto-committed::

    conn = connect(autocommit=True)
    conn.create_table("r", {"id": [1, 2, 3], "x": [10, 20, 30]})
    result = conn.execute("SELECT COUNT(*) AS n FROM r")
    print(result.rows, result.metrics.describe())
"""

from repro.api import (
    ENGINE_NAMES,
    Connection,
    Cursor,
    EngineRegistry,
    EngineSpec,
    apilevel,
    connect,
    paramstyle,
    register_engine,
    threadsafety,
)
from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.errors import (
    BudgetExceeded,
    CatalogError,
    ExecutionError,
    InterfaceError,
    OperationalError,
    ParseError,
    PlanningError,
    ReproError,
    SchemaError,
)
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.result import QueryMetrics, QueryResult
from repro.serving import QueryServer, SessionState
from repro.storage.table import Table

__version__ = "1.1.0"

__all__ = [
    "BudgetExceeded",
    "CatalogError",
    "Connection",
    "Cursor",
    "DEFAULT_CONFIG",
    "ENGINE_NAMES",
    "EngineRegistry",
    "EngineSpec",
    "ExecutionError",
    "InterfaceError",
    "OperationalError",
    "ParseError",
    "PlanningError",
    "Query",
    "QueryMetrics",
    "QueryResult",
    "QueryServer",
    "ReproError",
    "SessionState",
    "SchemaError",
    "SkinnerConfig",
    "Table",
    "apilevel",
    "connect",
    "parse_query",
    "paramstyle",
    "register_engine",
    "threadsafety",
    "__version__",
]
