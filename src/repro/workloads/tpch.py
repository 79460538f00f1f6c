"""A scaled-down TPC-H analogue and the ten queries evaluated in the paper.

The schema follows TPC-H (region, nation, supplier, customer, part,
partsupp, orders, lineitem) with a dbgen-style uniform generator at a tiny
scale factor; dates are encoded as integers ``yyyymmdd``.  Queries are
simplified select-project-join-aggregate forms of Q2, Q3, Q5, Q7, Q8, Q9,
Q10, Q11, Q18 and Q21 — the joins and filters follow the originals, the
aggregate lists are reduced to one or two aggregates.

``variant="udf"`` replaces every unary predicate with a semantically
equivalent registered UDF.  The traditional optimizer then has to fall back
to default selectivities, which is exactly the scenario in which the paper's
Table 7 and Figure 13 show SkinnerDB overtaking the traditional systems.
"""

from __future__ import annotations

from typing import Any

from repro.query.expressions import ColumnRef, FunctionCall, Star
from repro.query.predicates import Predicate, column_compare_literal, column_equals_column
from repro.query.query import AggregateSpec, Query, SelectItem
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import (
    Workload,
    WorkloadQuery,
    choice_strings,
    make_rng,
    uniform_keys,
    zipf_keys,
)

_REGIONS = ["africa", "america", "asia", "europe", "mideast"]
_SEGMENTS = ["automobile", "building", "furniture", "machinery", "household"]
_PRIORITIES = ["1-urgent", "2-high", "3-medium", "4-low", "5-none"]
_RETURN_FLAGS = ["a", "n", "r"]
_PART_TYPES = [f"type_{i}" for i in range(8)]
_BRANDS = [f"brand_{i}" for i in range(6)]

QUERY_NAMES = ("q2", "q3", "q5", "q7", "q8", "q9", "q10", "q11", "q18", "q21")


def make_tpch_workload(
    scale: float = 1.0, seed: int = 29, variant: str = "standard"
) -> Workload:
    """Build the TPC-H analogue catalog and query set.

    Parameters
    ----------
    scale:
        Multiplies all table sizes (1.0 keeps the largest table at a few
        thousand rows).
    variant:
        ``"standard"`` or ``"udf"`` (unary predicates wrapped in opaque UDFs).
    """
    if variant not in ("standard", "udf"):
        raise ValueError("variant must be 'standard' or 'udf'")
    rng = make_rng(seed)
    catalog = Catalog()
    sizes = _sizes(scale)
    _populate(catalog, rng, sizes)
    workload = Workload(
        name=f"tpch-{variant}",
        catalog=catalog,
        parameters={"scale": scale, "seed": seed, "variant": variant},
    )
    builders = {
        "q2": _q2, "q3": _q3, "q5": _q5, "q7": _q7, "q8": _q8,
        "q9": _q9, "q10": _q10, "q11": _q11, "q18": _q18, "q21": _q21,
    }
    for name in QUERY_NAMES:
        tables, predicates, select_items, description = builders[name]()
        if variant == "udf":
            predicates = _udfify(workload, name, predicates)
        query = Query(tables=tuple(tables), predicates=tuple(predicates),
                      select_items=tuple(select_items))
        workload.queries.append(WorkloadQuery(
            name=name, query=query, description=description, tags=(variant,),
        ))
    return workload


# ----------------------------------------------------------------------
# data generation
# ----------------------------------------------------------------------
def _sizes(scale: float) -> dict[str, int]:
    def scaled(base: int) -> int:
        return max(3, int(base * scale))

    return {
        "region": 5,
        "nation": 25,
        "supplier": scaled(60),
        "customer": scaled(250),
        "part": scaled(180),
        "partsupp": scaled(420),
        "orders": scaled(900),
        "lineitem": scaled(2400),
    }


def _date(rng, size: int) -> list[int]:
    years = rng.integers(1992, 1999, size=size)
    months = rng.integers(1, 13, size=size)
    days = rng.integers(1, 29, size=size)
    return (years * 10000 + months * 100 + days).tolist()


def _populate(catalog: Catalog, rng, sizes: dict[str, int]) -> None:
    catalog.add_table(Table("region", {
        "r_regionkey": list(range(sizes["region"])),
        "r_name": list(_REGIONS[: sizes["region"]]),
    }))
    n_nation = sizes["nation"]
    catalog.add_table(Table("nation", {
        "n_nationkey": list(range(n_nation)),
        "n_name": [f"nation_{i}" for i in range(n_nation)],
        "n_regionkey": uniform_keys(rng, n_nation, sizes["region"]).tolist(),
    }))
    n_supp = sizes["supplier"]
    catalog.add_table(Table("supplier", {
        "s_suppkey": list(range(n_supp)),
        "s_nationkey": uniform_keys(rng, n_supp, n_nation).tolist(),
        "s_acctbal": rng.integers(-500, 10000, size=n_supp).tolist(),
    }))
    n_cust = sizes["customer"]
    catalog.add_table(Table("customer", {
        "c_custkey": list(range(n_cust)),
        "c_nationkey": uniform_keys(rng, n_cust, n_nation).tolist(),
        "c_mktsegment": choice_strings(rng, n_cust, _SEGMENTS),
        "c_acctbal": rng.integers(-500, 10000, size=n_cust).tolist(),
    }))
    n_part = sizes["part"]
    catalog.add_table(Table("part", {
        "p_partkey": list(range(n_part)),
        "p_type": choice_strings(rng, n_part, _PART_TYPES),
        "p_size": rng.integers(1, 51, size=n_part).tolist(),
        "p_brand": choice_strings(rng, n_part, _BRANDS),
    }))
    n_ps = sizes["partsupp"]
    catalog.add_table(Table("partsupp", {
        "ps_partkey": uniform_keys(rng, n_ps, n_part).tolist(),
        "ps_suppkey": uniform_keys(rng, n_ps, n_supp).tolist(),
        "ps_supplycost": rng.integers(1, 1001, size=n_ps).tolist(),
        "ps_availqty": rng.integers(1, 10000, size=n_ps).tolist(),
    }))
    n_orders = sizes["orders"]
    catalog.add_table(Table("orders", {
        "o_orderkey": list(range(n_orders)),
        "o_custkey": uniform_keys(rng, n_orders, n_cust).tolist(),
        "o_orderdate": _date(rng, n_orders),
        "o_orderpriority": choice_strings(rng, n_orders, _PRIORITIES),
    }))
    n_li = sizes["lineitem"]
    catalog.add_table(Table("lineitem", {
        "l_orderkey": zipf_keys(rng, n_li, n_orders, skew=0.6).tolist(),
        "l_partkey": uniform_keys(rng, n_li, n_part).tolist(),
        "l_suppkey": uniform_keys(rng, n_li, n_supp).tolist(),
        "l_quantity": rng.integers(1, 51, size=n_li).tolist(),
        "l_extendedprice": rng.integers(100, 100000, size=n_li).tolist(),
        "l_discount": rng.integers(0, 11, size=n_li).tolist(),
        "l_shipdate": _date(rng, n_li),
        "l_returnflag": choice_strings(rng, n_li, _RETURN_FLAGS),
    }))


# ----------------------------------------------------------------------
# UDF variant
# ----------------------------------------------------------------------
def _udfify(workload: Workload, query_name: str, predicates: list[Predicate]) -> list[Predicate]:
    """Replace unary predicates by semantically equivalent opaque UDFs."""
    rewritten: list[Predicate] = []
    for index, predicate in enumerate(predicates):
        if not predicate.is_unary or predicate.op is None:
            rewritten.append(predicate)
            continue
        column = predicate.left
        literal = predicate.right
        if not isinstance(column, ColumnRef) or literal is None:
            rewritten.append(predicate)
            continue
        op = predicate.op
        value = literal.value
        udf_name = f"{query_name}_udf_{index}"
        workload.udfs.register(udf_name, _make_checker(op, value), cost=2)
        rewritten.append(Predicate(FunctionCall(udf_name, (column,))))
    return rewritten


def _make_checker(op: str, value: Any):
    comparators = {
        "=": lambda x: x == value,
        "!=": lambda x: x != value,
        "<": lambda x: x < value,
        "<=": lambda x: x <= value,
        ">": lambda x: x > value,
        ">=": lambda x: x >= value,
    }
    return comparators[op]


# ----------------------------------------------------------------------
# query definitions (simplified SPJA forms)
# ----------------------------------------------------------------------
def _agg(function: str, table: str, column: str, alias: str) -> SelectItem:
    return SelectItem(aggregate=AggregateSpec(function, ColumnRef(table, column)), alias=alias)


def _count(alias: str = "cnt") -> SelectItem:
    return SelectItem(aggregate=AggregateSpec("count", Star()), alias=alias)


def _q2():
    tables = [("p", "part"), ("ps", "partsupp"), ("s", "supplier"),
              ("n", "nation"), ("r", "region")]
    predicates = [
        column_equals_column("p", "p_partkey", "ps", "ps_partkey"),
        column_equals_column("ps", "ps_suppkey", "s", "s_suppkey"),
        column_equals_column("s", "s_nationkey", "n", "n_nationkey"),
        column_equals_column("n", "n_regionkey", "r", "r_regionkey"),
        column_compare_literal("p", "p_size", "=", 15),
        column_compare_literal("r", "r_name", "=", "europe"),
    ]
    select = [_agg("min", "ps", "ps_supplycost", "min_cost"), _count()]
    return tables, predicates, select, "minimum supply cost in europe"


def _q3():
    tables = [("c", "customer"), ("o", "orders"), ("l", "lineitem")]
    predicates = [
        column_equals_column("c", "c_custkey", "o", "o_custkey"),
        column_equals_column("l", "l_orderkey", "o", "o_orderkey"),
        column_compare_literal("c", "c_mktsegment", "=", "building"),
        column_compare_literal("o", "o_orderdate", "<", 19950315),
        column_compare_literal("l", "l_shipdate", ">", 19950315),
    ]
    select = [_agg("sum", "l", "l_extendedprice", "revenue"), _count()]
    return tables, predicates, select, "unshipped-order revenue"


def _q5():
    tables = [("c", "customer"), ("o", "orders"), ("l", "lineitem"),
              ("s", "supplier"), ("n", "nation"), ("r", "region")]
    predicates = [
        column_equals_column("c", "c_custkey", "o", "o_custkey"),
        column_equals_column("l", "l_orderkey", "o", "o_orderkey"),
        column_equals_column("l", "l_suppkey", "s", "s_suppkey"),
        column_equals_column("c", "c_nationkey", "s", "s_nationkey"),
        column_equals_column("s", "s_nationkey", "n", "n_nationkey"),
        column_equals_column("n", "n_regionkey", "r", "r_regionkey"),
        column_compare_literal("r", "r_name", "=", "asia"),
        column_compare_literal("o", "o_orderdate", ">=", 19940101),
        column_compare_literal("o", "o_orderdate", "<", 19950101),
    ]
    select = [_agg("sum", "l", "l_extendedprice", "revenue"), _count()]
    return tables, predicates, select, "local supplier volume"


def _q7():
    tables = [("s", "supplier"), ("l", "lineitem"), ("o", "orders"),
              ("c", "customer"), ("n1", "nation"), ("n2", "nation")]
    predicates = [
        column_equals_column("s", "s_suppkey", "l", "l_suppkey"),
        column_equals_column("o", "o_orderkey", "l", "l_orderkey"),
        column_equals_column("c", "c_custkey", "o", "o_custkey"),
        column_equals_column("s", "s_nationkey", "n1", "n_nationkey"),
        column_equals_column("c", "c_nationkey", "n2", "n_nationkey"),
        column_compare_literal("n1", "n_name", "=", "nation_3"),
        column_compare_literal("n2", "n_name", "=", "nation_7"),
    ]
    select = [_agg("sum", "l", "l_extendedprice", "revenue"), _count()]
    return tables, predicates, select, "volume shipping between two nations"


def _q8():
    tables = [("p", "part"), ("l", "lineitem"), ("o", "orders"),
              ("c", "customer"), ("n", "nation"), ("r", "region")]
    predicates = [
        column_equals_column("p", "p_partkey", "l", "l_partkey"),
        column_equals_column("l", "l_orderkey", "o", "o_orderkey"),
        column_equals_column("o", "o_custkey", "c", "c_custkey"),
        column_equals_column("c", "c_nationkey", "n", "n_nationkey"),
        column_equals_column("n", "n_regionkey", "r", "r_regionkey"),
        column_compare_literal("r", "r_name", "=", "america"),
        column_compare_literal("p", "p_type", "=", "type_3"),
        column_compare_literal("o", "o_orderdate", ">=", 19950101),
    ]
    select = [_agg("sum", "l", "l_extendedprice", "volume"), _count()]
    return tables, predicates, select, "national market share"


def _q9():
    tables = [("p", "part"), ("ps", "partsupp"), ("l", "lineitem"),
              ("s", "supplier"), ("o", "orders"), ("n", "nation")]
    predicates = [
        column_equals_column("p", "p_partkey", "l", "l_partkey"),
        column_equals_column("ps", "ps_partkey", "l", "l_partkey"),
        column_equals_column("ps", "ps_suppkey", "l", "l_suppkey"),
        column_equals_column("s", "s_suppkey", "l", "l_suppkey"),
        column_equals_column("o", "o_orderkey", "l", "l_orderkey"),
        column_equals_column("s", "s_nationkey", "n", "n_nationkey"),
        column_compare_literal("p", "p_type", "=", "type_5"),
    ]
    select = [_agg("sum", "l", "l_extendedprice", "profit"), _count()]
    return tables, predicates, select, "product type profit"


def _q10():
    tables = [("c", "customer"), ("o", "orders"), ("l", "lineitem"), ("n", "nation")]
    predicates = [
        column_equals_column("c", "c_custkey", "o", "o_custkey"),
        column_equals_column("l", "l_orderkey", "o", "o_orderkey"),
        column_equals_column("c", "c_nationkey", "n", "n_nationkey"),
        column_compare_literal("l", "l_returnflag", "=", "r"),
        column_compare_literal("o", "o_orderdate", ">=", 19931001),
        column_compare_literal("o", "o_orderdate", "<", 19940101),
    ]
    select = [_agg("sum", "l", "l_extendedprice", "lost_revenue"), _count()]
    return tables, predicates, select, "returned item reporting"


def _q11():
    tables = [("ps", "partsupp"), ("s", "supplier"), ("n", "nation")]
    predicates = [
        column_equals_column("ps", "ps_suppkey", "s", "s_suppkey"),
        column_equals_column("s", "s_nationkey", "n", "n_nationkey"),
        column_compare_literal("n", "n_name", "=", "nation_11"),
    ]
    value = FunctionCall("mul", (ColumnRef("ps", "ps_supplycost"),
                                 ColumnRef("ps", "ps_availqty")))
    select = [SelectItem(aggregate=AggregateSpec("sum", value), alias="stock_value"), _count()]
    return tables, predicates, select, "important stock identification"


def _q18():
    tables = [("c", "customer"), ("o", "orders"), ("l", "lineitem")]
    predicates = [
        column_equals_column("c", "c_custkey", "o", "o_custkey"),
        column_equals_column("o", "o_orderkey", "l", "l_orderkey"),
        column_compare_literal("l", "l_quantity", ">", 45),
    ]
    select = [_agg("sum", "l", "l_quantity", "total_quantity"), _count()]
    return tables, predicates, select, "large volume customers"


def _q21():
    tables = [("s", "supplier"), ("l", "lineitem"), ("o", "orders"), ("n", "nation")]
    predicates = [
        column_equals_column("s", "s_suppkey", "l", "l_suppkey"),
        column_equals_column("o", "o_orderkey", "l", "l_orderkey"),
        column_equals_column("s", "s_nationkey", "n", "n_nationkey"),
        column_compare_literal("o", "o_orderpriority", "=", "1-urgent"),
        column_compare_literal("n", "n_name", "=", "nation_4"),
    ]
    select = [_count("waiting_orders")]
    return tables, predicates, select, "suppliers who kept orders waiting"
