"""Differential tests: columnar post-processing == row post-processing.

The columnar pipeline (the one ``post_process`` runs) must be observationally
identical to the row reference pipeline (``tests.oracles.rows_post_process``)
on every query shape: projections (plain, computed and UDF calls), every
aggregate function (over columns and UDF results), GROUP BY (including a UDF
whose keys mix ints and strings, so they cannot be sorted), DISTINCT, ORDER
BY (ascending and ``_Reversed`` descending keys, output aliases and source
expressions, UDF calls), and LIMIT — including row *order*, column names,
and column types.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SkinnerConfig
from repro.engine.executor import PlanExecutor
from repro.engine.meter import CostMeter
from repro.engine.postprocess import post_process
from repro.engine.relation import RowIdRelation
from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, FunctionCall, Literal, Star
from repro.query.predicates import Predicate, column_equals_column
from repro.query.query import AggregateSpec, OrderItem, SelectItem
from repro.query.udf import UdfRegistry
from repro.skinner.multiway_join import MultiwayJoin
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.state import initial_state
from repro.storage.table import Table
from tests.oracles import continue_scalar, rows_post_process
from tests.conftest import add_rows, result_tuples
from benchmarks.paper.queries import make_query

#: The post-processing of each pipeline: the row oracle and production.
PIPELINES = {"rows": rows_post_process, "columnar": post_process}

REGIONS = ["north", "south", "east", "west"]

#: The UDFs the random queries call: ``twice`` keeps its argument's type,
#: ``parity_tag`` maps an int to an int or a string, so its values group
#: (by hashing) but cannot be sorted.
UDFS = UdfRegistry()
UDFS.register("twice", lambda value: 2 * value)
UDFS.register("parity_tag", lambda value: value if value % 2 else f"even{value}")


def assert_tables_identical(expected: Table, actual: Table) -> None:
    """Same column names, same column types, same values in the same order."""
    assert expected.column_names == actual.column_names
    for name in expected.column_names:
        left, right = expected.column(name), actual.column(name)
        assert left.ctype == right.ctype, name
        left_values, right_values = left.values(), right.values()
        assert len(left_values) == len(right_values), name
        for a, b in zip(left_values, right_values):
            if isinstance(a, float) and isinstance(b, float) and np.isnan(a) and np.isnan(b):
                continue
            assert a == b, name


# ----------------------------------------------------------------------
# random query strategy over one table
# ----------------------------------------------------------------------
_COLUMN_EXPRS = [
    ColumnRef("t", "g"),
    ColumnRef("t", "a"),
    ColumnRef("t", "b"),
    ColumnRef("t", "f"),
    FunctionCall("mul", (ColumnRef("t", "a"), ColumnRef("t", "b"))),
    FunctionCall("add", (ColumnRef("t", "f"), Literal(1))),
    FunctionCall("mod", (ColumnRef("t", "b"), Literal(3))),
    FunctionCall("abs", (ColumnRef("t", "b"),)),
    FunctionCall("twice", (ColumnRef("t", "b"),)),
    FunctionCall("twice", (ColumnRef("t", "f"),)),
]
_NUMERIC_EXPRS = _COLUMN_EXPRS[1:]
_MIXED_KEY = FunctionCall("parity_tag", (ColumnRef("t", "a"),))
_AGG_FUNCTIONS = ["count", "sum", "avg", "min", "max"]


@st.composite
def postprocess_case(draw):
    """A random table, a random relation over it, and a random query."""
    num_rows = draw(st.integers(min_value=0, max_value=10))
    table = Table("base", {
        "g": [draw(st.sampled_from(REGIONS)) for _ in range(num_rows)],
        "a": [draw(st.integers(0, 6)) for _ in range(num_rows)],
        "b": [draw(st.integers(-5, 5)) for _ in range(num_rows)],
        # Dyadic rationals: sums are exact in float64 in any accumulation order.
        "f": [draw(st.integers(0, 20)) / 4.0 for _ in range(num_rows)],
    })
    if num_rows:
        result_rows = draw(st.lists(st.integers(0, num_rows - 1), max_size=18))
    else:
        result_rows = []
    relation = RowIdRelation.from_base("t", np.asarray(result_rows, dtype=np.int64))

    aggregated = draw(st.booleans())
    group_by: list = []
    items: list[SelectItem] = []
    if aggregated:
        if draw(st.booleans()):
            group_by = [draw(st.sampled_from([ColumnRef("t", "g"),
                                              FunctionCall("mod", (ColumnRef("t", "a"),
                                                                   Literal(2))),
                                              _MIXED_KEY]))]
            items.append(SelectItem(expression=group_by[0], alias="key"))
        for i, function in enumerate(draw(
                st.lists(st.sampled_from(_AGG_FUNCTIONS), min_size=1, max_size=3))):
            argument = Star() if function == "count" and draw(st.booleans()) else draw(
                st.sampled_from(_NUMERIC_EXPRS))
            items.append(SelectItem(aggregate=AggregateSpec(function, argument),
                                    alias=f"agg{i}"))
    else:
        for i, expression in enumerate(draw(
                st.lists(st.sampled_from(_COLUMN_EXPRS), min_size=1, max_size=3))):
            items.append(SelectItem(expression=expression, alias=f"col{i}"))

    names = [item.output_name(i) for i, item in enumerate(items)]
    # Ordering needs comparable values: never sort by the mixed-type key.
    sortable = [name for name in names if not (name == "key" and group_by == [_MIXED_KEY])]
    order_by = []
    for _ in range(draw(st.integers(0, 2)) if sortable else 0):
        choice = draw(st.integers(0, 2))
        if choice == 0:  # an output column, referenced by alias
            order_by.append(OrderItem(ColumnRef("out", draw(st.sampled_from(sortable))),
                                      ascending=draw(st.booleans())))
        elif choice == 1:  # an output alias under the source table's name
            order_by.append(OrderItem(ColumnRef("t", draw(st.sampled_from(sortable))),
                                      ascending=draw(st.booleans())))
        else:  # an arbitrary expression over the source tables
            order_by.append(OrderItem(draw(st.sampled_from(_COLUMN_EXPRS)),
                                      ascending=draw(st.booleans())))
    query = make_query(
        [("t", "base")],
        select_items=items,
        group_by=group_by,
        order_by=order_by,
        distinct=draw(st.booleans()),
        limit=draw(st.sampled_from([None, 0, 1, 3])),
    )
    return table, relation, query


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(postprocess_case())
def test_columnar_matches_row_pipeline(case):
    table, relation, query = case
    tables = {"t": table}
    try:
        expected = rows_post_process(query, relation, tables, UDFS)
    except ExecutionError:
        # e.g. ORDER BY unresolvable against the empty-aggregate default row:
        # the columnar pipeline must reject the query the same way.
        with pytest.raises(ExecutionError):
            post_process(query, relation, tables, UDFS)
        return
    actual = post_process(query, relation, tables, UDFS)
    assert_tables_identical(expected, actual)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(postprocess_case())
def test_both_modes_charge_identical_output_work(case):
    table, relation, query = case
    meters = {}
    for mode in ("rows", "columnar"):
        meters[mode] = CostMeter()
        try:
            PIPELINES[mode](query, relation, {"t": table}, UDFS, meters[mode])
        except ExecutionError:
            pass  # both modes raise for the same queries (see test above)
    assert meters["rows"].snapshot() == meters["columnar"].snapshot()


# ----------------------------------------------------------------------
# targeted shapes
# ----------------------------------------------------------------------
@pytest.fixture
def sales() -> tuple[Table, RowIdRelation]:
    table = Table("sales", {
        "region": ["n", "s", "n", "e", "s", "n", "e", "e"],
        "amount": [10, 20, 30, 40, 50, 60, 40, 5],
        "units": [1, 2, 3, 4, 5, 6, 2, 1],
    })
    return table, RowIdRelation.from_base("s", np.arange(table.num_rows))


def run_both(query, relation, tables):
    expected = rows_post_process(query, relation, tables)
    actual = post_process(query, relation, tables)
    assert_tables_identical(expected, actual)
    return actual


def test_select_star_and_distinct(sales):
    table, relation = sales
    run_both(make_query([("s", "sales")]), relation, {"s": table})
    run_both(make_query([("s", "sales")], distinct=True), relation, {"s": table})


def test_every_aggregate_grouped_and_global(sales):
    table, relation = sales
    for group_by in ([], [ColumnRef("s", "region")]):
        items = [SelectItem(aggregate=AggregateSpec(f, ColumnRef("s", "amount")),
                            alias=f"v_{f}")
                 for f in _AGG_FUNCTIONS]
        if group_by:
            items.insert(0, SelectItem(expression=ColumnRef("s", "region"), alias="region"))
        result = run_both(make_query([("s", "sales")], select_items=items,
                                     group_by=group_by), relation, {"s": table})
        assert result.num_rows == (3 if group_by else 1)


def test_order_by_desc_uses_reversed_semantics(sales):
    table, relation = sales
    query = make_query(
        [("s", "sales")],
        select_items=[SelectItem(expression=ColumnRef("s", "region"), alias="region"),
                      SelectItem(expression=ColumnRef("s", "amount"), alias="amount")],
        order_by=[OrderItem(ColumnRef("s", "region"), ascending=False),
                  OrderItem(ColumnRef("s", "amount"), ascending=True)],
    )
    result = run_both(query, relation, {"s": table})
    assert result.column("region").values()[0] == "s"


def test_order_by_string_column_descending_is_rank_based(sales):
    table, relation = sales
    query = make_query(
        [("s", "sales")],
        select_items=[SelectItem(expression=ColumnRef("s", "region"), alias="r")],
        order_by=[OrderItem(ColumnRef("s", "region"), ascending=False)],
        distinct=True,
    )
    result = run_both(query, relation, {"s": table})
    assert result.column("r").values() == ["s", "n", "e"]


def test_unresolvable_order_by_raises_in_both_modes(sales):
    table, relation = sales
    query = make_query(
        [("s", "sales")],
        select_items=[SelectItem(expression=ColumnRef("s", "amount"), alias="amount")],
        order_by=[OrderItem(ColumnRef("s", "no_such_column"))],
    )
    for pipeline in PIPELINES.values():
        with pytest.raises(ExecutionError):
            pipeline(query, relation, {"s": table})


def test_udf_select_items_match_row_pipeline(sales):
    table, relation = sales
    udfs = UdfRegistry()
    udfs.register("double_it", lambda v: 2 * v)
    query = make_query(
        [("s", "sales")],
        select_items=[SelectItem(expression=FunctionCall("double_it",
                                                         (ColumnRef("s", "amount"),)),
                                 alias="doubled")],
        order_by=[OrderItem(ColumnRef("s", "doubled"), ascending=False)],
    )
    expected = rows_post_process(query, relation, {"s": table}, udfs)
    actual = post_process(query, relation, {"s": table}, udfs)
    assert_tables_identical(expected, actual)
    assert actual.column("doubled").values()[0] == 120


# ----------------------------------------------------------------------
# engine-level equivalence and result-set export
# ----------------------------------------------------------------------
def _rows_reference(catalog, query) -> Table:
    """The row pipeline over the query's full join, in canonical row order."""
    executor = PlanExecutor(catalog, query)
    relation = executor.execute_order(list(query.aliases), CostMeter())
    return rows_post_process(query, relation.canonical_order(query.aliases),
                             executor.tables)


def test_skinner_c_result_matches_row_reference(tiny_catalog):
    query = make_query(
        [("c", "customers"), ("o", "orders")],
        predicates=[column_equals_column("c", "cid", "o", "cid")],
        select_items=[
            SelectItem(expression=ColumnRef("c", "country"), alias="country"),
            SelectItem(aggregate=AggregateSpec("sum", ColumnRef("o", "amount")),
                       alias="total"),
            SelectItem(aggregate=AggregateSpec("count", Star()), alias="n"),
        ],
        group_by=[ColumnRef("c", "country")],
        order_by=[OrderItem(ColumnRef("c", "total"), ascending=False)],
    )
    result = SkinnerC(tiny_catalog, config=SkinnerConfig(slice_budget=32)).execute(query)
    assert_tables_identical(_rows_reference(tiny_catalog, query), result.table)
    assert result.table.column("total").values() == [640, 470]
    assert result.table.column("country").values() == ["de", "us"]


def test_baseline_engine_results_match_row_reference(tiny_catalog):
    from repro.baselines.traditional import TraditionalEngine
    from benchmarks.paper.baselines import EddyEngine

    query = make_query(
        [("c", "customers"), ("o", "orders")],
        predicates=[column_equals_column("c", "cid", "o", "cid")],
        select_items=[
            SelectItem(expression=ColumnRef("c", "country"), alias="country"),
            SelectItem(aggregate=AggregateSpec("max", ColumnRef("o", "amount")),
                       alias="biggest"),
        ],
        group_by=[ColumnRef("c", "country")],
        order_by=[OrderItem(ColumnRef("c", "country"))],
    )
    expected = _rows_reference(tiny_catalog, query)
    for engine in (TraditionalEngine(tiny_catalog), EddyEngine(tiny_catalog)):
        result = engine.execute(query)
        assert_tables_identical(expected, result.table)
        assert result.table.column("biggest").values() == [500, 250]


def test_result_set_matrix_matches_sorted_tuples():
    result_set = JoinResultSet(("a", "b"))
    add_rows(result_set, [(3, 1), (1, 2), (1, 1), (3, 0), (1, 2)])
    matrix = result_set.to_matrix()
    assert matrix.dtype == np.int64
    assert [tuple(row) for row in matrix.tolist()] == sorted(result_tuples(result_set))
    empty = JoinResultSet(("a", "b")).to_matrix()
    assert empty.shape == (0, 2)


# ----------------------------------------------------------------------
# generic-predicate metering: only true UDF invocations hit charge_udf
# ----------------------------------------------------------------------
def _run_join(prepared, order, batch_size, udfs=None, *, scalar=False):
    join = MultiwayJoin(prepared, udfs, batch_size=batch_size)
    offsets = {alias: 0 for alias in prepared.aliases}
    state = initial_state(order, offsets)
    results = JoinResultSet(prepared.aliases)
    meter = CostMeter()
    if scalar:
        while not continue_scalar(join, state, offsets, 10_000, results, meter):
            pass
    else:
        while not join.continue_join(state, offsets, 10_000, results, meter):
            pass
    return results, meter


def test_non_udf_generic_predicates_charge_no_udf_work(tiny_catalog):
    query = make_query(
        [("c", "customers"), ("o", "orders")],
        predicates=[
            column_equals_column("c", "cid", "o", "cid"),
            # A generic (non-equi, computed) join predicate: vectorized via
            # the expression plan, and never metered as UDF work.
            Predicate(FunctionCall("add", (ColumnRef("c", "score"),
                                           ColumnRef("o", "amount"))),
                      ">", Literal(120)),
        ],
    )
    prepared = preprocess(tiny_catalog, query)
    scalar_results, scalar_meter = _run_join(prepared, ("c", "o"), 1, scalar=True)
    batched_results, batched_meter = _run_join(prepared, ("c", "o"), 64)
    assert set(result_tuples(batched_results)) == set(result_tuples(scalar_results))
    assert len(scalar_results) > 0
    assert scalar_meter.udf_invocations == 0
    assert batched_meter.udf_invocations == 0


def test_udf_predicates_charge_identically_in_both_executors(tiny_catalog):
    udfs = UdfRegistry()
    udfs.register("pricey", lambda s, a: s + a > 120, cost=5)
    query = make_query(
        [("c", "customers"), ("o", "orders")],
        predicates=[
            column_equals_column("c", "cid", "o", "cid"),
            Predicate(FunctionCall("pricey", (ColumnRef("c", "score"),
                                              ColumnRef("o", "amount")))),
        ],
    )
    prepared = preprocess(tiny_catalog, query, udfs)
    scalar_results, scalar_meter = _run_join(prepared, ("c", "o"), 1, udfs, scalar=True)
    batched_results, batched_meter = _run_join(prepared, ("c", "o"), 64, udfs)
    assert set(result_tuples(batched_results)) == set(result_tuples(scalar_results))
    assert scalar_meter.udf_invocations == batched_meter.udf_invocations > 0
