"""Property-based tests (hypothesis) for core invariants.

The most important property is differential correctness: for randomly
generated schemas, data, and SPJ queries, every engine must produce exactly
the same join result as a brute-force oracle.  Further properties cover the
pyramid timeout scheme (Lemmas 5.4/5.5), the UCT tree, reward bounds, and
column round-trips.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SkinnerConfig
from repro.engine.meter import CostMeter
from repro.query.predicates import column_compare_literal, column_equals_column
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.state import JoinState
from repro.skinner.reward import scaled_delta_reward
from repro.skinner.timeouts import PyramidTimeoutScheme
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table
from repro.uct.tree import UctJoinTree
from repro.baselines.traditional import TraditionalEngine
from benchmarks.paper.baselines import EddyEngine
from tests.conftest import index_tuples, reference_join_tuples
from tests.oracles.join_orders import valid_join_orders
from benchmarks.paper.queries import make_query

FAST = SkinnerConfig(slice_budget=32, batches_per_table=2, base_timeout=150)

# ----------------------------------------------------------------------
# random schema / data / query strategy
# ----------------------------------------------------------------------
_small_int = st.integers(min_value=0, max_value=4)


@st.composite
def catalog_and_query(draw, max_tables=3, max_rows=7):
    """A random 2-3 table catalog plus a random SPJ query over it."""
    num_tables = draw(st.integers(min_value=2, max_value=max_tables))
    catalog = Catalog()
    aliases = []
    for table_index in range(num_tables):
        name = f"t{table_index}"
        num_rows = draw(st.integers(min_value=0, max_value=max_rows))
        catalog.add_table(Table(name, {
            "k": [draw(_small_int) for _ in range(num_rows)],
            "v": [draw(_small_int) for _ in range(num_rows)],
        }))
        aliases.append(name)
    predicates = []
    # Chain of equality join predicates keeps the join graph connected.
    for i in range(num_tables - 1):
        predicates.append(column_equals_column(aliases[i], "k", aliases[i + 1], "k"))
    # Optional unary filters.
    for alias in aliases:
        if draw(st.booleans()):
            op = draw(st.sampled_from(["=", "<", ">", ">=", "<=", "!="]))
            predicates.append(column_compare_literal(alias, "v", op, draw(_small_int)))
    query = make_query(aliases, predicates=predicates)
    return catalog, query


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(catalog_and_query())
def test_all_engines_match_brute_force_oracle(bundle):
    catalog, query = bundle
    expected = reference_join_tuples(catalog, query)
    engines = [
        SkinnerC(catalog, config=FAST),
        SkinnerG(catalog, config=FAST),
        TraditionalEngine(catalog),
        EddyEngine(catalog),
    ]
    for engine in engines:
        result = engine.execute(query)
        assert result.table.num_rows == len(expected), type(engine).__name__


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(catalog_and_query(), st.permutations([0, 1, 2]))
def test_plan_executor_order_invariance(bundle, permutation):
    """Any valid join order produces the same result set."""
    from repro.engine.executor import PlanExecutor

    catalog, query = bundle
    expected = reference_join_tuples(catalog, query)
    graph = query.join_graph()
    orders = valid_join_orders(graph)
    order = orders[permutation[0] % len(orders)]
    executor = PlanExecutor(catalog, query)
    relation = executor.execute_order(list(order), CostMeter())
    assert set(index_tuples(relation, query.aliases)) == expected


# ----------------------------------------------------------------------
# pyramid timeout scheme
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_pyramid_scheme_balance_invariant(iterations):
    """Lemma 5.5: per-level time never differs by more than a factor of two."""
    scheme = PyramidTimeoutScheme()
    for _ in range(iterations):
        scheme.next_timeout()
    allocations = [v for v in scheme.time_per_level().values() if v > 0]
    assert max(allocations) <= 2 * min(allocations)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_pyramid_scheme_level_count_logarithmic(iterations):
    """Lemma 5.4: the number of levels is at most log2 of total time."""
    scheme = PyramidTimeoutScheme()
    total = 0
    for _ in range(iterations):
        total += 2 ** scheme.next_timeout().level
    assert len(scheme.time_per_level()) <= math.log2(total) + 1


# ----------------------------------------------------------------------
# UCT tree
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=60),
       st.randoms(use_true_random=False))
def test_uct_tree_invariants(num_tables, rounds, rng):
    aliases = [f"t{i}" for i in range(num_tables)]
    predicates = [column_equals_column(aliases[i], "a", aliases[i + 1], "a")
                  for i in range(num_tables - 1)]
    graph = make_query(aliases, predicates=predicates).join_graph()
    tree = UctJoinTree(graph, seed=7)
    valid = set(valid_join_orders(graph))
    for _ in range(rounds):
        before = tree.node_count()
        order = tree.choose_order()
        assert order in valid
        tree.update(order, rng.random())
        after = tree.node_count()
        assert after - before <= 1
        assert 0.0 <= tree.root.average_reward <= 1.0
    assert tree.root.visits == rounds


# ----------------------------------------------------------------------
# rewards and state
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=4),
       st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=4))
def test_scaled_delta_reward_is_bounded(prior_indices, current_indices):
    size = min(len(prior_indices), len(current_indices))
    order = tuple(f"t{i}" for i in range(size))
    cards = {alias: 10 for alias in order}
    prior = JoinState(order, prior_indices[:size])
    current = JoinState(order, current_indices[:size])
    reward = scaled_delta_reward(prior, current, cards)
    assert 0.0 <= reward <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=12), min_size=1, max_size=5))
def test_progress_fraction_bounded(indices):
    order = tuple(f"t{i}" for i in range(len(indices)))
    cards = {alias: 10 for alias in order}
    state = JoinState(order, [max(0, min(10, i)) for i in indices])
    assert 0.0 <= state.progress_fraction(cards) <= 1.0


# ----------------------------------------------------------------------
# columns
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=50))
def test_int_column_round_trip(values):
    column = Column(values)
    assert column.ctype is ColumnType.INT
    assert column.values() == values


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcde", min_size=0, max_size=4), min_size=1, max_size=40))
def test_string_column_round_trip_and_dictionary(values):
    column = Column(values, ColumnType.STRING)
    assert column.values() == values
    assert column.distinct_count() == len(set(values))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40),
       st.integers(min_value=0, max_value=20))
def test_column_compare_matches_python_semantics(values, literal):
    column = Column(values)
    for op, fn in (("=", lambda a: a == literal), ("<", lambda a: a < literal),
                   (">=", lambda a: a >= literal)):
        mask = column.compare(op, literal)
        assert mask.tolist() == [fn(v) for v in values]


# ----------------------------------------------------------------------
# cost meter
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["charge_scan", "charge_predicate", "charge_probe",
                     "charge_intermediate", "charge_output", "charge_udf"]),
    st.integers(min_value=0, max_value=50)), max_size=20))
def test_cost_meter_total_is_sum_of_charges(charges):
    meter = CostMeter()
    expected = 0
    for kind, amount in charges:
        getattr(meter, kind)(amount)
        expected += amount
    assert meter.total == expected
    assert meter.snapshot().total == expected
