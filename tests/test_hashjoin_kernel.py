"""Equivalence of the vectorized hash-join kernel and the dict-based path.

The plan executor's vectorized hash join must be observationally identical
to the dict-based reference (``tests.oracles.rows_hash_join_step``):
byte-identical ``RowIdRelation``s — same rows in the same order — and
identical meter charges, over composite keys, duplicate keys, empty build or
probe sides, cross-dictionary string keys, NaN float keys, and residual
predicates.  That is what makes the baseline comparisons of Tables 1–6
implementation-independent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.executor import PlanExecutor
from repro.engine.joinkernels import (
    GroupedJoinMap,
    encode_composite_keys,
    group_rows,
)
from repro.engine.joinsteps import Partners, Runs
from repro.engine.meter import CostMeter
from repro.engine.operators import (
    apply_residual,
    cross_candidates,
    hash_join_candidates,
    hash_join_step,
)
from repro.engine.relation import RowIdRelation
from repro.query.expressions import ColumnRef
from repro.query.predicates import (
    Predicate,
    column_compare_literal,
    column_equals_column,
)
from repro.query.query import make_query
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.workloads.generators import choice_strings, make_rng, uniform_keys, zipf_keys
from tests.conftest import counting_groupings, same_tables
from tests.oracles import rows_hash_join_step

JOIN_STEPS = {"rows": rows_hash_join_step, "vectorized": hash_join_step}


def random_catalog_and_query(seed: int, *, num_tables: int, rows: int):
    """A random catalog + SPJ query exercising every key-encoding path.

    Tables mix integer, float (with NaNs), and string join columns; string
    dictionaries deliberately differ per table (``only{t}`` values), so the
    kernel's dictionary-code translation sees values absent from the build
    side.  Predicates include composite keys (several equalities between the
    same table pair), an int-vs-float key, and non-equi residuals.
    """
    rng = make_rng(seed)
    catalog = Catalog()
    aliases = []
    for table_index in range(num_tables):
        n = int(rng.integers(0, rows + 1))
        keys = zipf_keys(rng, n, 8, skew=float(rng.uniform(0.0, 1.5)))
        floats = keys.astype(np.float64) + rng.choice([0.0, 0.5], size=n)
        floats[rng.random(n) < 0.15] = np.nan
        catalog.add_table(Table(f"t{table_index}", {
            "k": keys,
            "f": floats,
            "s": choice_strings(rng, n, ["red", "green", "blue", f"only{table_index}"]),
            "v": uniform_keys(rng, n, 6),
        }))
        aliases.append(f"t{table_index}")
    predicates = []
    for i in range(num_tables - 1):
        predicates.append(column_equals_column(aliases[i], "k", aliases[i + 1], "k"))
        if rng.random() < 0.4:  # composite string part, cross-dictionary
            predicates.append(column_equals_column(aliases[i], "s", aliases[i + 1], "s"))
        if rng.random() < 0.3:  # float keys with NaNs
            predicates.append(column_equals_column(aliases[i], "f", aliases[i + 1], "f"))
        if rng.random() < 0.3:  # int vs float key (Python 1 == 1.0 semantics)
            predicates.append(column_equals_column(aliases[i], "k", aliases[i + 1], "f"))
        if rng.random() < 0.3:  # non-equi residual
            predicates.append(
                Predicate(ColumnRef(aliases[i], "v"), "<=", ColumnRef(aliases[i + 1], "v"))
            )
    for alias in aliases:
        if rng.random() < 0.4:
            predicates.append(column_compare_literal(alias, "v", ">", int(rng.integers(0, 5))))
    return catalog, make_query(aliases, predicates=predicates)


def join_on_rows_path(executor, order, positions, meter):
    """``order`` joined step by step, every hash join on the dict-based path."""
    tables = executor.tables
    relation = RowIdRelation.from_base(order[0], positions[order[0]])
    for alias, equi, residual in executor.join_steps(order):
        if equi:
            relation = rows_hash_join_step(relation, alias, tables[alias], positions[alias],
                                           equi, residual, tables, meter)
        else:
            candidates = cross_candidates(relation, alias, positions[alias], meter)
            relation = apply_residual(candidates.take(0, candidates.total), residual,
                                      tables, meter, None)
    return relation


def run_reference(catalog, query, order):
    """The dict-based reference for ``order`` over the whole filtered tables."""
    executor = PlanExecutor(catalog, query)
    meter = CostMeter()
    positions = executor.pre_process(meter)
    relation = join_on_rows_path(executor, order, positions, meter)
    return relation, meter.snapshot()


def run_executor(catalog, query, order):
    """``order`` through the production :class:`PlanExecutor`."""
    meter = CostMeter()
    relation = PlanExecutor(catalog, query).execute_order(list(order), meter)
    return relation, meter.snapshot()


def assert_identical(catalog, query, order):
    """Executor vs reference: byte-identical relations, identical charges."""
    reference, reference_work = run_reference(catalog, query, order)
    vectorized, vectorized_work = run_executor(catalog, query, order)
    assert vectorized.aliases == reference.aliases
    for alias in reference.aliases:
        assert np.array_equal(vectorized.ids(alias), reference.ids(alias)), (
            f"alias {alias} diverges for order {order}"
        )
    assert vectorized_work == reference_work, f"meter charges diverge for order {order}"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=2, max_value=4))
def test_vectorized_equals_rows_relations_and_meters(seed, num_tables):
    """Property: identical relations (same row order) and identical charges."""
    catalog, query = random_catalog_and_query(seed, num_tables=num_tables, rows=24)
    rng = make_rng(seed + 1)
    order = list(rng.permutation(query.aliases))
    assert_identical(catalog, query, order)


class TestHashJoinStep:
    """Direct unit tests of hash_join_step and its dict-based oracle."""

    @staticmethod
    def _join(mode, prefix, table, positions, equi, residual, tables):
        meter = CostMeter()
        joined = JOIN_STEPS[mode](prefix, "b", table, positions, equi, residual,
                                  tables, meter)
        return joined, meter.snapshot()

    @staticmethod
    def _both_modes(prefix, table, positions, equi, residual, tables):
        rows, rows_work = TestHashJoinStep._join("rows", prefix, table, positions,
                                                 equi, residual, tables)
        vec, vec_work = TestHashJoinStep._join("vectorized", prefix, table, positions,
                                               equi, residual, tables)
        for alias in rows.aliases:
            assert np.array_equal(vec.ids(alias), rows.ids(alias))
        assert vec_work == rows_work
        return rows

    def _tables(self, a_values, b_values):
        a = Table("a", a_values)
        b = Table("b", b_values)
        return a, b, {"a": a, "b": b}

    def test_duplicate_keys_fanout(self):
        a, b, tables = self._tables({"x": [1, 2, 2, 3]}, {"x": [2, 2, 2, 1, 9]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        joined = self._both_modes(prefix, b, np.arange(b.num_rows),
                                  [column_equals_column("a", "x", "b", "x")], [], tables)
        # prefix rows ascending, build rows ascending within each key group
        assert joined.index_tuples(["a", "b"]) == [
            (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
        ]

    def test_empty_build_side(self):
        a, b, tables = self._tables({"x": [1, 2]}, {"x": [1, 2, 3]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        joined = self._both_modes(prefix, b, np.empty(0, dtype=np.int64),
                                  [column_equals_column("a", "x", "b", "x")], [], tables)
        assert len(joined) == 0

    def test_empty_probe_side(self):
        a, b, tables = self._tables({"x": [1, 2]}, {"x": [1, 2, 3]})
        prefix = RowIdRelation.empty(["a"])
        joined = self._both_modes(prefix, b, np.arange(b.num_rows),
                                  [column_equals_column("a", "x", "b", "x")], [], tables)
        assert len(joined) == 0

    def test_composite_key_requires_all_parts(self):
        a, b, tables = self._tables(
            {"x": [1, 1, 2], "y": ["p", "q", "p"]},
            {"x": [1, 1, 2, 2], "y": ["p", "r", "p", "zz"]},
        )
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        joined = self._both_modes(
            prefix, b, np.arange(b.num_rows),
            [column_equals_column("a", "x", "b", "x"),
             column_equals_column("a", "y", "b", "y")], [], tables)
        assert joined.index_tuples(["a", "b"]) == [(0, 0), (2, 2)]

    def test_nan_keys_never_match(self):
        nan = float("nan")
        a, b, tables = self._tables({"x": [nan, 1.5, nan]}, {"x": [nan, 1.5, nan, 2.5]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        joined = self._both_modes(prefix, b, np.arange(b.num_rows),
                                  [column_equals_column("a", "x", "b", "x")], [], tables)
        # Only the non-NaN 1.5 = 1.5 pair survives in either mode.
        assert joined.index_tuples(["a", "b"]) == [(1, 1)]

    def test_string_keys_absent_from_build_dictionary(self):
        a, b, tables = self._tables({"x": ["red", "blue", "violet"]},
                                    {"x": ["blue", "amber", "red"]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        joined = self._both_modes(prefix, b, np.arange(b.num_rows),
                                  [column_equals_column("a", "x", "b", "x")], [], tables)
        assert joined.index_tuples(["a", "b"]) == [(0, 2), (1, 0)]

    def test_int_float_cross_type_key_matches(self):
        a, b, tables = self._tables({"x": [1, 2, 3]}, {"x": [1.0, 2.5, 3.0]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        joined = self._both_modes(prefix, b, np.arange(b.num_rows),
                                  [column_equals_column("a", "x", "b", "x")], [], tables)
        assert joined.index_tuples(["a", "b"]) == [(0, 0), (2, 2)]

    def test_int_float_keys_exact_above_2_pow_53(self):
        """Python int == float is exact: 2**53 + 1 must not match 2.0**53."""
        a, b, tables = self._tables(
            {"x": [2**53 + 1, 2**53, 2**60]},
            {"x": [float(2**53), 2.5, float(2**60), float("nan"), float("inf")]},
        )
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        joined = self._both_modes(prefix, b, np.arange(b.num_rows),
                                  [column_equals_column("a", "x", "b", "x")], [], tables)
        assert joined.index_tuples(["a", "b"]) == [(1, 0), (2, 2)]

    def test_string_numeric_type_mismatch_matches_nothing(self):
        a, b, tables = self._tables({"x": [1, 2]}, {"x": ["1", "2"]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        joined = self._both_modes(prefix, b, np.arange(b.num_rows),
                                  [column_equals_column("a", "x", "b", "x")], [], tables)
        assert len(joined) == 0

    def test_residual_predicate_applied_identically(self):
        a, b, tables = self._tables({"x": [1, 1, 2], "v": [10, 20, 30]},
                                    {"x": [1, 1, 2], "w": [15, 25, 5]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        residual = [Predicate(ColumnRef("a", "v"), "<", ColumnRef("b", "w"))]
        joined = self._both_modes(prefix, b, np.arange(b.num_rows),
                                  [column_equals_column("a", "x", "b", "x")],
                                  residual, tables)
        assert joined.index_tuples(["a", "b"]) == [(0, 0), (0, 1), (1, 1)]

    def test_build_side_charged_as_scan_not_probe(self):
        """Regression: build work is scan work, probes count probe rows only."""
        a, b, tables = self._tables({"x": [1, 2]}, {"x": [1, 2, 3, 4]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        for mode, join_step in JOIN_STEPS.items():
            meter = CostMeter()
            join_step(prefix, "b", b, np.arange(b.num_rows),
                      [column_equals_column("a", "x", "b", "x")], [], tables, meter)
            assert meter.tuples_scanned == b.num_rows, mode
            assert meter.hash_probes == len(prefix), mode

    def test_budget_abort_records_identical_overshoot(self):
        """Regression: aborted runs record the same work in both modes.

        Skinner-G/H merge aborted slice meters into their reported work, so
        the vectorized path must stop charging at the same probe-row group
        as the rows path instead of recording the whole join's count.
        """
        from repro.errors import BudgetExceeded

        n = 60
        a, b, tables = self._tables({"x": [7] * n}, {"x": [7] * n})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        totals = {}
        for mode, join_step in JOIN_STEPS.items():
            meter = CostMeter(budget=n + n + 25)  # aborts mid-intermediate
            with pytest.raises(BudgetExceeded):
                join_step(prefix, "b", b, np.arange(b.num_rows),
                          [column_equals_column("a", "x", "b", "x")], [], tables, meter)
            totals[mode] = meter.snapshot()
        assert totals["vectorized"] == totals["rows"]

    def test_budget_abort_many_groups_identical(self):
        from repro.errors import BudgetExceeded

        a, b, tables = self._tables({"x": [1, 2, 3, 4, 5]}, {"x": [1, 1, 2, 3, 3, 3, 5]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        for budget in range(7, 20):
            totals = {}
            for mode, join_step in JOIN_STEPS.items():
                meter = CostMeter(budget=budget)
                try:
                    join_step(prefix, "b", b, np.arange(b.num_rows),
                              [column_equals_column("a", "x", "b", "x")], [], tables, meter)
                except BudgetExceeded:
                    pass
                totals[mode] = meter.snapshot()
            assert totals["vectorized"] == totals["rows"], f"budget {budget}"

    def test_budget_abort_unique_key_identical(self):
        """A unique build key gives the plan executor partner rows, and a
        budget that runs out among them stops where the dict path stops."""
        from repro.errors import BudgetExceeded

        a, b, tables = self._tables({"x": [4, 1, 8, 2, 2, 5, 9, 6, 3]},
                                    {"x": [5, 1, 2, 3, 4, 6, 7]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        equi = [column_equals_column("a", "x", "b", "x")]
        candidates = hash_join_candidates(prefix, "b", b, np.arange(b.num_rows), equi,
                                          tables, CostMeter())
        assert isinstance(candidates.shape, Partners) and candidates.total == 7
        build_and_probe = b.num_rows + a.num_rows
        for budget in range(build_and_probe - 1, build_and_probe + 9):
            totals = {}
            for mode, join_step in JOIN_STEPS.items():
                meter = CostMeter(budget=budget)
                try:
                    join_step(prefix, "b", b, np.arange(b.num_rows), equi, [], tables, meter)
                except BudgetExceeded:
                    pass
                totals[mode] = meter.snapshot()
            assert totals["vectorized"] == totals["rows"], f"budget {budget}"

    def test_unique_key_suffix_equals_a_map_over_the_remainder(self):
        """Partner rows from a suffix view (``lower > 0``), of the cached
        map or of one grouped for the join, are the rows and the charges
        of a map grouped afresh over the remainder."""
        a, b, tables = self._tables({"x": [3, 7, 1, 3, 5, 0, 6], "v": [1, 2, 3, 4, 5, 6, 7]},
                                    {"x": [6, 3, 1, 7, 5, 2], "w": [4, 4, 1, 9, 2, 7]})
        prefix = RowIdRelation.from_base("a", np.arange(a.num_rows))
        equi = [column_equals_column("a", "x", "b", "x")]
        residual = [Predicate(ColumnRef("a", "v"), "<", ColumnRef("b", "w"))]
        positions = np.array([0, 1, 2, 3, 5], dtype=np.int64)
        grouped = GroupedJoinMap(b.column("x"), positions)
        assert grouped.unique
        for lower in range(1, positions.shape[0] + 1):
            remainder = positions[lower:]
            fresh = GroupedJoinMap(b.column("x"), remainder)
            runs = {
                "cached": (positions, lower, lambda columns: grouped.suffix(lower)),
                "grouped": (positions, lower, None),
                "fresh": (remainder, 0, lambda columns: fresh),
            }
            results = {}
            for name, (build, cut, build_side) in runs.items():
                meter = CostMeter()
                joined = hash_join_step(prefix, "b", b, build, equi, residual, tables, meter,
                                        lower=cut, build_side=build_side)
                results[name] = joined.matrix().tolist(), meter.snapshot()
            meter = CostMeter()
            joined = rows_hash_join_step(prefix, "b", b, remainder, equi, residual, tables, meter)
            results["rows"] = joined.matrix().tolist(), meter.snapshot()
            assert len(set(map(repr, results.values()))) == 1, (lower, results)


class TestKernelPrimitives:
    def test_group_rows_stable_ascending_within_group(self):
        grouped = group_rows(np.array([3, 1, 3, 1, 3]))
        assert grouped.keys.tolist() == [1, 3]
        assert grouped.rows.tolist() == [1, 3, 0, 2, 4]
        assert grouped.starts.tolist() == [0, 2]
        assert grouped.counts.tolist() == [2, 3]

    def test_group_rows_packed_sort_equals_stable_argsort(self):
        """Narrow int64 keys sort packed with their rows; wide ones by argsort."""
        rng = make_rng(3)
        for low, high in ((-5, 5), (0, 2**20), (-(2**62), 2**62), (2**63 - 9, 2**63 - 1)):
            values = rng.integers(low, high, size=200, dtype=np.int64)
            grouped = group_rows(values)
            order = np.argsort(values, kind="stable")
            assert grouped.rows.tolist() == order.tolist()
            assert grouped.rows.dtype == np.int64 and grouped.keys.dtype == np.int64
            assert grouped.keys.tolist() == np.unique(values).tolist()

    def test_group_rows_empty(self):
        grouped = group_rows(np.empty(0, dtype=np.int64))
        assert grouped.rows.shape[0] == 0
        assert grouped.keys.shape[0] == 0

    def test_group_rows_nan_singleton_runs(self):
        values = np.array([np.nan, 1.0, np.nan])
        grouped = group_rows(values)
        # Each NaN forms its own run; none are merged.
        assert grouped.counts.tolist() == [1, 1, 1]

    def test_probe_grouped_empty_build(self):
        build = Column([4, 5, 6])
        grouped = GroupedJoinMap(build, np.empty(0, dtype=np.int64))
        probe = Column([1, 2, 3])
        starts, counts = grouped.bounds(grouped.slots(probe.data, probe))
        assert counts.tolist() == [0, 0, 0]
        runs = Runs(grouped.rows, starts, counts)
        selector, build_rows = runs.take(0, runs.total)
        assert selector.shape[0] == 0 and build_rows.shape[0] == 0

    def test_probe_and_expand_round_trip(self):
        build, probe = Column([5, 7, 5, 9]), Column([7, 5, 4])
        grouped = GroupedJoinMap(build, np.arange(4, dtype=np.int64))
        starts, counts = grouped.bounds(grouped.slots(probe.data, probe))
        runs = Runs(grouped.rows, starts, counts)
        selector, build_rows = runs.take(0, runs.total)
        assert selector.tolist() == [0, 1, 1]
        assert build_rows.tolist() == [1, 0, 2]

    def test_encode_composite_requires_parts(self):
        with pytest.raises(ValueError):
            encode_composite_keys([], np.empty(0, dtype=np.int64))

    def test_encode_many_parts_does_not_overflow(self):
        """Radix combination re-compresses instead of overflowing int64."""
        build = Column(list(range(40)))
        probe = Column(list(range(-5, 45)))
        positions = np.arange(40, dtype=np.int64)
        space, build_codes = encode_composite_keys([build] * 16, positions)
        assert space.dense  # the span guard fired
        assert np.unique(build_codes).shape[0] == 40
        probe_codes, valid = space.probe_codes([probe.data] * 16, [probe] * 16)
        assert valid.tolist() == [0 <= value < 40 for value in range(-5, 45)]
        assert np.array_equal(probe_codes[valid], build_codes)

    def test_composite_code_space_ignores_the_probe(self):
        """One build-side encoding serves probes with other values and types."""
        ints, strings = Column([3, 1, 3, 2]), Column(["b", "a", "b", "c"])
        grouped = GroupedJoinMap([ints, strings], np.arange(4, dtype=np.int64))
        probes = [
            (Column([3.0, 2.5, 1.0, float("nan")]), Column(["b", "a", "a", "b"]),
             [[0, 2], [], [1], []]),
            (Column([2, 3, 7]), Column(["c", "zz", "b"]), [[3], [], []]),
            (Column(["3", "1"]), Column(["b", "a"]), [[], []]),
        ]
        for first, second, expected in probes:
            starts, counts = grouped.bounds(grouped.slots([first.data, second.data],
                                                          [first, second]))
            found = [grouped.rows[start:start + count].tolist()
                     for start, count in zip(starts, counts)]
            assert found == expected

    def test_translate_codes_maps_into_build_dictionary(self):
        build = Column(["a", "b", "c"])
        probe = Column(["c", "x", "a"])
        translation = build.translate_codes(probe)
        # probe codes 0,1,2 = c,x,a -> build codes 2, sentinel 3, 0
        assert translation.tolist() == [2, 3, 0]

    def test_translate_codes_cached_per_column_pair(self):
        build = Column(["a", "b", "c"])
        probe = Column(["c", "x", "a"])
        other = Column(["b", "a"])
        assert build.translate_codes(probe) is build.translate_codes(probe)
        assert build.translate_codes(other).tolist() == [1, 0]


class TestExecutorAgainstReference:
    def test_executor_matches_reference_on_every_order(self, tiny_catalog, tiny_join_query):
        for order in tiny_join_query.join_graph().valid_join_orders():
            assert_identical(tiny_catalog, tiny_join_query, list(order))


# ----------------------------------------------------------------------
# build-side reuse across batch invocations
# ----------------------------------------------------------------------
def edge_catalog_and_queries():
    """Keys on both sides of 2**53, NaN, disjoint dictionaries, an empty table."""
    nan = float("nan")
    catalog = Catalog()
    catalog.add_table(Table("t0", {
        "k": [2**53 + 1, 2**53, 2**60, 3, 3, 7, -1, 2**53],
        "f": [float(2**53), 2.5, nan, 3.0, nan, 7.0, float(2**60), -1.0],
        "s": ["red", "only0", "blue", "red", "", "blue", "red", "green"],
        "v": [0, 1, 2, 3, 4, 5, 0, 1],
    }))
    catalog.add_table(Table("t1", {
        "k": [3, 2**53, 2**53 + 1, 7, 7, 2**60, 5],
        "f": [3.0, float(2**53), float(2**53), nan, 7.5, float(2**60), float("inf")],
        "s": ["red", "blue", "only1", "blue", "", "red", "red"],
        "v": [5, 4, 3, 2, 1, 0, 5],
    }))
    catalog.add_table(Table("t2", {
        "k": np.empty(0, dtype=np.int64),
        "v": np.empty(0, dtype=np.int64),
    }))
    catalog.add_table(Table("t3", {
        "k": [7, 3, 2**53, 2**53 + 1, 3],
        "f": [7.0, nan, float(2**53), 3.0, 3.5],
        "s": ["blue", "red", "only3", "red", "green"],
        "v": [1, 1, 2, 2, 3],
    }))
    mixed = make_query(["t0", "t1", "t3"], predicates=[
        column_equals_column("t0", "k", "t1", "f"),  # int vs float, either side builds
        column_equals_column("t1", "k", "t3", "f"),
        Predicate(ColumnRef("t0", "v"), "<=", ColumnRef("t3", "v")),
    ])
    composite = make_query(["t0", "t1", "t3"], predicates=[
        column_equals_column("t0", "f", "t1", "f"),  # float pair with NaNs ...
        column_equals_column("t0", "s", "t1", "s"),  # ... and a string part
        column_equals_column("t1", "s", "t3", "s"),
    ])
    with_empty_side = make_query(["t0", "t2", "t3"], predicates=[
        column_equals_column("t0", "k", "t3", "k"),
        column_equals_column("t2", "k", "t3", "k"),
    ])
    return catalog, [mixed, composite, with_empty_side]


def attempt(run, meter):
    """``(relation or None, meter snapshot)`` of one budgeted batch attempt."""
    from repro.errors import BudgetExceeded

    try:
        relation = run(meter)
    except BudgetExceeded:
        relation = None
    return relation, meter.snapshot()


def assert_batches_identical(catalog, query, seed, *, batches=3, calls=40):
    """One executor over a Skinner-G-shaped call sequence vs a fresh one per call.

    Every call joins one batch of the left-most alias with the remaining
    suffix of the others, in a random order under a random (often too small)
    budget; a completed batch moves its alias's lower bound on.  The
    long-lived executor, whose hash joins build on suffix views of the maps
    its catalog's statement cache keeps, must return, call for call, the
    relation and the meter snapshot of a fresh executor on a catalog of its
    own and of the dict-based reference over the suffix arrays.  Returns
    ``(groupings, hash joins)`` of the long-lived executor.
    """
    rng = make_rng(seed)
    kept = PlanExecutor(catalog, query)
    filtered = kept.pre_process()
    edges = {}
    for alias, positions in filtered.items():
        count = max(1, min(batches, positions.shape[0]))
        size, larger = divmod(positions.shape[0], count)
        edges[alias] = [index * size + min(index, larger) for index in range(count + 1)]
    offsets = dict.fromkeys(filtered, 0)
    aliases = list(query.aliases)
    groupings = joins = 0
    for _ in range(calls):
        order = [str(alias) for alias in rng.permutation(aliases)]
        left = order[0]
        if offsets[left] >= len(edges[left]) - 1:
            continue
        batch = (edges[left][offsets[left]], edges[left][offsets[left] + 1])
        lower = {alias: edges[alias][offsets[alias]] for alias in aliases}
        suffixes = {alias: filtered[alias][lower[alias]:] for alias in aliases}
        suffixes[left] = filtered[left][batch[0]:batch[1]]
        budget = int(rng.choice([3, 10, 30, 100, 10_000]))
        fresh = PlanExecutor(same_tables(catalog), query)
        fresh.pre_process()
        with counting_groupings() as grouped:
            outcome = attempt(lambda m: kept.execute_order(order, m, batch, lower),
                              CostMeter(budget=budget))
        groupings += grouped[0]
        joins += sum(1 for _, equi, _ in kept.join_steps(order) if equi)
        outcomes = [
            outcome,
            attempt(lambda m: fresh.execute_order(order, m, batch, lower), CostMeter(budget=budget)),
            attempt(lambda m: join_on_rows_path(fresh, order, suffixes, m),
                    CostMeter(budget=budget)),
        ]
        (relation, work), *others = outcomes
        for other, other_work in others:
            assert work == other_work, f"meter diverges for order {order}, budget {budget}"
            assert (relation is None) == (other is None)
            if relation is not None:
                assert relation.aliases == other.aliases
                for alias in relation.aliases:
                    assert np.array_equal(relation.ids(alias), other.ids(alias)), (order, alias)
        if relation is not None:
            offsets[left] += 1
    return groupings, joins


class TestBuildSideReuse:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=2, max_value=4))
    def test_kept_executor_equals_fresh_and_rows_call_for_call(self, seed, num_tables):
        catalog, query = random_catalog_and_query(seed, num_tables=num_tables, rows=24)
        assert_batches_identical(catalog, query, seed + 7)

    def test_kept_executor_on_edge_keys(self):
        catalog, queries = edge_catalog_and_queries()
        for query in queries:
            counts = [assert_batches_identical(catalog, query, seed, calls=60)
                      for seed in range(6)]
            groupings = sum(grouped for grouped, _ in counts)
            joins = sum(joined for _, joined in counts)
            # The sequence did reuse build sides, not only rebuild them.
            assert groupings < joins
