"""Unit tests for expressions and predicate classification/evaluation."""

import pytest

from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, FunctionCall, Literal, Star
from repro.query.predicates import (
    Predicate,
    column_compare_literal,
    column_equals_column,
)
from repro.query.udf import UdfRegistry
from benchmarks.paper.scalar import evaluate, holds
from tests.conftest import udf_predicate

BINDING = {
    "a": {"x": 3, "name": "ann"},
    "b": {"y": 7, "name": "bob"},
}


class TestExpressions:
    def test_column_ref_evaluation(self):
        assert evaluate(ColumnRef("a", "x"), BINDING) == 3

    def test_column_ref_missing_binding_raises(self):
        with pytest.raises(ExecutionError):
            evaluate(ColumnRef("z", "x"), BINDING)

    def test_column_ref_tables_and_display(self):
        ref = ColumnRef("a", "x")
        assert ref.tables() == frozenset({"a"})
        assert ref.display() == "a.x"
        assert ref.columns() == [ref]

    def test_literal(self):
        literal = Literal(42)
        assert evaluate(literal, BINDING) == 42
        assert literal.tables() == frozenset()
        assert Literal("s").display() == "'s'"

    def test_builtin_function_call(self):
        call = FunctionCall("add", (ColumnRef("a", "x"), Literal(10)))
        assert evaluate(call, BINDING) == 13
        assert call.is_builtin()
        assert call.tables() == frozenset({"a"})

    def test_builtin_arithmetic_variants(self):
        x = ColumnRef("a", "x")
        assert evaluate(FunctionCall("mul", (x, Literal(2))), BINDING) == 6
        assert evaluate(FunctionCall("sub", (x, Literal(1))), BINDING) == 2
        assert evaluate(FunctionCall("div", (x, Literal(2))), BINDING) == 1.5
        assert evaluate(FunctionCall("abs", (Literal(-5),)), BINDING) == 5
        assert evaluate(FunctionCall("mod", (x, Literal(2))), BINDING) == 1

    def test_udf_call_through_registry(self):
        udfs = UdfRegistry()
        udfs.register("twice", lambda v: v * 2)
        call = FunctionCall("twice", (ColumnRef("b", "y"),))
        assert evaluate(call, BINDING, udfs) == 14
        assert not call.is_builtin()

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            evaluate(FunctionCall("nope", ()), BINDING)

    def test_star(self):
        star = Star()
        assert evaluate(star, BINDING) == 1
        assert star.display() == "*"


class TestPredicateClassification:
    def test_unary(self):
        predicate = column_compare_literal("a", "x", ">", 1)
        assert predicate.is_unary
        assert not predicate.is_join
        assert not predicate.is_equi_join

    def test_equi_join(self):
        predicate = column_equals_column("a", "x", "b", "y")
        assert predicate.is_join
        assert predicate.is_equi_join
        left, right = predicate.equi_join_columns()
        assert (left.table, right.table) == ("a", "b")

    def test_same_table_equality_is_not_equi_join(self):
        predicate = Predicate(ColumnRef("a", "x"), "=", ColumnRef("a", "name"))
        assert not predicate.is_equi_join

    def test_generic_join_predicate(self):
        predicate = Predicate(ColumnRef("a", "x"), "<", ColumnRef("b", "y"))
        assert predicate.is_join
        assert not predicate.is_equi_join

    def test_equi_join_columns_on_non_equi_raises(self):
        with pytest.raises(ExecutionError):
            column_compare_literal("a", "x", "=", 1).equi_join_columns()

    def test_udf_predicate_detection(self):
        predicate = udf_predicate("check", ("a", "x"), ("b", "y"))
        assert predicate.uses_udf
        assert predicate.tables() == frozenset({"a", "b"})

    def test_builtin_function_is_not_udf(self):
        predicate = Predicate(FunctionCall("add", (ColumnRef("a", "x"), Literal(1))), ">", Literal(0))
        assert not predicate.uses_udf


class TestPredicateEvaluation:
    def test_comparison_operators(self):
        assert holds(column_compare_literal("a", "x", "=", 3), BINDING)
        assert holds(column_compare_literal("a", "x", "!=", 4), BINDING)
        assert holds(column_compare_literal("a", "x", "<", 4), BINDING)
        assert holds(column_compare_literal("a", "x", "<=", 3), BINDING)
        assert holds(column_compare_literal("b", "y", ">", 3), BINDING)
        assert holds(column_compare_literal("b", "y", ">=", 7), BINDING)
        assert not holds(column_compare_literal("b", "y", "<", 7), BINDING)

    def test_cross_table_evaluation(self):
        assert holds(Predicate(ColumnRef("a", "x"), "<", ColumnRef("b", "y")), BINDING)

    def test_bare_boolean_udf(self):
        udfs = UdfRegistry()
        udfs.register("close", lambda a, b: abs(a - b) < 10)
        predicate = udf_predicate("close", ("a", "x"), ("b", "y"))
        assert holds(predicate, BINDING, udfs)

    def test_unsupported_operator_raises(self):
        with pytest.raises(ExecutionError):
            holds(Predicate(ColumnRef("a", "x"), "LIKE", Literal(1)), BINDING)

    def test_udf_cost_includes_registry_cost(self):
        udfs = UdfRegistry()
        udfs.register("expensive", lambda v: True, cost=7)
        predicate = Predicate(FunctionCall("expensive", (ColumnRef("a", "x"),)))
        assert predicate.udf_cost(udfs) == 8

    def test_display(self):
        assert column_compare_literal("a", "x", ">", 1).display() == "a.x > 1"
        assert column_equals_column("a", "x", "b", "y").display() == "a.x = b.y"


class TestUdfRegistry:
    def test_register_and_lookup_case_insensitive(self):
        udfs = UdfRegistry()
        udfs.register("MyFn", lambda: 1)
        assert udfs.has("myfn")
        assert udfs.get("MYFN").name == "myfn"
        assert len(udfs._udfs) == 1

    def test_duplicate_registration_raises(self):
        udfs = UdfRegistry()
        udfs.register("f", lambda: 1)
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            udfs.register("f", lambda: 2)
        udfs.register("f", lambda: 2, replace=True)

    def test_missing_udf_raises(self):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            UdfRegistry().get("missing")
