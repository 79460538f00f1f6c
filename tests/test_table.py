"""Unit tests for tables."""

import pytest

from repro import connect
from repro.engine.meter import CostMeter
from repro.engine.operators import filter_table
from repro.errors import CatalogError, SchemaError
from repro.query.predicates import column_compare_literal
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table


@pytest.fixture
def people() -> Table:
    return Table("people", {
        "id": [1, 2, 3],
        "name": ["ann", "bob", "cid"],
        "age": [30, 25, 41],
    })


class TestConstruction:
    def test_column_names_in_order(self, people):
        assert people.column_names == ["id", "name", "age"]

    def test_num_rows(self, people):
        assert people.num_rows == 3

    def test_mismatched_lengths_raise(self):
        with pytest.raises(SchemaError):
            Table("bad", {"a": [1, 2], "b": [1]})

    def test_accepts_prebuilt_columns(self):
        table = Table("t", {"x": Column([1, 2, 3])})
        assert table.column("x").ctype is ColumnType.INT

    def test_from_rows(self):
        rows = [(1, "x"), (2, "y")]
        table = Table("t", dict(zip(["a", "b"], zip(*rows))))
        assert table.num_rows == 2
        assert table.row(1) == {"a": 2, "b": "y"}
        assert table.row_tuples() == rows

    def test_empty_table(self):
        table = Table("empty", {"a": []})
        assert table.num_rows == 0

    def test_renamed_view(self, people):
        # A query names the table under an alias, which reads all its rows.
        conn = connect()
        conn.add_table(people)
        cursor = conn.cursor()
        cursor.execute("SELECT p2.name FROM people p2")
        assert sorted(cursor.fetchall()) == [("ann",), ("bob",), ("cid",)]
        assert cursor.rowcount == people.num_rows


class TestAccess:
    def test_row(self, people):
        assert people.row(0) == {"id": 1, "name": "ann", "age": 30}

    def test_rows(self, people):
        assert len(people.rows()) == 3

    def test_missing_column_raises(self, people):
        with pytest.raises(CatalogError):
            people.column("salary")

    def test_has_column(self, people):
        assert people.has_column("age")
        assert not people.has_column("salary")

    def test_column_types(self, people):
        assert people.column("id").ctype is ColumnType.INT
        assert people.column("name").ctype is ColumnType.STRING


class TestBulkOperations:
    def test_filter_mask(self, people):
        positions = filter_table(people, "p", [column_compare_literal("p", "age", "!=", 25)],
                                 CostMeter())
        assert people.column("id").take(positions).values() == [1, 3]
