"""Unit tests for the typed column implementation."""

import pickle
import re

import numpy as np
import pytest

from repro import connect
from repro.errors import SchemaError
from repro.storage.column import Column, ColumnType
from repro.storage.durable import DurableBufferManager
from repro.storage.table import Table
from tests.conftest import matching_rows


def min_max(column: Column) -> tuple:
    """A column's least and greatest value, as ``MIN`` and ``MAX`` find them."""
    conn = connect()
    conn.add_table(Table("t", {"c": column}))
    cursor = conn.cursor()
    cursor.execute("SELECT MIN(t.c), MAX(t.c) FROM t")
    (row,) = cursor.fetchall()
    return row


class TestTypeInference:
    def test_integers(self):
        assert Column([1, 2, 3]).ctype is ColumnType.INT

    def test_floats(self):
        assert Column([1.5, 2.0]).ctype is ColumnType.FLOAT

    def test_whole_floats_stay_float(self):
        assert Column([1.0, 2.0]).ctype is ColumnType.FLOAT

    def test_strings(self):
        assert Column(["a", "b"]).ctype is ColumnType.STRING

    def test_mixed_int_then_string_is_string(self):
        column = Column(["x", "y", "z"])
        assert column.ctype is ColumnType.STRING

    def test_numpy_int_array(self):
        assert Column(np.array([1, 2, 3])).ctype is ColumnType.INT

    def test_numpy_float_array(self):
        assert Column(np.array([1.0, 2.5])).ctype is ColumnType.FLOAT

    def test_explicit_type_overrides_inference(self):
        column = Column([1, 2, 3], ColumnType.FLOAT)
        assert column.ctype is ColumnType.FLOAT
        assert column.value(0) == 1.0


class TestValuesAColumnCannotHold:
    """A value a column cannot hold fails at construction, by position and type."""

    @pytest.mark.parametrize(("values", "ctype", "message"), [
        ([[1, 2], [3, 4]], None, "INT column cannot hold element 0 (list)"),
        ([[1, 2], [3]], None, "INT column cannot hold element 0 (list)"),
        ([1, None, 3], None, "INT column cannot hold element 1 (NoneType)"),
        ([1, 2, object()], ColumnType.INT, "INT column cannot hold element 2 (object)"),
        ([7, "seven"], ColumnType.INT, "INT column cannot hold element 1 (str)"),
        ([[1.5], [2.5]], ColumnType.FLOAT, "FLOAT column cannot hold element 0 (list)"),
        (np.zeros((2, 2)), None, "FLOAT column cannot hold element 0 (ndarray)"),
    ], ids=["nested", "ragged", "none", "object", "text", "nested-float", "2d-array"])
    def test_rejected_with_position_and_type(self, values, ctype, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            Column(values, ctype)

    @pytest.mark.parametrize(("values", "ctype", "expected"), [
        ([1.5, None], None, [1.5, float("nan")]),
        (["12", 3], ColumnType.INT, [12, 3]),
        ([True, 2], None, [1, 2]),
        ([[1, 2], 3], ColumnType.STRING, ["[1, 2]", "3"]),
    ], ids=["float-none-is-nan", "numeric-text", "bool", "string-of-list"])
    def test_every_one_dimensional_input_still_builds(self, values, ctype, expected):
        got = Column(values, ctype).values()
        assert [repr(value) for value in got] == [repr(value) for value in expected]

    def test_create_table_rejects_a_nested_column(self):
        from repro import connect

        db = connect(autocommit=True)
        with pytest.raises(SchemaError, match="element 0"):
            db.create_table("t", {"a": [[1, 2], [3, 4]], "b": [1, 2]})
        assert "t" not in db.catalog.table_names()


class TestValueAccess:
    def test_int_values(self):
        column = Column([5, 7, 9])
        assert column.value(1) == 7
        assert column.values() == [5, 7, 9]

    def test_string_round_trip(self):
        column = Column(["apple", "pear", "apple"])
        assert column.values() == ["apple", "pear", "apple"]

    def test_string_dictionary_is_deduplicated(self):
        column = Column(["a", "b", "a", "a", "c"])
        assert sorted(column.dictionary) == ["a", "b", "c"]
        assert column.distinct_count() == 3

    def test_dictionary_of_numeric_column_raises(self):
        with pytest.raises(SchemaError):
            _ = Column([1, 2]).dictionary

    def test_len(self):
        assert len(Column([1, 2, 3, 4])) == 4

    def test_values_are_exactly_python_int_float_str(self):
        """``values()`` goes through ``tolist``: no NumPy scalar may leak out
        (``np.int64`` is not an ``int``, and JSON and sqlite refuse it)."""
        for column, kind in (
            (Column([5, 7, 2**62]), int),
            (Column([1.5, 2.0, float("inf")]), float),
            (Column(["a", "", "a"]), str),
            (Column(["long", "tail"] * 3).slice(1, 2), str),  # dictionary > rows
        ):
            assert [type(value) for value in column.values()] == [kind] * len(column)
        assert Column([5, 7, 2**62]).values() == [5, 7, 2**62]
        assert Column(["long", "tail"] * 3).slice(1, 3).values() == ["tail", "long"]

    def test_slice_shares_the_dictionary_and_concat_rejoins_it(self):
        column = Column(["a", "b", "a", "c"])
        head, tail = column.slice(0, 1), column.slice(1)
        assert head.dictionary is column.dictionary
        joined = Column.concat([head, tail])
        assert joined.dictionary is column.dictionary
        assert joined.values() == column.values()
        # Different dictionaries: decoded and encoded afresh, values intact.
        other = Column(["c", "z"])
        assert Column.concat([tail, other]).values() == ["b", "a", "c", "c", "z"]
        assert Column.concat([Column([1, 2]), Column([3])]).values() == [1, 2, 3]

    def test_empty_column(self):
        column = Column([])
        assert len(column) == 0


class TestEncoding:
    def test_encode_known_string(self):
        column = Column(["x", "y"])
        code = column.encode("y")
        assert column.data[1] == code

    def test_encode_unknown_string_returns_sentinel(self):
        assert Column(["x", "y"]).encode("missing") == -1

    def test_encode_numeric_passthrough(self):
        assert Column([1, 2, 3]).encode(2) == 2

    def test_encode_non_string_against_string_column_raises(self):
        with pytest.raises(SchemaError):
            Column(["x"]).encode(5)


class TestComparisons:
    def test_int_equality_mask(self):
        mask = Column([1, 2, 2, 3]).compare("=", 2)
        assert mask.tolist() == [False, True, True, False]

    def test_int_range_mask(self):
        mask = Column([1, 2, 3, 4]).compare(">=", 3)
        assert mask.tolist() == [False, False, True, True]

    def test_not_equal(self):
        mask = Column([1, 2, 1]).compare("!=", 1)
        assert mask.tolist() == [False, True, False]

    def test_string_equality(self):
        mask = Column(["a", "b", "a"]).compare("=", "a")
        assert mask.tolist() == [True, False, True]

    def test_string_equality_unknown_literal(self):
        mask = Column(["a", "b"]).compare("=", "zzz")
        assert mask.tolist() == [False, False]

    def test_string_ordering_comparison(self):
        mask = Column(["apple", "banana", "cherry"]).compare("<", "banana")
        assert mask.tolist() == [True, False, False]

    def test_unknown_operator_raises(self):
        with pytest.raises(SchemaError):
            Column([1]).compare("LIKE", 1)

    # Membership in a value set is a semi-join: a value is in the set iff
    # the set's join map holds a row for it.
    def test_isin_int(self):
        mask = [bool(rows) for rows in matching_rows(Column([2, 4]), Column([1, 2, 3, 4]))]
        assert mask == [False, True, False, True]

    def test_isin_string(self):
        mask = [bool(rows) for rows in matching_rows(Column(["c", "zz"]), Column(["a", "b", "c"]))]
        assert mask == [False, False, True]


class TestBulkOperations:
    def test_take_reorders(self):
        column = Column([10, 20, 30]).take([2, 0])
        assert column.values() == [30, 10]

    def test_take_string(self):
        column = Column(["a", "b", "c"]).take(np.array([1, 1]))
        assert column.values() == ["b", "b"]

    def test_min_max_int(self):
        assert min_max(Column([5, 1, 9])) == (1, 9)

    def test_min_max_string(self):
        assert min_max(Column(["pear", "apple"])) == ("apple", "pear")

    def test_distinct_count_int(self):
        assert Column([1, 1, 2, 2, 2, 3]).distinct_count() == 3


#: Non-empty values per type; the empty case is ``[]`` of the same type.
PICKLE_VALUES = {
    ColumnType.INT: [5, -7, 2**62],
    ColumnType.FLOAT: [1.5, -0.0, float("inf")],
    ColumnType.STRING: ["a", "", "a"],
}


class TestPickle:
    """A column pickles by physical value: how morsel workers get tables."""

    @staticmethod
    def assert_round_trip(column):
        copy = pickle.loads(pickle.dumps(column))
        assert copy.ctype is column.ctype
        assert copy.data.dtype == column.data.dtype
        assert copy.data.tobytes() == column.data.tobytes()
        if column.ctype is ColumnType.STRING:
            assert copy.dictionary == column.dictionary
        assert copy.values() == column.values()

    @pytest.mark.parametrize("empty", [False, True])
    @pytest.mark.parametrize("ctype", list(ColumnType))
    def test_in_memory(self, ctype, empty):
        self.assert_round_trip(Column([] if empty else PICKLE_VALUES[ctype], ctype))

    @pytest.mark.parametrize("empty", [False, True])
    @pytest.mark.parametrize("ctype", list(ColumnType))
    def test_durable(self, tmp_path, ctype, empty):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        values = [] if empty else PICKLE_VALUES[ctype]
        table = manager.register_table(Table("t", {"c": Column(values, ctype)}))
        manager.commit()
        self.assert_round_trip(table.column("c"))
        manager.close()

    def test_durable_column_outlives_its_generation(self, tmp_path):
        manager = DurableBufferManager(tmp_path)
        manager.bootstrap()
        table = manager.register_table(Table("t", {
            "i": PICKLE_VALUES[ColumnType.INT], "s": PICKLE_VALUES[ColumnType.STRING],
        }))
        manager.commit()
        read = {name: table.column(name).values() for name in table.column_names}
        manager.register_table(Table("t", {"i": [0], "s": ["z"]}), replace=True)
        manager.commit()
        manager._checkpoint()
        assert len(list((tmp_path / "cols").iterdir())) == 1  # the old one is gone
        for name, values in read.items():
            self.assert_round_trip(table.column(name))
            assert pickle.loads(pickle.dumps(table.column(name))).values() == values
        manager.close()

    def test_caches_stay_behind(self):
        fresh = pickle.dumps(Column(["a", "b", "a"]))
        column = Column(["a", "b", "a"])
        column.translate_codes(Column(["b", "c"]))
        _ = column.decoded_data
        assert column._translations
        assert pickle.dumps(column) == fresh
