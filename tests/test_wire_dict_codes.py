"""A ``dict`` column's wire codes come from a presence mask, not a sort.

``_table_to_wire`` renumbers a string column's codes to the strings the
frame uses, in dictionary order.  Whether it finds them with a presence
mask over the dictionary or with ``np.unique`` over the frame, the frame
is the same bytes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import protocol
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table


@st.composite
def string_tables(draw):
    size = draw(st.integers(1, 300))
    rows = draw(st.integers(0, 400))
    codes = draw(st.lists(st.integers(0, size - 1), min_size=rows, max_size=rows))
    dictionary = [f"s{i}" for i in range(size)]
    columns = {
        "name": Column.from_physical(np.array(codes, dtype=np.int64), ColumnType.STRING,
                                     dictionary),
        "v": Column.from_physical(np.arange(rows, dtype=np.int64), ColumnType.INT),
    }
    return Table("result", columns)


def _sorted_encoding(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.unique(codes, return_inverse=True)


@settings(max_examples=200, deadline=None)
@given(string_tables())
def test_mask_encoding_is_byte_identical_to_the_sorted_one(table):
    frame = protocol.encode_frame({"table": table})
    with mock.patch.object(protocol, "_used_strings", _sorted_encoding):
        assert protocol.encode_frame({"table": table}) == frame
    decoded = protocol.decode_payload(frame[protocol.LENGTH_PREFIX.size:])["table"]
    assert decoded.row_tuples() == table.row_tuples()


def test_both_ways_renumber_to_the_used_strings():
    codes = np.array([7, 3, 7], dtype=np.int64)
    used, renumbered = protocol._used_strings(codes, 1000)
    assert used.tolist() == [3, 7] and renumbered.tolist() == [1, 0, 1]
    used, renumbered = protocol._used_strings(codes, 8)
    assert used.tolist() == [3, 7] and renumbered.tolist() == [1, 0, 1]
