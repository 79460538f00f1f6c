"""Equivalence tests for the streamed top-k (argpartition) ordering path.

For ORDER BY + LIMIT queries the columnar pipeline selects the top ``k``
rows with ``np.argpartition`` on the primary sort key and only stably sorts
the candidate set.  These tests pin the path to be *identical* to the
full-sort reference on its trickiest inputs: massive ties (where an
unstable partition could legally pick any tied subset), descending keys,
multi-key ordering where the secondary key disagrees with the primary, NaN
sort keys (which fall back to the full sort), and limits around the result
size.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.postprocess import _topk_selector, post_process
from repro.engine.relation import RowIdRelation
from repro.query.expressions import ColumnRef
from repro.query.query import OrderItem, SelectItem, make_query
from repro.storage.table import Table
from tests.oracles import rows_post_process

from test_postprocess_columnar import assert_tables_identical


def _relation(table: Table) -> RowIdRelation:
    return RowIdRelation.from_base("t", np.arange(table.num_rows, dtype=np.int64))


def _query(order_by, limit, distinct=False):
    items = [SelectItem(expression=ColumnRef("t", name), alias=name)
             for name in ("k", "tie", "v")]
    return make_query([("t", "base")], select_items=items,
                      order_by=order_by, limit=limit, distinct=distinct)


def run_both(query, table):
    expected = rows_post_process(query, _relation(table), {"t": table})
    actual = post_process(query, _relation(table), {"t": table})
    assert_tables_identical(expected, actual)
    return actual


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_topk_matches_full_sort(data):
    """Random heavily-tied tables: top-k == stable full sort + slice."""
    num_rows = data.draw(st.integers(0, 40))
    table = Table("base", {
        # Few distinct values: ties are the norm, not the exception.
        "k": [data.draw(st.integers(0, 4)) for _ in range(num_rows)],
        "tie": [data.draw(st.integers(0, 2)) for _ in range(num_rows)],
        "v": list(range(num_rows)),
    })
    keys = data.draw(st.lists(
        st.tuples(st.sampled_from(["k", "tie", "v"]), st.booleans()),
        min_size=1, max_size=3))
    order_by = [OrderItem(ColumnRef("t", name), ascending=asc) for name, asc in keys]
    limit = data.draw(st.integers(0, num_rows + 2))
    run_both(_query(order_by, limit, distinct=data.draw(st.booleans())), table)


def test_topk_all_ties_resolves_stably():
    """A constant primary key: the limit must keep the first rows."""
    table = Table("base", {"k": [7] * 12, "tie": [0] * 12, "v": list(range(12))})
    result = run_both(_query([OrderItem(ColumnRef("t", "k"))], limit=5), table)
    assert result.column("v").values() == [0, 1, 2, 3, 4]


def test_topk_descending_with_secondary_key():
    table = Table("base", {
        "k": [3, 1, 3, 2, 3, 1],
        "tie": [9, 8, 7, 6, 5, 4],
        "v": [0, 1, 2, 3, 4, 5],
    })
    order_by = [OrderItem(ColumnRef("t", "k"), ascending=False),
                OrderItem(ColumnRef("t", "tie"), ascending=True)]
    result = run_both(_query(order_by, limit=3), table)
    assert result.column("v").values() == [4, 2, 0]


def test_topk_with_nan_sort_keys_falls_back_to_full_sort():
    """NaN sort keys: the streamed path must equal the columnar full sort.

    (The row pipeline's Python ``sorted`` has no defined NaN ordering, so
    the reference here is the columnar full sort — NaN last — which is what
    the limit-less query uses.)
    """
    nan = float("nan")
    table = Table("base", {
        "k": [nan, 2.0, nan, 1.0, nan, 3.0],
        "tie": [0, 0, 0, 0, 0, 0],
        "v": [0, 1, 2, 3, 4, 5],
    })
    order_by = [OrderItem(ColumnRef("t", "k"))]
    full = post_process(_query(order_by, limit=None), _relation(table), {"t": table})
    # limit larger than the non-NaN count: the pivot becomes NaN and the
    # streamed path must defer to the full sort instead of dropping rows.
    for limit in (2, 5):
        limited = post_process(_query(order_by, limit=limit), _relation(table), {"t": table})
        assert limited.num_rows == limit
        assert limited.column("v").values() == full.column("v").values()[:limit]


def test_topk_string_keys_use_rank_encoding():
    table = Table("base", {
        "k": ["pear", "apple", "pear", "fig", "apple", "date"],
        "tie": [1, 2, 3, 4, 5, 6],
        "v": [0, 1, 2, 3, 4, 5],
    })
    result = run_both(_query([OrderItem(ColumnRef("t", "k"))], limit=3), table)
    assert result.column("k").values() == ["apple", "apple", "date"]


def test_topk_selector_direct_equivalence():
    """The selector itself equals lexsort + slice on random tied inputs."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        length = int(rng.integers(1, 60))
        primary = rng.integers(0, 5, size=length).astype(np.int64)
        secondary = rng.integers(-3, 3, size=length).astype(np.int64)
        limit = int(rng.integers(0, length + 1))
        if limit >= length:
            continue
        keys = [primary, secondary]
        expected = np.lexsort((secondary, primary))[:limit]
        actual = _topk_selector(keys, length, limit)
        assert actual is not None
        np.testing.assert_array_equal(actual, expected)
