"""The row post-processing pipeline as a reference for the columnar one.

:func:`rows_post_process` takes :func:`~repro.engine.postprocess.post_process`'s
arguments, charges the same output work, and always runs the row pipeline
(``postprocess._post_process_rows``: one Python dict per result tuple), which
production reaches only for UDFs and queries the columnar pipeline cannot
vectorize.  The columnar pipeline must return an identical table: the same
column names, column types and values in the same order.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.engine.meter import CostMeter
from repro.engine.postprocess import _post_process_rows
from repro.engine.relation import RowIdRelation
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.table import Table


def rows_post_process(
    query: Query,
    relation: RowIdRelation,
    tables: Mapping[str, Table],
    udfs: UdfRegistry | None = None,
    meter: CostMeter | None = None,
) -> Table:
    """Turn a join result into the query's output table, tuple at a time."""
    meter = meter if meter is not None else CostMeter()
    meter.charge_output(len(relation))
    return _post_process_rows(query, relation, tables, udfs)
