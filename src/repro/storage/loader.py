"""CSV import/export for tables.

The loaders are intentionally simple: comma-separated files with a header
row.  Column types are inferred (int, then float, then string) unless an
explicit schema is given.  They exist so that example scripts can persist
generated workloads and so users can load their own small datasets.
"""

from __future__ import annotations

import csv
import hashlib
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.errors import SchemaError
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table


def file_fingerprint(path: str | Path) -> str:
    """SHA-256 of a file's bytes — the identity key of idempotent ingest."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_csv(
    path: str | Path,
    table_name: str | None = None,
    schema: Mapping[str, ColumnType] | None = None,
) -> Table:
    """Load a CSV file (with header) into a :class:`Table`.

    Parameters
    ----------
    path:
        File to read.
    table_name:
        Name of the resulting table; defaults to the file stem.
    schema:
        Optional explicit column types.  Columns not listed are inferred.
    """
    path = Path(path)
    name = table_name or path.stem
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise SchemaError(f"CSV file {path} is empty") from exc
        raw_columns: dict[str, list[str]] = {column: [] for column in header}
        for row in reader:
            if len(row) != len(header):
                raise SchemaError(f"row {reader.line_num} of {path} has {len(row)} fields")
            for column, value in zip(header, row):
                raw_columns[column].append(value)
    columns: dict[str, Column] = {}
    for column, values in raw_columns.items():
        ctype = schema.get(column) if schema else None
        columns[column] = _build_column(values, ctype)
    return Table(name, columns)


def _build_column(values: Sequence[str], ctype: ColumnType | None) -> Column:
    if ctype is ColumnType.STRING:
        return Column(list(values), ColumnType.STRING)
    if ctype is ColumnType.INT:
        return Column([int(v) for v in values], ColumnType.INT)
    if ctype is ColumnType.FLOAT:
        return Column([float(v) for v in values], ColumnType.FLOAT)
    return Column(_infer_values(values))


def _infer_values(values: Sequence[str]) -> list[Any]:
    try:
        return [int(v) for v in values]
    except ValueError:
        pass
    try:
        return [float(v) for v in values]
    except ValueError:
        pass
    return list(values)
