"""Hand-built queries: :func:`make_query`, a ``Query`` from bare table names.

The kernel benchmarks (and the tests) build their queries from expression
objects instead of SQL text; :func:`make_query` takes table names or
``(alias, table)`` pairs and any iterables of the clause objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.query.expressions import Expression
from repro.query.predicates import Predicate
from repro.query.query import OrderItem, Query, SelectItem


def make_query(
    tables: Sequence[tuple[str, str]] | Sequence[str],
    predicates: Iterable[Predicate] = (),
    select_items: Iterable[SelectItem] = (),
    group_by: Iterable[Expression] = (),
    order_by: Iterable[OrderItem] = (),
    limit: int | None = None,
    distinct: bool = False,
) -> Query:
    """Convenience constructor accepting bare table names as aliases."""
    normalized: list[tuple[str, str]] = []
    for entry in tables:
        if isinstance(entry, str):
            normalized.append((entry, entry))
        else:
            normalized.append((entry[0], entry[1]))
    return Query(
        tables=tuple(normalized),
        predicates=tuple(predicates),
        select_items=tuple(select_items),
        group_by=tuple(group_by),
        order_by=tuple(order_by),
        limit=limit,
        distinct=distinct,
    )
