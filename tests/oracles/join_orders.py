"""Every join order of a query's join graph, by depth-first enumeration.

:func:`valid_join_orders` lists the left-deep orders that avoid needless
Cartesian products — the UCT search space of paper §4.2 — by extending
every prefix with each table :meth:`~repro.query.join_graph.JoinGraph
.eligible_next` allows.  Exponential in the number of tables: for tests on
small queries.
"""

from __future__ import annotations

from repro.query.join_graph import JoinGraph


def valid_join_orders(graph: JoinGraph) -> list[tuple[str, ...]]:
    """Enumerate all join orders avoiding needless Cartesian products."""
    orders: list[tuple[str, ...]] = []
    aliases = graph.aliases

    def extend(prefix: list[str]) -> None:
        if len(prefix) == len(aliases):
            orders.append(tuple(prefix))
            return
        for alias in graph.eligible_next(prefix):
            extend(prefix + [alias])

    extend([])
    return orders
