"""The C_out oracle of Tables 3 and 4: true cardinalities and the order they pick.

Tables 3 and 4 run each query under three join orders: the engine
optimizer's, the one Skinner learned, and the C_out-optimal one.  The last
is the order the product's planner (:func:`~repro.optimizer.exhaustive.choose_plan`)
picks when every cardinality it asks for is the *true* one, counted by
running the sub-join.  That is a measuring stick, not a way to run a query,
so it lives here, built on the plan executor: ``filtered_positions`` for
one table and :func:`restricted` for a sub-join.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.executor import PlanExecutor
from repro.engine.meter import CostMeter
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.exhaustive import choose_plan
from repro.optimizer.plans import LeftDeepPlan
from repro.query.join_graph import JoinGraph
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog


def restrict_query(query: Query, aliases: Sequence[str]) -> Query:
    """Project a query onto a subset of its aliases (predicates restricted)."""
    alias_set = set(aliases)
    tables = tuple((alias, name) for alias, name in query.tables if alias in alias_set)
    predicates = tuple(p for p in query.predicates if p.tables() <= alias_set)
    return Query(tables=tables, predicates=predicates)


def restricted(executor: PlanExecutor, aliases: Sequence[str]) -> PlanExecutor:
    """An executor of ``executor``'s query projected onto ``aliases``: it joins
    that executor's filtered rows and charges no filter pass of its own (how
    the re-optimizer samples prefixes and this oracle counts sub-joins)."""
    filtered = executor.pre_process()
    sub = PlanExecutor(executor._catalog, restrict_query(executor._query, aliases),
                       executor._udfs)
    sub._filtered = {alias: filtered[alias] for alias in aliases}
    sub._filter_keys = {alias: executor._filter_keys[alias] for alias in aliases}
    return sub


def subset_cardinality(executor: PlanExecutor, query: Query, aliases: Sequence[str]) -> int:
    """True cardinality of joining ``aliases`` of ``query`` with every
    predicate among them applied; it depends on the *set* of aliases only.

    The sub-join runs in an order that keeps its prefix connected whenever
    the predicates allow, starting at ``aliases[0]``.
    """
    aliases = list(aliases)
    if len(aliases) == 1:
        return int(executor.filtered_positions(aliases[0]).shape[0])
    chosen = set(aliases)
    graph = JoinGraph([alias for alias in query.aliases if alias in chosen],
                      [p for p in query.join_predicates() if p.tables() <= chosen])
    order = [aliases[0]]
    while len(order) < len(aliases):
        order.append(graph.eligible_next(order)[0])
    return len(restricted(executor, aliases).execute_order(order, CostMeter()))


class TrueCardinality(CardinalityEstimator):
    """Cardinalities obtained by executing sub-joins, each table subset once."""

    def __init__(self, catalog: Catalog, query: Query, udfs: UdfRegistry | None = None) -> None:
        self._executor = PlanExecutor(catalog, query, udfs)
        self._query = query
        self._cache: dict[frozenset[str], int] = {}

    def base_cardinality(self, alias: str) -> float:
        return float(self.cardinality([alias]))

    def cardinality(self, aliases: Sequence[str]) -> float:
        key = frozenset(aliases)
        if key not in self._cache:
            self._cache[key] = subset_cardinality(self._executor, self._query, aliases)
        return float(self._cache[key])

    @property
    def cache_size(self) -> int:
        """Number of sub-joins evaluated so far."""
        return len(self._cache)


def optimal_plan(catalog: Catalog, query: Query, udfs: UdfRegistry | None = None) -> LeftDeepPlan:
    """The C_out-optimal left-deep join order of ``query``."""
    return choose_plan(query, TrueCardinality(catalog, query, udfs))
