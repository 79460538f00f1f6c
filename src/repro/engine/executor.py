"""The left-deep plan executor used as the "existing DBMS" execution engine.

This executor plays the role Postgres / MonetDB play in the paper: it is a
conventional engine that executes one join order for a query (or for a batch
of a query), producing a row-id relation.  It supports:

* pre-processing (unary predicate filtering) with cached results,
* hash joins when equality predicates link the new table to the prefix,
  nested-loop joins otherwise (see :mod:`repro.engine.operators`),
* residual and unary predicates evaluated over column arrays, UDF calls
  included (see :mod:`repro.engine.vectorized`),
* an optional **work budget** — used by Skinner-G to emulate per-batch
  timeouts: when the budget is exhausted, execution aborts and all
  intermediate results are lost, exactly like a timed-out DBMS invocation,
* grouped hash-join build sides kept for the life of the executor
  (:class:`~repro.engine.operators.HashBuildCache`): an invocation that joins
  against the very positions array of an earlier one is still *charged* the
  build, but does not sort the table again.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.engine.meter import ChargeLog, CostMeter
from repro.engine.operators import (
    HashBuildCache,
    filter_table,
    hash_join_step,
    nested_loop_step,
)
from repro.engine.relation import RowIdRelation
from repro.errors import PlanningError
from repro.query.predicates import Predicate
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog
from repro.storage.table import Table

#: ``(alias, equi, residual)``: the predicates joining one more alias.
JoinStep = tuple[str, list[Predicate], list[Predicate]]


class PlanExecutor:
    """Executes left-deep join orders for one query against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        query: Query,
        udfs: UdfRegistry | None = None,
    ) -> None:
        self._catalog = catalog
        self._query = query
        self._udfs = udfs
        self._tables: dict[str, Table] = {
            alias: catalog.table(name) for alias, name in query.tables
        }
        self._filtered: dict[str, np.ndarray] | None = None
        self._filter_charges: list[tuple[str, int]] = []
        self._steps: dict[tuple[str, ...], list[JoinStep]] = {}
        #: Grouped build sides of this query's hash joins (see ``execute_order``).
        self.hash_builds = HashBuildCache()

    # ------------------------------------------------------------------
    # pre-processing
    # ------------------------------------------------------------------
    @property
    def tables(self) -> Mapping[str, Table]:
        """Alias-to-table mapping for this query."""
        return self._tables

    def pre_process(
        self, meter: CostMeter | None = None, *, bill_again: bool = False
    ) -> dict[str, np.ndarray]:
        """Apply unary predicates to every table; results are cached.

        A cached pass charges nothing, unless ``bill_again``: then ``meter``
        is charged what the pass cost, charge by charge, so a budget runs out
        exactly where it would on filtering afresh (Skinner-H's attempts and
        its learning run share one executor; a host would scan for each).
        """
        if self._filtered is None:
            log = ChargeLog(meter if meter is not None else CostMeter())
            filtered: dict[str, np.ndarray] = {}
            for alias, table in self._tables.items():
                predicates = self._query.unary_predicates(alias)
                filtered[alias] = filter_table(table, alias, predicates, log, self._udfs)
            self._filtered, self._filter_charges = filtered, log.charges
        elif bill_again:
            meter.replay(self._filter_charges)
        return self._filtered

    def filtered_positions(self, alias: str) -> np.ndarray:
        """Row positions of ``alias`` surviving its unary predicates."""
        return self.pre_process()[alias]

    # ------------------------------------------------------------------
    # join execution
    # ------------------------------------------------------------------
    def execute_order(
        self,
        order: Sequence[str],
        meter: CostMeter,
        base_positions: Mapping[str, np.ndarray] | None = None,
    ) -> RowIdRelation:
        """Execute one left-deep join order and return the join result.

        Parameters
        ----------
        order:
            Permutation of the query's aliases.
        meter:
            Cost meter charged for all work; may carry a budget, in which
            case :class:`~repro.errors.BudgetExceeded` propagates to the
            caller when it runs out.
        base_positions:
            Optional override of the filtered positions per alias.  Skinner-G
            uses this to restrict the left-most table to one batch.  A hash
            join reuses the build side grouped for an earlier call only when
            handed the *same array object* again (int64 arrays pass through
            unconverted), so callers that repeat a restriction should repeat
            the array.
        """
        steps = self.join_steps(order)
        filtered = self.pre_process(meter)
        positions_of = dict(filtered)
        if base_positions:
            positions_of.update({alias: np.asarray(p, dtype=np.int64)
                                 for alias, p in base_positions.items()})

        result = RowIdRelation.from_base(order[0], positions_of[order[0]])
        for alias, equi, residual in steps:
            if equi:
                result = hash_join_step(
                    result, alias, self._tables[alias], positions_of[alias],
                    equi, residual, self._tables, meter, self._udfs,
                    builds=self.hash_builds,
                )
            else:
                result = nested_loop_step(
                    result, alias, self._tables[alias], positions_of[alias],
                    residual, self._tables, meter, self._udfs,
                )
        return result

    def join_steps(self, order: Sequence[str]) -> list[JoinStep]:
        """Per joined alias of ``order``: ``(alias, equi, residual)`` predicates.

        Each join predicate is applied at the first position where all its
        tables are in the prefix; ``equi`` are the equality predicates
        linking the new alias to the prefix (a hash join when non-empty),
        ``residual`` everything else that became applicable.  ``order`` must
        be a permutation of the query's aliases.  The steps are worked out
        once per order (Skinner-G asks again every time slice).
        """
        order = tuple(order)
        steps = self._steps.get(order)
        if steps is None:
            if sorted(order) != sorted(self._query.aliases):
                raise PlanningError(f"join order {order} does not cover query aliases")
            steps = self._steps[order] = self._classify_predicates(order)
        return steps

    def _classify_predicates(self, order: tuple[str, ...]) -> list[JoinStep]:
        """:meth:`join_steps` for an order not seen before."""
        steps = []
        applied: set[int] = set()
        join_predicates = self._query.join_predicates()
        prefix_aliases = {order[0]}
        for alias in order[1:]:
            prefix_aliases.add(alias)
            applicable = [
                (i, predicate)
                for i, predicate in enumerate(join_predicates)
                if i not in applied and predicate.tables() <= prefix_aliases
            ]
            equi = [p for _, p in applicable if p.is_equi_join and alias in p.tables()]
            residual = [p for _, p in applicable if not (p.is_equi_join and alias in p.tables())]
            applied.update(i for i, _ in applicable)
            steps.append((alias, equi, residual))
        return steps

    # ------------------------------------------------------------------
    # helpers used by optimizers and the true-cardinality oracle
    # ------------------------------------------------------------------
    def join_subset_cardinality(self, aliases: Sequence[str]) -> int:
        """True cardinality of joining the given aliases (all predicates applied).

        Used by the C_out oracle that computes truly optimal join orders for
        Tables 3 and 4.  The result only depends on the *set* of aliases, so
        callers may cache by frozenset.
        """
        aliases = list(aliases)
        if len(aliases) == 1:
            return int(self.filtered_positions(aliases[0]).shape[0])
        sub_query = _restrict_query(self._query, aliases)
        executor = PlanExecutor(self._catalog, sub_query, self._udfs)
        executor._filtered = {alias: self.filtered_positions(alias) for alias in aliases}
        meter = CostMeter()
        graph = sub_query.join_graph()
        order = _greedy_connected_order(graph, aliases)
        result = executor.execute_order(order, meter)
        return len(result)


def _restrict_query(query: Query, aliases: Sequence[str]) -> Query:
    """Project a query onto a subset of its aliases (predicates restricted)."""
    alias_set = set(aliases)
    tables = tuple((alias, name) for alias, name in query.tables if alias in alias_set)
    predicates = tuple(p for p in query.predicates if p.tables() <= alias_set)
    return Query(tables=tables, predicates=predicates)


def _greedy_connected_order(graph, aliases: Sequence[str]) -> list[str]:
    """A join order that keeps the prefix connected whenever possible."""
    order = [aliases[0]]
    while len(order) < len(aliases):
        eligible = graph.eligible_next(order)
        order.append(eligible[0])
    return order
