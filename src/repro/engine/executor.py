"""The left-deep plan executor used as the "existing DBMS" execution engine.

This executor plays the role Postgres / MonetDB play in the paper: it is a
conventional engine that executes one join order for a query (or for a batch
of a query), producing a row-id relation.  It supports:

* pre-processing (unary predicate filtering),
* hash joins when equality predicates link the new table to the prefix,
  nested-loop joins otherwise (see :mod:`repro.engine.operators`),
* residual and unary predicates evaluated over column arrays, UDF calls
  included (see :mod:`repro.engine.vectorized`),
* an optional **work budget** — used by Skinner-G to emulate per-batch
  timeouts: when the budget is exhausted, execution aborts and all
  intermediate results are lost, exactly like a timed-out DBMS invocation.

Filtered positions and grouped hash-join build sides come from the catalog's
:class:`~repro.engine.statement_cache.StatementCache`, shared with every
other statement and engine on the same table versions.  A build side is
*charged* on every join all the same, as the host DBMS the paper targets
would pay it; only the sort is saved.
"""

from __future__ import annotations

from collections.abc import Generator, Hashable, Mapping, Sequence
from functools import partial

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.meter import ChargeLog, CostMeter
from repro.engine.operators import (
    Candidates,
    apply_residual,
    cross_candidates,
    hash_join_candidates,
)
from repro.engine.relation import RowIdRelation
from repro.engine.statement_cache import StatementCache
from repro.query.join_graph import JoinStep
from repro.query.predicates import Predicate
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.storage.catalog import Catalog
from repro.storage.table import Table


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
        self._cache = StatementCache.of(catalog)
        self._filtered: dict[str, np.ndarray] | None = None
        #: Per alias, the cache key of its filter (``None``: a UDF is called).
        self._filter_keys: dict[str, Hashable | None] = {}
        self._filter_charges: list[tuple[str, int]] = []
        #: ``(alias, key columns) -> (map, lower, map.suffix(lower))``: every
        #: build side joined against, with the last remainder cut from it.
        self._builds: dict[tuple[str, tuple[str, ...]],
                           tuple[GroupedJoinMap, int, GroupedJoinMap]] = {}

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
        """Every alias's rows surviving its unary predicates.

        The first pass charges ``meter`` what filtering costs, also where the
        statement cache held the filter.  A later pass charges nothing, unless
        ``bill_again``: then ``meter`` is charged the first pass, charge by
        charge, so a budget runs out exactly where it would on filtering
        afresh (Skinner-H's attempts and its learning run share one executor;
        a host would scan for each).
        """
        if self._filtered is None:
            log = ChargeLog(meter if meter is not None else CostMeter())
            filtered: dict[str, np.ndarray] = {}
            for alias, table in self._tables.items():
                predicates = self._query.unary_predicates(alias)
                filtered[alias], self._filter_keys[alias] = self._cache.filter(
                    table, alias, predicates, log, self._udfs
                )
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
        batch: tuple[int, int] | None = None,
        lower: Mapping[str, int] | None = None,
    ) -> RowIdRelation:
        """:meth:`run_order` to its end in one call: each step one range."""
        steps = self.run_order(order, meter, batch, lower)
        while True:
            try:
                next(steps)
            except StopIteration as done:
                return done.value

    def run_order(
        self,
        order: Sequence[str],
        meter: CostMeter,
        batch: tuple[int, int] | None = None,
        lower: Mapping[str, int] | None = None,
        *,
        episode_rows: int | None = None,
    ) -> Generator[None, None, RowIdRelation]:
        """Execute the left-deep join ``order``, charging ``meter`` (a budget
        on it raises :class:`~repro.errors.BudgetExceeded`), and return the
        join result; yield every ``episode_rows`` candidate rows built
        (never, for ``None``).

        ``batch`` ``(start, stop)`` joins only these filtered rows of the
        left-most alias (Skinner-G's batch); ``lower[alias]`` is the first
        filtered row ``alias`` joins with (Skinner-G's remainders, joined on
        a :meth:`~repro.engine.joinkernels.GroupedJoinMap.suffix` of the
        cached map).  A step is charged whole — build scan, probes, every
        candidate — before its candidates are built and filtered range by
        range in probe order: ``episode_rows`` moves only the order of
        residual charges, never the rows or the counters.
        """
        steps = self.join_steps(order)
        filtered = self.pre_process(meter)
        lower = lower or {}
        first = filtered[order[0]]
        if batch is not None:
            first = first[batch[0]:batch[1]]
        result = RowIdRelation.from_base(order[0], first)
        room = episode_rows
        for alias, equi, residual in steps:
            positions = filtered[alias]
            cut = lower.get(alias, 0)
            if equi:
                candidates = hash_join_candidates(
                    result, alias, self._tables[alias], positions, equi,
                    self._tables, meter, cut, partial(self._build_side, alias, cut),
                )
            else:
                candidates = cross_candidates(result, alias, positions[cut:], meter)
            if room is None:  # one range, as Skinner-G/H's batches run: no generator
                result = apply_residual(candidates.take(0, candidates.total), residual,
                                        self._tables, meter, self._udfs)
            else:
                result, room = yield from self._filter_ranges(
                    candidates, (*result.aliases, alias), residual, meter, room, episode_rows)
        return result

    def _filter_ranges(
        self, candidates: Candidates, names: Sequence[str], residual: Sequence[Predicate],
        meter: CostMeter, room: int, episode_rows: int,
    ) -> Generator[None, None, tuple[RowIdRelation, int]]:
        """A step's candidates (over ``names``) built and filtered range by
        range, yielding whenever ``room`` runs out: the step's relation and
        the room left.  With no residual predicate all survive, and ranges
        are written into place rather than held twice by a concatenation."""
        into = None
        if not residual and candidates.total > room:
            into = {name: np.empty(candidates.total, dtype=np.int64) for name in names}
        parts, done = [], 0
        while True:
            stop = min(candidates.total, done + room)
            part = apply_residual(candidates.take(done, stop), residual,
                                  self._tables, meter, self._udfs)
            if into is None:
                parts.append(part)
            else:
                for name, ids in into.items():
                    ids[done:stop] = part.ids(name)
            room -= stop - done
            if not room:
                yield
                room = episode_rows
            done = stop
            if done == candidates.total:
                break
        if into is not None:
            return RowIdRelation(into), room
        if len(parts) == 1:
            return parts[0], room
        return RowIdRelation({name: np.concatenate([part.ids(name) for part in parts])
                              for name in names}), room

    def _build_side(self, alias: str, lower: int, columns: tuple[str, ...]) -> GroupedJoinMap:
        """``alias``'s filtered rows from ``lower`` on, grouped by ``columns``."""
        key = (alias, columns)
        held = self._builds.get(key)
        if held is None:
            join_map = self._cache.join_map(
                self._filter_keys[alias], self._tables[alias], columns, self._filtered[alias]
            )
            held = self._builds[key] = (join_map, 0, join_map)
        if held[1] != lower:
            held = self._builds[key] = (held[0], lower, held[0].suffix(lower))
        return held[2]

    def join_steps(self, order: Sequence[str]) -> tuple[JoinStep, ...]:
        """Per joined alias of ``order``: ``(alias, equi, residual)``
        predicates (:meth:`~repro.query.join_graph.JoinGraph.join_steps`,
        worked out once per query and order)."""
        return self._query.join_graph().join_steps(order)
