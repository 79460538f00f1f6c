"""An Eddies-style adaptive baseline: per-tuple operator routing.

Eddies (Avnur & Hellerstein) route each tuple through join operators in an
order chosen at run time from observed operator behaviour (lottery
scheduling), instead of fixing a plan up front.  The re-implementation here
follows the spirit of the paper's own re-implemented baseline:

* tuples are driven from one source table; for every driver tuple the order
  in which the remaining tables are probed is chosen adaptively from the
  expansion ratios observed so far (operators that filter aggressively and
  expand little earn more "tickets");
* intermediate results are **never discarded** — once a partial tuple has
  been expanded by an operator, all its matches are kept and routed onward,
  which is exactly the property that makes bad early routing decisions
  expensive (paper §2).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.engine.relation import RowIdRelation
from repro.engine.task import ExecutionBackend, GeneratorTask
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.storage.catalog import Catalog


class _OperatorStats:
    """Observed behaviour of "join in table X" operators (the ticket source)."""

    def __init__(self, aliases: list[str]) -> None:
        self._inputs: dict[str, int] = {alias: 1 for alias in aliases}
        self._outputs: dict[str, int] = {alias: 1 for alias in aliases}

    def record(self, alias: str, inputs: int, outputs: int) -> None:
        self._inputs[alias] += inputs
        self._outputs[alias] += outputs

    def expansion(self, alias: str) -> float:
        """Average output tuples per input tuple for this operator."""
        return self._outputs[alias] / self._inputs[alias]


class EddyTask(GeneratorTask):
    """One query on the eddy."""

    def __init__(self, engine: "EddyEngine", query: Query,
                 work_budget: int | None = None) -> None:
        super().__init__(engine.name, query, engine._udfs, work_budget)
        self._catalog = engine._catalog

    def episodes(self) -> Generator[None, None, RowIdRelation]:
        prepared = self.prepared = preprocess(self._catalog, self.query, self.udfs, self.meter)
        self.tables = prepared.tables
        result_set = self.result_set = JoinResultSet(prepared.aliases)
        if not prepared.is_empty():
            if self.query.num_tables == 1:
                alias = prepared.aliases[0]
                result_set.add_many(
                    (prepared.base_row(alias, index),)
                    for index in range(prepared.cardinality(alias))
                )
            else:
                yield from self._route_all()
        return result_set.to_relation()

    def metric_fields(self) -> dict[str, Any]:
        # The routed tuples enter the result set when routing ends.
        done = self.finished and not self.timed_out
        return {"result_tuple_count": len(self.result_set) if done else 0}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route_all(self) -> Generator[None, None, None]:
        prepared, meter = self.prepared, self.meter
        graph = prepared.query.join_graph()
        aliases = list(prepared.aliases)
        stats = _OperatorStats(aliases)
        driver = min(aliases, key=prepared.cardinality)
        routed: list[tuple[int, ...]] = []
        self._examined = 0
        for driver_index in range(prepared.cardinality(driver)):
            meter.charge_scan(1)
            yield from self._examine()
            partials: list[dict[str, int]] = [{driver: driver_index}]
            joined = [driver]
            while len(joined) < len(aliases) and partials:
                eligible = graph.eligible_next(joined)
                next_alias = min(eligible, key=stats.expansion)
                expanded = yield from self._expand(partials, next_alias)
                stats.record(next_alias, inputs=len(partials), outputs=len(expanded))
                partials = expanded
                joined.append(next_alias)
            for partial in partials:
                routed.append(
                    tuple(prepared.base_row(alias, partial[alias]) for alias in prepared.aliases)
                )
                meter.charge_output(1)
        self.result_set.add_many(routed)  # one insert: adding settles distinctness each time

    def _examine(self) -> Generator[None, None, None]:
        """Count one driver tuple or candidate examined, rejected ones
        included; every ``episode_rows`` of them end an episode."""
        self._examined += 1
        if self._examined == self.episode_rows:
            self._examined = 0
            yield

    def _expand(
        self, partials: list[dict[str, int]], alias: str
    ) -> Generator[None, None, list[dict[str, int]]]:
        """Join every partial tuple with the filtered tuples of ``alias``."""
        applicable = [
            predicate
            for predicate in self.prepared.join_predicates
            if alias in predicate.tables()
            and all(t == alias or t in partials[0] for t in predicate.tables())
        ] if partials else []
        expanded: list[dict[str, int]] = []
        for partial in partials:
            for candidate in self._candidate_indices(partial, alias, applicable):
                extended = dict(partial)
                extended[alias] = candidate
                if self._satisfies(extended, applicable):
                    expanded.append(extended)
                    self.meter.charge_intermediate(1)
                yield from self._examine()
        return expanded

    def _candidate_indices(self, partial: dict[str, int], alias: str, applicable) -> list[int]:
        """Candidate filtered indices of ``alias``, via hash maps when possible."""
        prepared = self.prepared
        for predicate in applicable:
            if not predicate.is_equi_join:
                continue
            left, right = predicate.equi_join_columns()
            own = left if left.table == alias else right
            other = right if left.table == alias else left
            join_map = prepared.join_maps.get((alias, own.column))
            if join_map is None or other.table not in partial:
                continue
            value = prepared.value_at(other.table, other.column, partial[other.table])
            self.meter.charge_probe(1)
            matches = join_map.get(value)
            return [int(i) for i in matches] if matches is not None else []
        return list(range(prepared.cardinality(alias)))

    def _satisfies(self, extended: dict[str, int], applicable) -> bool:
        for predicate in applicable:
            binding: dict[str, Any] = {
                t: self.prepared.binding_for(t, extended[t]) for t in predicate.tables()
            }
            self.meter.charge_predicate(1)
            if predicate.uses_udf:
                self.meter.charge_udf(max(1, predicate.udf_cost(self.udfs) - 1))
            if not predicate.evaluate(binding, self.udfs):
                return False
        return True


class EddyEngine(ExecutionBackend):
    """Adaptive per-tuple routing baseline."""

    #: Engine name used in reports.
    name = "eddy"

    def __init__(self, catalog: Catalog, udfs: UdfRegistry | None = None) -> None:
        self._catalog = catalog
        self._udfs = udfs

    def task(self, query: Query, *, work_budget: int | None = None) -> EddyTask:
        """A resumable task for ``query``; an exhausted ``work_budget`` ends it
        with an empty result and ``extra["timed_out"] = True``."""
        return EddyTask(self, query, work_budget)
