"""The paper's comparison engines, registered as plug-ins.

The paper sets SkinnerDB against "adaptive processing methods" and query
re-optimization.  Both are baselines of the evaluation, not ways a user runs
a query, so they live here; :func:`register` adds them with
:func:`repro.api.register_engine`, after which ``engine="eddy"`` and
``engine="reoptimizer"`` work on every path a built-in engine does.

* :class:`EddyEngine` — per-tuple routing after Avnur and Hellerstein: for
  every tuple of one driver table the remaining tables are probed in an
  order chosen from the expansion ratios observed so far, and intermediate
  results are **never discarded**, which is what makes bad early routing
  expensive (paper §2).  It evaluates predicates tuple by tuple and ends an
  episode every ``EPISODE_ROWS`` driver tuples and candidates it examines.
* :class:`ReOptimizerEngine` — sampling-based re-optimization after Wu et al.
  (SIGMOD'16): the optimizer's plan prefixes run on a sample of the
  left-most table, an estimate off by more than a validation factor is
  replaced by the scaled-up measurement and the query re-planned, until the
  plan is stable or the rounds run out; the final plan runs in full.  The
  samples are charged like execution, and each ends an episode.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from typing import Any

import numpy as np

from repro.api import DEFAULT_REGISTRY, EngineRegistry, EngineSpec, register_engine
from repro.baselines.traditional import TraditionalTask
from repro.engine.relation import RowIdRelation
from repro.engine.task import ExecutionBackend, GeneratorTask
from repro.optimizer.cardinality import CardinalityEstimator, EstimatedCardinality
from repro.optimizer.exhaustive import choose_plan
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.skinner.preprocessor import preprocess
from repro.storage.catalog import Catalog

from .oracle import restricted
from .scalar import base_row, holds

#: A validation sample joins this share of the left-most alias's filtered
#: rows, at most ``SAMPLE_LIMIT`` of them; an estimate off by more than
#: ``VALIDATION_FACTOR`` either way is corrected, for at most ``MAX_ROUNDS``
#: re-plans.
SAMPLE_FRACTION = 0.1
SAMPLE_LIMIT = 200
VALIDATION_FACTOR = 3.0
MAX_ROUNDS = 5


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
        self.rows = np.empty((0, len(prepared.aliases)), dtype=np.int64)
        if not prepared.is_empty():
            if self.query.num_tables == 1:
                rows = np.array(prepared.filtered[prepared.aliases[0]], dtype=np.int64)
                self.rows = rows.reshape(-1, 1)
            else:
                yield from self._route_all()
        return RowIdRelation.from_blocks(prepared.aliases, [self.rows])

    def metric_fields(self) -> dict[str, Any]:
        # The routed tuples are kept when routing ends.
        done = self.finished and not self.timed_out
        return {"result_tuple_count": self.rows.shape[0] if done else 0}

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
                    tuple(base_row(prepared, alias, partial[alias]) for alias in prepared.aliases)
                )
                meter.charge_output(1)
        # Each driver tuple extends into distinct partials: no row repeats.
        self.rows = np.array(routed, dtype=np.int64).reshape(-1, len(aliases))

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
            # One probe through the map's vectorized lookup.
            index = partial[other.table]
            probe = prepared.physical_column(other.table, other.column)[index:index + 1]
            source = prepared.tables[other.table].column(other.column)
            self.meter.charge_probe(1)
            starts, counts = join_map.bounds(join_map.slots(probe, source))
            start = int(starts[0])
            return join_map.rows[start:start + int(counts[0])].tolist()
        return list(range(prepared.cardinality(alias)))

    def _satisfies(self, extended: dict[str, int], applicable) -> bool:
        for predicate in applicable:
            binding: dict[str, Any] = {
                t: self.tables[t].row(base_row(self.prepared, t, extended[t]))
                for t in predicate.tables()
            }
            self.meter.charge_predicate(1)
            if predicate.uses_udf:
                self.meter.charge_udf(max(1, predicate.udf_cost(self.udfs) - 1))
            if not holds(predicate, binding, self.udfs):
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


class _CorrectedEstimator(CardinalityEstimator):
    """Wraps the statistics-based estimator with sampled corrections."""

    def __init__(self, base: EstimatedCardinality) -> None:
        self._base = base
        self.corrections: dict[frozenset[str], float] = {}

    def base_cardinality(self, alias: str) -> float:
        key = frozenset({alias})
        if key in self.corrections:
            return self.corrections[key]
        return self._base.base_cardinality(alias)

    def cardinality(self, aliases: Sequence[str]) -> float:
        key = frozenset(aliases)
        if key in self.corrections:
            return self.corrections[key]
        return self._base.cardinality(aliases)


class ReOptimizerTask(TraditionalTask):
    """One query on the re-optimizer: validation rounds, then the traditional
    task's run of the final plan.  A sample runs like a plan, charging the
    task's meter (one that exhausts ``work_budget`` times the query out),
    and ends an episode when it is done."""

    def __init__(self, engine: "ReOptimizerEngine", query: Query,
                 work_budget: int | None = None) -> None:
        super().__init__(engine, query, order=(), work_budget=work_budget)  # set from _plan
        base = EstimatedCardinality(query, StatisticsCatalog.of(engine._catalog), engine._udfs)
        self._estimator = _CorrectedEstimator(base)
        self._plan = choose_plan(query, self._estimator)
        self._rounds = 0

    def episodes(self) -> Generator[None, None, RowIdRelation]:
        self._executor.pre_process(self.meter)
        if self.query.num_tables > 1:
            for self._rounds in range(1, MAX_ROUNDS + 1):
                corrections = yield from self._validate(self._plan.order)
                if not corrections:
                    break
                self._estimator.corrections.update(corrections)
                plan, self._plan = self._plan, choose_plan(self.query, self._estimator)
                if plan.order == self._plan.order:
                    break
        self._order = self._plan.order
        return (yield from super().episodes())

    def _validate(self, order: tuple[str, ...]) -> Generator[None, None, dict]:
        """Compare estimated and sampled cardinalities of the plan's prefixes."""
        total = int(self._executor.filtered_positions(order[0]).shape[0])
        if total == 0:
            return {}
        sample_size = max(1, min(SAMPLE_LIMIT, int(total * SAMPLE_FRACTION)))
        scale = total / sample_size
        corrections: dict[frozenset[str], float] = {}
        for prefix_length in range(2, len(order) + 1):
            prefix = order[:prefix_length]
            relation = yield from restricted(self._executor, prefix).run_order(
                list(prefix), self.meter, batch=(0, sample_size), episode_rows=self.episode_rows)
            yield
            measured = len(relation) * scale
            estimated = self._estimator.cardinality(list(prefix))
            ratio = max(measured, 1.0) / max(estimated, 1.0)
            if ratio > VALIDATION_FACTOR or ratio < 1.0 / VALIDATION_FACTOR:
                corrections[frozenset(prefix)] = max(measured, 1.0)
        return corrections

    def metric_fields(self) -> dict[str, Any]:
        return {"final_join_order": self._plan.order,
                "extra": {"reoptimization_rounds": self._rounds,
                          "corrections": len(self._estimator.corrections)}}


class ReOptimizerEngine(ExecutionBackend):
    """Iterative sampling-based re-optimization baseline."""

    #: Engine name used in reports.
    name = "reoptimizer"

    def __init__(self, catalog: Catalog, udfs: UdfRegistry | None = None) -> None:
        self._catalog = catalog
        self._udfs = udfs

    def task(self, query: Query, *, work_budget: int | None = None) -> ReOptimizerTask:
        """A resumable task for ``query``; an exhausted ``work_budget`` ends it
        with an empty result and ``extra["timed_out"] = True``."""
        return ReOptimizerTask(self, query, work_budget)


#: ``(engine class, task class)`` of every engine :func:`register` adds.
ENGINES = ((EddyEngine, EddyTask), (ReOptimizerEngine, ReOptimizerTask))


def register(registry: EngineRegistry | None = None) -> tuple[EngineSpec, ...]:
    """Add ``eddy`` and ``reoptimizer`` to ``registry`` (the default one when
    ``None``); registering a name twice raises
    :class:`~repro.errors.ReproError`."""
    return tuple(
        register_engine(EngineSpec(
            engine_class.name,
            lambda context, cls=engine_class: cls(context.catalog, context.udfs),
            task_class=task_class,
        ), registry=registry)
        for engine_class, task_class in ENGINES
    )


def unregister(registry: EngineRegistry | None = None) -> None:
    """Remove what :func:`register` added."""
    for engine_class, _ in ENGINES:
        (registry if registry is not None else DEFAULT_REGISTRY).unregister(engine_class.name)
