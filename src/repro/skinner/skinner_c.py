"""Skinner-C: regret-bounded query evaluation on the customized engine.

This is Algorithm 3 of the paper: query execution is divided into small time
slices.  At the start of a slice the UCT tree proposes a join order, the
progress tracker restores the most advanced safe state for it, the multi-way
join runs until the slice's budget is exhausted, and the observed progress
becomes the reward that updates the UCT tree.  Result tuples from all join
orders accumulate in a duplicate-eliminating result set; execution ends when
any join order (or the shared offsets) cover the whole input.

``slice_budget`` multi-way-join loop iterations are the *base* budget: what
the first slice of every join order gets.  Later slices of the same order
run at :func:`~repro.skinner.multiway_join.budget_factor` base budgets, and
their reward is divided by that factor, so the tree, the morsel statistics
and the serving layer's order priors all read "progress per base budget".
The selections at which an order's budget would double go to its best
rival instead: a second look at what a misleading first slice may have
hidden.  An order that a warm-start prior names starts where the selections
it has accumulated over earlier queries left it, not at the base budget
(``docs/engines.md``, "Slice budget schedule").
"""

from __future__ import annotations

import dataclasses
import random
import time
import warnings
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.meter import CostMeter, WorkBreakdown
from repro.engine.postprocess import post_process
from repro.engine.task import (
    PRIOR_ORDERS,
    WARM_START_VISITS,
    EngineTask,
    ExecutionBackend,
    OrderPrior,
)
from repro.errors import ExecutionError, ReproError
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryMetrics, QueryResult
from repro.skinner.multiway_join import (
    BATCH_SIZE,
    MAX_BUDGET_FACTOR,
    SECOND_LOOK_FROM,
    MultiwayJoin,
    budget_factor,
)
from repro.skinner.preprocessor import preprocess
from repro.skinner.progress import ProgressTracker
from repro.skinner.result_set import JoinResultSet
from repro.skinner.reward import scaled_delta_reward
from repro.skinner.state import JoinState
from repro.storage.catalog import Catalog
from repro.uct.policy import SKINNER_C_EXPLORATION_WEIGHT
from repro.uct.tree import UctJoinTree

_MAX_SLICES = 5_000_000


def skinner_c_metrics(
    engine: str,
    started: float,
    join: CostMeter,
    pre: CostMeter | None,
    result_set: JoinResultSet,
    **fields: Any,
) -> QueryMetrics:
    """The one place Skinner-C metrics are assembled.

    A learned run charges two meters, pre-processing and the join, and
    reports the first in ``extra["preprocess_work"]``: the share a
    multi-core system spreads (paper §6.1).  A forced-order run charges one
    (``pre=None``) and reports an all-zero share there.  The intermediate
    cardinality is the join's scans.  ``fields`` are passed to
    :class:`QueryMetrics` as they are.
    """
    if pre is None:
        work = join.snapshot()
        spread = WorkBreakdown()
    else:
        total = CostMeter()
        total.merge(pre)
        total.merge(join)
        work = total.snapshot()
        spread = pre.snapshot()
    extra = {**fields.pop("extra", {}), "preprocess_work": dataclasses.asdict(spread)}
    return QueryMetrics.measured(
        engine,
        work,
        started,
        intermediate_cardinality=join.tuples_scanned,
        result_tuple_count=len(result_set),
        extra=extra,
        **fields,
    )


class SkinnerCTask(EngineTask):
    """Episode-sliced execution of one query on the Skinner-C engine.

    The execution loop of Algorithm 3 — choose a join order, restore its
    state, run one budgeted slice of the multi-way join, reward the UCT tree
    — is exposed one *episode* (one time slice) at a time, so a scheduler
    can interleave many queries on one thread: :meth:`run_episode` executes
    exactly one slice and returns whether the query's join phase finished,
    and :meth:`finalize` materializes the result.  Driving a task to
    completion performs exactly the same slice sequence (and charges exactly
    the same meter work) as the monolithic :meth:`SkinnerC.execute` loop,
    which is what makes interleaved and solo runs byte-identical.

    Parameters
    ----------
    order_prior:
        Optional warm-start from the cross-query join-order cache: an
        iterable of ``(order, average_reward, visits, evidence)``.  The
        first three are seeded into the fresh UCT tree before the first
        episode (see :meth:`repro.uct.tree.UctJoinTree.seed`); ``evidence``
        is how many selections the order has accumulated over the queries
        the prior was learned from, and is where it enters the slice-budget
        schedule (:meth:`order_evidence`).
    restrict_positions:
        Optional pre-computed filtered base-row positions per alias.  The
        morsel-parallel coordinator uses this to hand each worker one chunk
        of the partition alias: the worker then executes an ordinary
        Skinner-C task whose universe is the morsel (no unary filtering is
        repeated — and none is charged — for restricted aliases).
    """

    streamable = True
    warm_startable = True

    def __init__(
        self,
        catalog: Catalog,
        query: Query,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        engine_name: str = "skinner-c",
        trace: bool = False,
        order_prior: Sequence[OrderPrior] | None = None,
        restrict_positions: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        self._config = config
        self._learned = config.order_selection == "uct"
        self._engine_name = engine_name
        self._trace = trace
        self._started = time.perf_counter()
        self.query = query
        self.pre_meter = CostMeter()
        self.join_meter = CostMeter()
        self.prepared = preprocess(
            catalog, query, udfs, self.pre_meter,
            build_hash_maps=config.use_hash_jump,
            restrict_positions=restrict_positions,
        )
        self._udfs = udfs
        self._cardinalities = self.prepared.cardinalities()
        self.result_set = JoinResultSet(self.prepared.aliases)
        self.tree = UctJoinTree(
            query.join_graph(),
            exploration_weight=SKINNER_C_EXPLORATION_WEIGHT,
            seed=config.seed,
        )
        self.tracker = ProgressTracker(self.prepared.aliases)
        self.join = MultiwayJoin(
            self.prepared,
            udfs,
            use_hash_jump=config.use_hash_jump,
            batch_size=BATCH_SIZE,
        )
        self._rng = random.Random(config.seed)
        self._graph = query.join_graph()
        self.slices = 0
        #: Selections per join order: the key of the budget schedule.
        self._granted: dict[tuple[str, ...], int] = {}
        #: Rewards earned per join order, to rank rivals for a second look.
        self._earned: dict[tuple[str, ...], float] = {}
        #: Selections a prior brought that the schedule does not count:
        #: evidence for the next query all the same.
        self._withheld: dict[tuple[str, ...], int] = {}
        for order, reward, visits, evidence in order_prior or ():
            self.tree.seed(order, reward, visits)
            # The order enters the schedule at the rung its evidence has
            # earned, one short of it: its first selection here is a
            # doubling one, which a rival gets if the prior names one.
            head_start = budget_factor(evidence + 1) - 1
            self._withheld[order] = evidence - head_start
            if head_start:
                self._granted[order] = head_start
                self._earned[order] = reward * head_start
        self._max_factor = 1
        #: Wall-clock seconds spent inside :meth:`run_episode` — the
        #: reference-time cost of this query's own episodes, free of the
        #: scheduling gaps that inflate ``wall_time_seconds`` when the task
        #: is interleaved with other queries.
        self.episode_wall_seconds = 0.0
        self.trace_records: list[dict[str, Any]] = []
        self.finished = self.prepared.is_empty() or query.num_tables == 1
        if query.num_tables == 1 and not self.prepared.is_empty():
            # Single-table fast path: the filtered rows are the result.
            self.result_set.emit(
                self.prepared.filtered[self.prepared.aliases[0]][:, None], self.prepared.aliases
            )

    def work_total(self) -> int:
        """Total work units charged to this query so far (pre + join phase)."""
        return self.pre_meter.total + self.join_meter.total

    # ------------------------------------------------------------------
    # incremental result delivery (streaming cursors)
    # ------------------------------------------------------------------
    def enable_streaming(self) -> None:
        """Rows will be fetched while the join runs: keep the probe ramp.

        :meth:`drain_new_tuples` returns the tuples each episode added, so a
        serving-layer cursor can hand rows to the client while the join is
        still running, and the client's first fetch waits for one whole
        slice.  A prior's head start in the budget schedule is therefore
        set aside — every order starts at a base budget, as in a cold task
        — and only counts as evidence for the next query.  Call before the
        first episode.  :meth:`finalize` materializes from the full
        duplicate-eliminated set either way.
        """
        for order, head_start in self._granted.items():
            self._withheld[order] += head_start
        self._granted, self._earned = {}, {}

    def drain_new_tuples(self) -> np.ndarray:
        """Result tuples added since the last drain: a matrix, discovery order."""
        return self.result_set.drain_new()

    @property
    def stream_aliases(self) -> tuple[str, ...]:
        """Alias order of the tuples returned by :meth:`drain_new_tuples`."""
        return self.result_set.aliases

    @property
    def stream_tables(self) -> dict[str, Any]:
        """Alias-to-table mapping for projecting streamed tuples."""
        return self.prepared.tables

    def order_evidence(self) -> dict[tuple[str, ...], int]:
        """Selections per join order, a prior's included, up to the cap.

        What the next query on the same join graph may take as its head
        start: past ``MAX_BUDGET_FACTOR`` selections there is no rung left
        to earn.
        """
        evidence = dict(self._withheld)
        for order, granted in self._granted.items():
            evidence[order] = evidence.get(order, 0) + granted
        return {order: min(MAX_BUDGET_FACTOR, count) for order, count in evidence.items()}

    def learned_orders(self, k: int = PRIOR_ORDERS) -> tuple[OrderPrior, ...]:
        """The ``k`` most selected orders, as the next task's warm start.

        Each carries its selection share, its selections capped at
        ``WARM_START_VISITS`` pseudo-visits so real rewards can still
        overrule a misleading prior, and its :meth:`order_evidence` — the
        next task starts the order at the budget this one reached.  The
        serving layer's cross-query order cache and the morsel-parallel
        pilot both hand on exactly this.
        """
        evidence = self.order_evidence()
        return tuple(
            (order, share, min(count, WARM_START_VISITS), evidence.get(order, 0))
            for order, share, count in self.tree.selection_shares(k)
        )

    def run_episode(self) -> bool:
        """Execute one time slice; returns ``True`` when the join finished."""
        if self.finished:
            return True
        episode_started = time.perf_counter()
        self.slices += 1
        if self.slices > _MAX_SLICES:
            raise ExecutionError("Skinner-C exceeded the maximum number of time slices")
        if self._learned:
            order = self.tree.choose_order()
        else:
            order = SkinnerC._random_order(self._graph, self._rng)
        granted = self._granted[order] = self._granted.get(order, 0) + 1
        rival = self._second_look(order, granted)
        if rival is not None:
            order = rival
            granted = self._granted[order] = self._granted[order] + 1
        factor = budget_factor(granted)
        self._max_factor = max(self._max_factor, factor)
        budget = self._config.slice_budget * factor
        state = self.tracker.restore(order, self._cardinalities)
        prior = state.copy()
        finished = self.join.continue_join(
            state,
            self.tracker.offsets,
            budget,
            self.result_set,
            self.join_meter,
        )
        # Progress per base budget, whatever this slice was given: rewards
        # earned at different factors stay comparable.
        reward = scaled_delta_reward(prior, state, self._cardinalities) / factor
        self.tree.update(order, reward)
        self._earned[order] = self._earned.get(order, 0.0) + reward
        self.tracker.backup(state)
        # The one offset a slice moves is its left-most table's.
        leftmost = order[0]
        self.tracker.advance_offset(leftmost, state.indices[0])
        if self.tracker.offsets[leftmost] >= self._cardinalities[leftmost]:
            finished = True
        if self._trace:
            self.trace_records.append(
                {"slice": self.slices, "uct_nodes": self.tree.node_count(), "order": order,
                 "budget": budget, "factor": factor, "reward": reward,
                 "second_look": rival is not None}
            )
        self.finished = finished
        self.episode_wall_seconds += time.perf_counter() - episode_started
        return finished

    def _second_look(self, order: tuple[str, ...], granted: int) -> tuple[str, ...] | None:
        """The rival that gets the slice UCT just gave ``order``, if one is due.

        One is due when the selection is one at which the order's budget
        doubles: its best rival so far — the other order with the highest
        mean reward — runs instead, so an order that a misleading first
        slice undersold is found while finding it is still cheap.
        """
        if (
            not self._learned
            or granted < SECOND_LOOK_FROM
            or granted & (granted - 1)
        ):
            return None
        rivals = [(earned / self._granted[rival], rival)
                  for rival, earned in self._earned.items() if rival != order]
        return max(rivals)[1] if rivals else None

    def finalize(self) -> QueryResult:
        """Post-process the join result and assemble metrics."""
        relation = self.result_set.to_relation()
        output = post_process(
            self.query, relation, self.prepared.tables, self._udfs, self.join_meter
        )
        return QueryResult(output, self._metrics(result_rows=output.num_rows, full=True))

    def partial_metrics(self, result_rows: int) -> QueryMetrics:
        """Metrics for a LIMIT-truncated streamed result.

        Used by the serving layer's LIMIT push-down: the task is abandoned
        once the first ``LIMIT`` rows streamed, so there is no final
        post-processing pass — the charges are whatever the executed
        episode prefix cost, which is by construction no more than a full
        run of the same query.
        """
        return self._metrics(result_rows=result_rows, full=False)

    def _metrics(self, *, result_rows: int, full: bool) -> QueryMetrics:
        extra: dict[str, Any] = {
            "episode_wall_seconds": self.episode_wall_seconds,
            "max_budget_factor": self._max_factor,
        }
        if full:
            extra = {
                "result_bytes": self.result_set.estimated_bytes(),
                "tracker_bytes": self.tracker.estimated_bytes(),
                "uct_bytes": self.tree.node_count() * 64,
                "top_orders": self.tree.top_orders(5),
                "trace": self.trace_records,
                **extra,
            }
        return skinner_c_metrics(
            self._engine_name,
            self._started,
            self.join_meter,
            self.pre_meter,
            self.result_set,
            result_rows=result_rows,
            final_join_order=(
                self.tree.best_order() if self._learned else None
            ),
            time_slices=self.slices,
            uct_nodes=self.tree.node_count(),
            tracker_nodes=self.tracker.node_count(),
            extra=extra,
        )


class SkinnerC(ExecutionBackend):
    """The Skinner-C engine: in-query join-order learning on a custom executor.

    Parameters
    ----------
    catalog:
        Tables to run against.
    udfs:
        Registry of user-defined functions referenced by queries.
    config:
        Tuning knobs; see :class:`~repro.config.SkinnerConfig`.  Its
        ``order_selection`` is ``"uct"`` or ``"random"`` — the latter
        replaces learning by uniform random join-order selection and is the
        baseline of Table 5.
    """

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
    ) -> None:
        if config.order_selection not in ("uct", "random"):
            raise ValueError("order_selection must be 'uct' or 'random'")
        self._catalog = catalog
        self._udfs = udfs
        self._config = config

    @property
    def name(self) -> str:
        """Engine name used in reports."""
        if self._config.order_selection == "random":
            return "skinner-c(random)"
        return "skinner-c"

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def task(
        self,
        query: Query,
        *,
        trace: bool = False,
        order_prior: Sequence[OrderPrior] | None = None,
    ) -> EngineTask:
        """Create a resumable episode task for ``query``.

        With ``config.parallel_workers > 1`` the task is the morsel-parallel
        coordinator (see :mod:`repro.skinner.parallel`) whenever the query
        is eligible: at least two tables, no UDF predicates (UDF callables
        cannot cross a process boundary — such queries fall back to the
        single-process task with a warning), no tracing, and enough base
        rows to form at least two morsels.
        """
        if self._parallel_requested(query, trace=trace):
            from repro.skinner.parallel import ParallelSkinnerCTask

            return ParallelSkinnerCTask(
                self._catalog,
                query,
                self._udfs,
                self._config,
                engine_name=self.name,
                order_prior=order_prior,
            )
        return SkinnerCTask(
            self._catalog,
            query,
            self._udfs,
            self._config,
            engine_name=self.name,
            trace=trace,
            order_prior=order_prior,
        )

    def _parallel_requested(self, query: Query, *, trace: bool) -> bool:
        """Whether ``task`` should hand this query to the parallel coordinator."""
        if self._config.parallel_workers <= 1 or trace or query.num_tables < 2:
            return False
        if query.has_udf_predicates():
            warnings.warn(
                "query has UDF predicates; UDF callables cannot cross a "
                "process boundary, falling back to single-process Skinner-C",
                RuntimeWarning,
                stacklevel=3,
            )
            return False
        try:
            largest = max(
                self._catalog.table(name).num_rows for alias, name in query.tables
            )
        except ReproError:
            return False  # let the single-process path raise the real error
        from repro.skinner.parallel import MIN_MORSEL_ROWS

        return largest >= 2 * MIN_MORSEL_ROWS

    def execute_with_order(self, query: Query, order: tuple[str, ...]) -> QueryResult:
        """Execute a query with one fixed join order on the Skinner-C engine.

        No learning happens: the multi-way join runs the given order to
        completion, at the top budget of the slice schedule from the first
        call.  Tables 3 and 4 use this to measure how a given join
        order (Skinner's learned order, or the C_out-optimal order) performs
        inside the Skinner execution engine.
        """
        started = time.perf_counter()
        meter = CostMeter()
        prepared = preprocess(
            self._catalog, query, self._udfs, meter,
            build_hash_maps=self._config.use_hash_jump,
        )
        result_set = JoinResultSet(prepared.aliases)
        if query.num_tables == 1 and not prepared.is_empty():
            result_set.emit(prepared.filtered[prepared.aliases[0]][:, None], prepared.aliases)
        elif not prepared.is_empty():
            join = MultiwayJoin(
                prepared,
                self._udfs,
                use_hash_jump=self._config.use_hash_jump,
                batch_size=BATCH_SIZE,
            )
            state = JoinState(tuple(order))
            offsets = {alias: 0 for alias in prepared.aliases}
            finished = False
            budget = self._config.slice_budget * MAX_BUDGET_FACTOR
            while not finished:
                finished = join.continue_join(state, offsets, budget, result_set, meter)
        relation = result_set.to_relation()
        output = post_process(query, relation, prepared.tables, self._udfs, meter)
        metrics = skinner_c_metrics(
            f"{self.name}(forced)", started, meter, None, result_set,
            result_rows=output.num_rows, final_join_order=tuple(order),
        )
        return QueryResult(output, metrics)

    @staticmethod
    def _random_order(graph, rng: random.Random) -> tuple[str, ...]:
        """A uniformly random join order avoiding needless Cartesian products."""
        prefix: list[str] = []
        total = len(graph.aliases)
        while len(prefix) < total:
            prefix.append(rng.choice(graph.eligible_next(prefix)))
        return tuple(prefix)
