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

import warnings
from collections.abc import Generator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.task import (
    PRIOR_ORDERS,
    WARM_START_VISITS,
    EngineTask,
    ExecutionBackend,
    GeneratorTask,
    OrderPrior,
    run_to_completion,
)
from repro.errors import ExecutionError, ReproError
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryResult
from repro.skinner.multiway_join import (
    BATCH_SIZE,
    MAX_BUDGET_FACTOR,
    SECOND_LOOK_FROM,
    MultiwayJoin,
    budget_factor,
)
from repro.skinner.preprocessor import PreprocessedQuery, preprocess
from repro.skinner.progress import ProgressTracker
from repro.skinner.result_set import JoinResultSet
from repro.skinner.reward import scaled_delta_reward
from repro.skinner.state import JoinState, clamp_in_place
from repro.storage.catalog import Catalog
from repro.uct.policy import SKINNER_C_EXPLORATION_WEIGHT
from repro.uct.tree import UctJoinTree

_MAX_SLICES = 5_000_000


class SkinnerCTask(GeneratorTask):
    """Episode-sliced execution of one query on the Skinner-C engine.

    The execution loop of Algorithm 3 — choose a join order, restore its
    state, run one budgeted slice of the multi-way join, reward the UCT tree
    — is :meth:`episodes`, one *episode* (one time slice) per ``yield``, so
    a scheduler can interleave many queries on one thread.  A solo run
    (:meth:`SkinnerC.execute`) drives the same task through the same slice
    sequence, which is what makes interleaved and solo runs byte-identical.

    Two meters: :attr:`pre_meter` takes unary filtering and join-map builds,
    :attr:`join_meter` (the task's :attr:`meter`) the join and
    post-processing.  The first is reported in ``extra["preprocess_work"]``,
    the share a multi-core system spreads (paper §6.1).

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
    order:
        One forced join order (:meth:`SkinnerC.execute_with_order`): every
        slice runs it at the top budget factor, and pre-processing charges
        the join's meter, so the reported ``preprocess_work`` is zero.

    A subclass may replace how the next slice's order is chosen
    (:meth:`next_order`) and how the query is pre-processed
    (:meth:`preprocess`); the paper's ablations do exactly that
    (``benchmarks/paper/ablations.py``).
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
        order: tuple[str, ...] | None = None,
    ) -> None:
        super().__init__(engine_name, query, udfs)
        self._config = config
        self._forced = order
        self._trace = trace
        self.join_meter = self.meter
        self.pre_meter = CostMeter()
        self.prepared = self.preprocess(
            catalog, query, udfs, self.pre_meter if order is None else self.meter,
            restrict_positions,
        )
        self.tables = self.prepared.tables
        self._cardinalities = self.prepared.cardinalities
        self.result_set = JoinResultSet(self.prepared.aliases)
        self.tree = UctJoinTree(
            query.join_graph(),
            exploration_weight=SKINNER_C_EXPLORATION_WEIGHT,
            seed=config.seed,
        )
        self.tracker = ProgressTracker(self.prepared.aliases)
        self._offsets = self.tracker.offsets  # a view: it follows the tracker
        self.join = MultiwayJoin(self.prepared, udfs, batch_size=BATCH_SIZE)
        self.slices = 0
        #: Slices given to a rival instead of UCT's choice (:meth:`next_order`).
        self.second_looks = 0
        #: Selections per join order: the key of the budget schedule.
        self._granted: dict[tuple[str, ...], int] = {}
        #: Rewards earned per join order, to rank rivals for a second look.
        self._earned: dict[tuple[str, ...], float] = {}
        #: Selections a prior brought that the schedule does not count:
        #: evidence for the next query all the same.
        self._withheld: dict[tuple[str, ...], int] = {}
        for prior_order, reward, visits, evidence in order_prior or ():
            self.tree.seed(prior_order, reward, visits)
            # The order enters the schedule at the rung its evidence has
            # earned, one short of it: its first selection here is a
            # doubling one, which a rival gets if the prior names one.
            head_start = budget_factor(evidence + 1) - 1
            self._withheld[prior_order] = evidence - head_start
            if head_start:
                self._granted[prior_order] = head_start
                self._earned[prior_order] = reward * head_start
        self._max_factor = 1
        #: The state the last slice left its join order in.
        self._last: JoinState | None = None
        self.trace_records: list[dict[str, Any]] = []
        if query.num_tables == 1 and not self.prepared.is_empty():
            # Single-table fast path: the filtered rows are the result.
            self.result_set.emit(
                self.prepared.filtered[self.prepared.aliases[0]][:, None], self.prepared.aliases
            )

    def meters(self) -> tuple[CostMeter, ...]:
        return (self.pre_meter, self.join_meter)

    def preprocess(
        self,
        catalog: Catalog,
        query: Query,
        udfs: UdfRegistry | None,
        meter: CostMeter,
        restrict_positions: Mapping[str, np.ndarray] | None,
    ) -> PreprocessedQuery:
        """Filter the query's tables and build the join maps the hash jumps use."""
        return preprocess(catalog, query, udfs, meter, restrict_positions=restrict_positions)

    def episodes(self) -> Generator[None, None, RowIdRelation]:
        yield from self._slices()
        return self.result_set.to_relation()

    def _slices(self) -> Generator[None, None, None]:
        """One time slice per episode until the join finishes; an empty
        input or a single table finishes in the first, running none."""
        if not (self.prepared.is_empty() or self.query.num_tables == 1):
            while not self._slice():
                yield

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
        first episode.  :meth:`finalize`'s table, built when first read,
        comes from the full duplicate-eliminated set either way.
        """
        super().enable_streaming()
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
        serving layer's cross-query order cache and the morsel coordinator
        (to its later morsels) both hand on exactly this.
        """
        evidence = self.order_evidence()
        return tuple(
            (order, share, min(count, WARM_START_VISITS), evidence.get(order, 0))
            for order, share, count in self.tree.selection_shares(k)
        )

    def _slice(self) -> bool:
        """Execute one time slice; returns ``True`` when the join finished."""
        self.slices += 1
        if self.slices > _MAX_SLICES:
            raise ExecutionError("Skinner-C exceeded the maximum number of time slices")
        looks = self.second_looks
        if self._forced is not None:
            order, factor = self._forced, MAX_BUDGET_FACTOR
        else:
            order = self.next_order()
            granted = self._granted[order] = self._granted.get(order, 0) + 1
            factor = budget_factor(granted)
        if factor > self._max_factor:
            self._max_factor = factor
        budget = self._config.slice_budget * factor
        cardinalities, tracker, offsets = self._cardinalities, self.tracker, self._offsets
        state = self._last
        if state is not None and state.order == order:
            # The last slice ran this order, and only its own offset has
            # moved since: the tracker would restore where that slice
            # stopped, raised to the offsets — the parked state, mostly.
            clamp_in_place(state, offsets, cardinalities)
        else:
            state = self._last = tracker.restore(order, cardinalities)
        prior = state.copy()
        finished = self.join.continue_join(
            state, offsets, budget, self.result_set, self.join_meter)
        # Progress per base budget, whatever this slice was given: rewards
        # earned at different factors stay comparable.
        reward = scaled_delta_reward(prior, state, cardinalities) / factor
        self.tree.update(order, reward)
        self._earned[order] = self._earned.get(order, 0.0) + reward
        tracker.backup(state)
        # The one offset a slice moves is its left-most table's.
        leftmost = order[0]
        tracker.advance_offset(leftmost, state.indices[0])
        if offsets[leftmost] >= cardinalities[leftmost]:
            finished = True
        if self._trace:
            self.trace_records.append(
                {"slice": self.slices, "uct_nodes": self.tree.node_count(), "order": order,
                 "budget": budget, "factor": factor, "reward": reward,
                 "second_look": self.second_looks > looks}
            )
        return finished

    def next_order(self) -> tuple[str, ...]:
        """The join order the next slice runs: UCT's choice, or a second look.

        A second look is due when UCT's choice is a selection at which the
        order's budget doubles: its best rival so far — the other order
        with the highest mean reward — runs instead, so an order that a
        misleading first slice undersold is found while finding it is still
        cheap.  UCT's choice keeps the selection all the same.
        """
        order = self.tree.choose_order()
        granted = self._granted.get(order, 0) + 1
        if granted < SECOND_LOOK_FROM or granted & (granted - 1):
            return order
        rivals = [(earned / self._granted[rival], rival)
                  for rival, earned in self._earned.items() if rival != order]
        if not rivals:
            return order
        self._granted[order] = granted
        self.second_looks += 1
        return max(rivals)[1]

    def metric_fields(self) -> dict[str, Any]:
        uct_nodes = self.tree.node_count()
        return {
            "final_join_order": self._forced or self.tree.best_order(),
            "time_slices": self.slices,
            "uct_nodes": uct_nodes,
            "tracker_nodes": self.tracker.node_count(),
            # The intermediate cardinality is the join's scans.
            "intermediate_cardinality": self.join_meter.tuples_scanned,
            "result_tuple_count": len(self.result_set),
            "extra": {
                "result_bytes": self.result_set.estimated_bytes(),
                "tracker_bytes": self.tracker.estimated_bytes(),
                "uct_bytes": uct_nodes * 64,
                "top_orders": self.tree.top_orders(5),
                "trace": self.trace_records,
                "max_budget_factor": self._max_factor,
                "preprocess_work": self.pre_meter.counts(),
            },
        }


class SkinnerC(ExecutionBackend):
    """The Skinner-C engine: in-query join-order learning on a custom executor.

    Parameters
    ----------
    catalog:
        Tables to run against.
    udfs:
        Registry of user-defined functions referenced by queries.
    config:
        Tuning knobs; see :class:`~repro.config.SkinnerConfig`.
    """

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
    ) -> None:
        self._catalog = catalog
        self._udfs = udfs
        self._config = config

    @property
    def name(self) -> str:
        """Engine name used in reports."""
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
        single-process task with a warning), and enough base rows to form
        at least two morsels.
        """
        task_class = SkinnerCTask
        if self._parallel_requested(query):
            from repro.skinner.parallel import ParallelSkinnerCTask

            task_class = ParallelSkinnerCTask
        return task_class(
            self._catalog,
            query,
            self._udfs,
            self._config,
            engine_name=self.name,
            trace=trace,
            order_prior=order_prior,
        )

    def _parallel_requested(self, query: Query) -> bool:
        """Whether ``task`` should hand this query to the parallel coordinator."""
        if self._config.parallel_workers <= 1 or query.num_tables < 2:
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
        return run_to_completion(SkinnerCTask(
            self._catalog, query, self._udfs, self._config,
            engine_name=f"{self.name}(forced)", order=tuple(order),
        ))
