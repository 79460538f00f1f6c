"""The depth-first multi-way join with fast join-order switching (Algorithm 2).

The join keeps at most one partial tuple at any time: a vector of tuple
indices, one per table of the join order.  Execution is a depth-first search
over index combinations — descend when the current partial tuple satisfies
all newly applicable predicates, advance the current index otherwise, and
backtrack when a table is exhausted.  Because the complete execution state is
that index vector, suspending after a bounded number of loop iterations and
resuming later (possibly after executing other join orders in between) is
essentially free.

With equality join predicates, advancing an index "jumps" directly to the
next tuple whose join column matches the value fixed by the preceding tables,
using the hash maps built during pre-processing (paper §4.5, last paragraph).

The production executor is **batched**: it materializes the full run of
candidate row indices at a join-order position — the matching bucket of the
pre-processing hash maps, or a bounded ``arange`` for scan positions — as an
``int64`` array, takes up to ``batch_size`` of them at a time, applies the
newly applicable predicates vectorized over the column arrays, and emits
surviving combinations into the result set in bulk.  Suspension works
mid-batch: the per-position batch cursors are recorded in the
:class:`~repro.skinner.state.JoinState` so another join order can take over
after any slice, and the tuple-index vector alone is always sufficient to
rebuild the exact position.

:meth:`MultiwayJoin._continue_scalar` is the literal transcription of
Algorithm 2 (one tuple index per loop iteration).  Nothing in the production
path calls it; the equivalence tests compare the batched executor against it.
Both enumerate result combinations in the same lexicographic sequence and
evaluate the same predicates per candidate, so they emit identical rows in
identical order and finish in identical states; the scalar loop additionally
examines the reset index on every descent, so its slice boundaries and scan
charges differ (see ``tests/test_batched_join.py``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.meter import CostMeter
from repro.engine.vectorized import NotVectorizable, broadcast, evaluate_value, vectorizable
from repro.query.expressions import ColumnRef
from repro.query.predicates import _COMPARATORS, Predicate
from repro.query.udf import UdfRegistry
from repro.skinner.preprocessor import PreprocessedQuery
from repro.skinner.result_set import JoinResultSet
from repro.skinner.state import JoinState
from repro.storage.column import ColumnType

_EMPTY = np.empty(0, dtype=np.int64)

#: comparators for vectorized predicate plans.  The scalar path evaluates
#: predicates through the same table (its lambdas broadcast over numpy
#: arrays), so both executors inherit any operator change together.
_VECTOR_OPS = _COMPARATORS

#: mirrored operator when the batch-position column is the right-hand side.
_MIRRORED_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class _JumpSpec:
    """How to jump the index at one join-order position via hashing."""

    own_column: str
    earlier_position: int
    earlier_alias: str
    earlier_column: str


@dataclass
class _PredicatePlan:
    """How to evaluate one newly applicable predicate over a candidate batch.

    ``vectorized`` plans compare the batch position's physical column values
    against the single value fixed by an earlier position.  ``expression``
    plans evaluate both sides of a UDF-free comparison over decoded column
    arrays (built-in arithmetic, literals, string columns as ``object``
    arrays) — the generic fallback, vectorized.  Only true UDF predicates
    (and bare boolean expressions) remain row-at-a-time over the batch,
    which matches the scalar executor's behavior exactly.
    """

    predicate: Predicate
    aliases: tuple[str, ...]
    vectorized: bool = False
    expression: bool = False
    own_column: str | None = None
    op: str | None = None
    own_is_string: bool = False
    other_alias: str | None = None
    other_column: str | None = None
    other_position: int = -1


@dataclass
class _OrderContext:
    """Per-join-order precomputation: applicable predicates and jump specs."""

    order: tuple[str, ...]
    cardinalities: tuple[int, ...]
    predicates_at: list[list[Predicate]] = field(default_factory=list)
    predicate_aliases_at: list[list[tuple[str, ...]]] = field(default_factory=list)
    jump_at: list[_JumpSpec | None] = field(default_factory=list)
    plans_at: list[list[_PredicatePlan]] = field(default_factory=list)
    #: join-order position of each alias in canonical (declaration) order.
    canonical_positions: tuple[int, ...] = ()
    #: alias -> join-order position, shared by the per-batch fallback path.
    order_positions: dict[str, int] = field(default_factory=dict)


class _Frame:
    """Candidate run of one join-order position during batched execution.

    ``matches`` holds the hash-map bucket for jump positions (``None`` for
    scan positions, whose candidates are the implicit ascending row range).
    ``cursor``/``next_row`` point at the next unexamined candidate;
    ``survivors``/``scursor`` hold the predicate-filtered remainder of the
    current chunk at intermediate depths.  A plain ``__slots__`` class: one
    frame is allocated per descent, which makes construction cost part of
    the hot path.
    """

    __slots__ = ("matches", "cursor", "next_row", "survivors", "scursor")

    def __init__(self, matches: np.ndarray | None, cursor: int = 0, next_row: int = 0) -> None:
        self.matches = matches
        self.cursor = cursor
        self.next_row = next_row
        self.survivors = _EMPTY
        self.scursor = 0

    def exhausted(self, cardinality: int) -> bool:
        if self.matches is not None:
            return self.cursor >= self.matches.shape[0]
        return self.next_row >= cardinality

    def take(self, limit: int, cardinality: int) -> np.ndarray:
        """Next chunk of at most ``limit`` unexamined candidate row ids."""
        if self.matches is not None:
            chunk = self.matches[self.cursor : self.cursor + limit]
            self.cursor += int(chunk.shape[0])
            return chunk
        high = min(self.next_row + limit, cardinality)
        if high <= self.next_row:
            return _EMPTY
        chunk = np.arange(self.next_row, high, dtype=np.int64)
        self.next_row = high
        return chunk

    def next_bound(self, cardinality: int) -> int:
        """Row id the next unexamined candidate starts at (for suspension)."""
        if self.matches is not None:
            if self.cursor < self.matches.shape[0]:
                return int(self.matches[self.cursor])
            return cardinality
        return min(self.next_row, cardinality)

    def batch_cursor(self) -> int:
        """Progress marker within the candidate run (saved in JoinState)."""
        if self.matches is not None:
            return self.cursor
        return self.next_row


@dataclass
class _SuspendedRun:
    """Frames parked when a slice suspends, for exact mid-batch resumption."""

    snapshot: tuple[int, ...]
    cursors: list[int]
    frames: list[_Frame | None]
    depth: int


class MultiwayJoin:
    """Executes join orders for one pre-processed query, one slice at a time.

    Parameters
    ----------
    batch_size:
        Candidates examined per vectorized batch; larger values amortize
        interpreter overhead across NumPy operations.  Batches are clamped
        to the remaining slice budget and to the meter's remaining work
        budget.
    """

    def __init__(
        self,
        prepared: PreprocessedQuery,
        udfs: UdfRegistry | None = None,
        *,
        use_hash_jump: bool = True,
        batch_size: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self._prepared = prepared
        self._udfs = udfs
        self._use_hash_jump = use_hash_jump
        self._batch_size = batch_size
        self._contexts: dict[tuple[str, ...], _OrderContext] = {}
        self._suspended: dict[tuple[str, ...], _SuspendedRun] = {}

    # ------------------------------------------------------------------
    # per-order preparation
    # ------------------------------------------------------------------
    def context_for(self, order: tuple[str, ...]) -> _OrderContext:
        """Build (or fetch) the cached execution context for a join order."""
        context = self._contexts.get(order)
        if context is not None:
            return context
        prepared = self._prepared
        cardinalities = tuple(prepared.cardinality(alias) for alias in order)
        context = _OrderContext(order=order, cardinalities=cardinalities)
        remaining = list(prepared.join_predicates)
        seen: set[str] = set()
        for position, alias in enumerate(order):
            seen.add(alias)
            newly = [p for p in remaining if p.tables() <= seen and alias in p.tables()]
            remaining = [p for p in remaining if p not in newly]
            context.predicates_at.append(newly)
            context.predicate_aliases_at.append([tuple(sorted(p.tables())) for p in newly])
            context.jump_at.append(self._jump_spec(order, position, newly))
            context.plans_at.append(
                [self._plan_predicate(order, position, p) for p in newly]
            )
        order_position = {alias: position for position, alias in enumerate(order)}
        context.order_positions = order_position
        context.canonical_positions = tuple(
            order_position[alias] for alias in prepared.aliases
        )
        self._contexts[order] = context
        return context

    def _jump_spec(
        self, order: tuple[str, ...], position: int, predicates: list[Predicate]
    ) -> _JumpSpec | None:
        if not self._use_hash_jump or position == 0:
            return None
        alias = order[position]
        earlier = {a: p for p, a in enumerate(order[:position])}
        for predicate in predicates:
            if not predicate.is_equi_join:
                continue
            left, right = predicate.equi_join_columns()
            own = left if left.table == alias else right
            other = right if left.table == alias else left
            if other.table not in earlier:
                continue
            if (alias, own.column) not in self._prepared.join_maps:
                continue
            return _JumpSpec(
                own_column=own.column,
                earlier_position=earlier[other.table],
                earlier_alias=other.table,
                earlier_column=other.column,
            )
        return None

    def _plan_predicate(
        self, order: tuple[str, ...], position: int, predicate: Predicate
    ) -> _PredicatePlan:
        """Classify a newly applicable predicate for batched evaluation."""
        alias = order[position]
        aliases = tuple(sorted(predicate.tables()))
        plan = _PredicatePlan(predicate=predicate, aliases=aliases)
        left, op, right = predicate.left, predicate.op, predicate.right
        if (
            op not in _VECTOR_OPS
            or not isinstance(left, ColumnRef)
            or not isinstance(right, ColumnRef)
            or left.table == right.table
        ):
            plan.expression = (
                op in _VECTOR_OPS
                and right is not None
                and not predicate.uses_udf
                and vectorizable(left)
                and vectorizable(right)
            )
            return plan
        if left.table == alias:
            own, other = left, right
        elif right.table == alias:
            own, other = right, left
            op = _MIRRORED_OP[op]
        else:  # pragma: no cover - newly applicable predicates name the alias
            return plan
        prepared = self._prepared
        own_type = prepared.tables[alias].column(own.column).ctype
        other_type = prepared.tables[other.table].column(other.column).ctype
        own_is_string = own_type is ColumnType.STRING
        other_is_string = other_type is ColumnType.STRING
        if own_is_string != other_is_string:
            plan.expression = True  # mixed string/numeric: decoded Python semantics
            return plan
        if own_is_string and op not in ("=", "!="):
            plan.expression = True  # ordering on strings: compare decoded arrays
            return plan
        earlier = {a: p for p, a in enumerate(order[:position])}
        plan.vectorized = True
        plan.own_column = own.column
        plan.op = op
        plan.own_is_string = own_is_string
        plan.other_alias = other.table
        plan.other_column = other.column
        plan.other_position = earlier[other.table]
        return plan

    # ------------------------------------------------------------------
    # ContinueJoin (Algorithm 2)
    # ------------------------------------------------------------------
    def continue_join(
        self,
        state: JoinState,
        offsets: Mapping[str, int],
        budget: int,
        result_set: JoinResultSet,
        meter: CostMeter,
    ) -> bool:
        """Execute ``state.order`` for at most ``budget`` candidate tuples.

        Returns ``True`` when the join order has been fully enumerated (the
        left-most table is exhausted), ``False`` when the budget ran out.
        Result tuples are added to ``result_set``; ``state`` is advanced in
        place so the caller can back it up.  The budget counts examined
        candidate tuples, so a batch of ``n`` candidates consumes ``n`` units.
        """
        context = self.context_for(state.order)
        order = context.order
        cardinalities = context.cardinalities
        last = len(order) - 1
        if any(c == 0 for c in cardinalities):
            state.batch_cursors = None
            return True

        # Resuming restarts the descent at depth 0, which costs up to one
        # iteration per join-order position before any index advances; a
        # budget below that would make no progress and never terminate.
        budget = max(budget, len(order) + 1)
        frames, depth, iterations = self._resume_frames(context, state, meter)
        while True:
            if iterations >= budget:
                self._suspend(context, state, frames, depth)
                return False
            frame = frames[depth]
            if frame is None:
                frame = self._make_frame(context, state, depth, state.indices[depth])
                frames[depth] = frame
            if depth == last:
                limit = meter.clamp_batch(min(self._batch_size, budget - iterations))
                chunk = frame.take(limit, cardinalities[depth])
                if chunk.shape[0] == 0:
                    depth = self._pop_frame(context, state, frames, offsets, depth)
                    if depth < 0:
                        state.batch_cursors = None
                        return True
                    continue
                iterations += int(chunk.shape[0])
                meter.charge_scan(int(chunk.shape[0]))
                survivors = self._filter_batch(context, depth, state, chunk, meter)
                if survivors.shape[0]:
                    self._emit_batch(context, state, depth, survivors, result_set, meter)
                state.indices[depth] = frame.next_bound(cardinalities[depth])
                continue
            if frame.scursor >= frame.survivors.shape[0]:
                if frame.exhausted(cardinalities[depth]):
                    depth = self._pop_frame(context, state, frames, offsets, depth)
                    if depth < 0:
                        state.batch_cursors = None
                        return True
                    continue
                limit = meter.clamp_batch(min(self._batch_size, budget - iterations))
                chunk = frame.take(limit, cardinalities[depth])
                iterations += int(chunk.shape[0])
                meter.charge_scan(int(chunk.shape[0]))
                frame.survivors = self._filter_batch(context, depth, state, chunk, meter)
                frame.scursor = 0
                continue
            state.indices[depth] = int(frame.survivors[frame.scursor])
            frame.scursor += 1
            depth += 1

    def _make_frame(
        self, context: _OrderContext, state: JoinState, depth: int, lower: int
    ) -> _Frame:
        """Materialize the candidate run at ``depth`` starting from ``lower``."""
        spec = context.jump_at[depth]
        if spec is None:
            return _Frame(None, next_row=max(0, lower))
        prepared = self._prepared
        earlier_index = state.indices[spec.earlier_position]
        value = prepared.value_at(spec.earlier_alias, spec.earlier_column, earlier_index)
        join_map = prepared.join_maps[(context.order[depth], spec.own_column)]
        matches = join_map.get(value)
        if matches is None:
            matches = _EMPTY
        if lower <= 0 or matches.shape[0] == 0:
            start = 0
        else:
            start = int(np.searchsorted(matches, lower, side="left"))
        return _Frame(matches=matches, cursor=start)

    def _pop_frame(
        self,
        context: _OrderContext,
        state: JoinState,
        frames: list[_Frame | None],
        offsets: Mapping[str, int],
        depth: int,
    ) -> int:
        """Backtrack from an exhausted position, resetting it to its offset."""
        state.indices[depth] = offsets.get(context.order[depth], 0)
        frames[depth] = None
        return depth - 1

    def _resume_frames(
        self, context: _OrderContext, state: JoinState, meter: CostMeter
    ) -> tuple[list[_Frame | None], int, int]:
        """Rebuild (or reuse) the per-position candidate runs for a state.

        A state suspended by this executor resumes from the parked frames via
        the batch cursors; any other state (restored by the progress tracker,
        clamped to new offsets, or freshly initialized) is rebuilt by
        descending along its index vector: a position whose index is a
        satisfied candidate keeps its deeper indices, the first unsatisfied
        position becomes the resumption depth — exactly the scalar
        executor's re-descent semantics.
        """
        order = context.order
        cardinalities = context.cardinalities
        parked = self._suspended.pop(order, None)
        if (
            parked is not None
            and parked.snapshot == tuple(state.indices)
            and (state.batch_cursors is None or state.batch_cursors == parked.cursors)
        ):
            return parked.frames, parked.depth, 0
        frames: list[_Frame | None] = [None] * len(order)
        depth = 0
        iterations = 0
        last = len(order) - 1
        for position in range(len(order)):
            index = state.indices[position]
            frames[position] = self._make_frame(context, state, position, index)
            depth = position
            if position == last:
                break
            if index >= cardinalities[position]:
                break
            iterations += 1
            meter.charge_scan(1)
            frame = frames[position]
            if frame.matches is not None:
                if frame.cursor >= frame.matches.shape[0] or int(
                    frame.matches[frame.cursor]
                ) != index:
                    break
            satisfied = self._filter_batch(
                context, position, state, np.asarray([index], dtype=np.int64), meter
            )
            if satisfied.shape[0] == 0:
                break
            # The saved index is the current candidate: consume it from the
            # run and keep descending with the deeper saved indices.
            if frame.matches is not None:
                frame.cursor += 1
            else:
                frame.next_row = index + 1
            depth = position + 1
        return frames, depth, iterations

    def _suspend(
        self,
        context: _OrderContext,
        state: JoinState,
        frames: list[_Frame | None],
        depth: int,
    ) -> None:
        """Record the mid-batch position in the state and park the frames."""
        cardinalities = context.cardinalities
        frame = frames[depth]
        if frame is not None:
            if frame.scursor < frame.survivors.shape[0]:
                state.indices[depth] = int(frame.survivors[frame.scursor])
            else:
                state.indices[depth] = frame.next_bound(cardinalities[depth])
        cursors = [f.batch_cursor() if f is not None else 0 for f in frames]
        state.batch_cursors = cursors
        self._suspended[context.order] = _SuspendedRun(
            snapshot=tuple(state.indices),
            cursors=list(cursors),
            frames=frames,
            depth=depth,
        )

    def _filter_batch(
        self,
        context: _OrderContext,
        depth: int,
        state: JoinState,
        candidates: np.ndarray,
        meter: CostMeter,
    ) -> np.ndarray:
        """Apply the newly applicable predicates at ``depth`` to a batch.

        Predicates are applied sequentially to the shrinking survivor array,
        so the number of evaluations charged matches the scalar executor's
        per-tuple short-circuiting.
        """
        plans = context.plans_at[depth]
        if not plans:
            return candidates
        prepared = self._prepared
        alias = context.order[depth]
        for plan in plans:
            if candidates.shape[0] == 0:
                return candidates
            meter.charge_predicate(int(candidates.shape[0]))
            if plan.vectorized:
                own_values = prepared.physical_column(alias, plan.own_column)[candidates]
                other_value = prepared.value_at(
                    plan.other_alias, plan.other_column, state.indices[plan.other_position]
                )
                if plan.own_is_string:
                    code = prepared.encode_for(alias, plan.own_column, other_value)
                    mask = own_values == code if plan.op == "=" else own_values != code
                else:
                    mask = _VECTOR_OPS[plan.op](own_values, other_value)
                candidates = candidates[mask]
                continue
            if plan.expression:
                filtered = self._filter_expression(context, plan, alias, state, candidates)
                if filtered is not None:
                    candidates = filtered
                    continue
            candidates = self._filter_generic(context, plan, alias, state, candidates, meter)
        return candidates

    def _filter_expression(
        self,
        context: _OrderContext,
        plan: _PredicatePlan,
        alias: str,
        state: JoinState,
        candidates: np.ndarray,
    ) -> np.ndarray | None:
        """Vectorized evaluation of a UDF-free comparison over decoded arrays.

        Columns of the batch alias resolve to decoded column arrays sliced by
        the candidate run; columns of earlier positions resolve to the single
        decoded value those positions have fixed.  Returns ``None`` when the
        expression turns out not to vectorize after all (e.g. arithmetic on
        strings) so the caller can take the row-at-a-time path instead.
        """
        prepared = self._prepared
        position_of = context.order_positions

        def resolve(ref: ColumnRef) -> Any:
            if ref.table == alias:
                return prepared.decoded_array(alias, ref.column)[candidates]
            return prepared.value_at(ref.table, ref.column, state.indices[position_of[ref.table]])

        predicate = plan.predicate
        try:
            left = evaluate_value(predicate.left, resolve)
            right = evaluate_value(predicate.right, resolve)
            mask = np.asarray(_VECTOR_OPS[predicate.op](left, right), dtype=bool)
        except NotVectorizable:
            return None
        if mask.ndim == 0:  # incomparable scalar fallout: uniform truth value
            mask = broadcast(bool(mask), int(candidates.shape[0])).astype(bool)
        return candidates[mask]

    def _filter_generic(
        self,
        context: _OrderContext,
        plan: _PredicatePlan,
        alias: str,
        state: JoinState,
        candidates: np.ndarray,
        meter: CostMeter,
    ) -> np.ndarray:
        """Row-at-a-time fallback for UDF and non-columnar predicates."""
        prepared = self._prepared
        predicate = plan.predicate
        # Meter only actual UDF invocations: ``udf_cost - 1`` is the summed
        # per-evaluation cost of the predicate's *registered* UDFs, so rows
        # wrapped for non-UDF generic predicates charge no UDF work.
        per_row = predicate.udf_cost(self._udfs) - 1
        if per_row > 0:
            meter.charge_udf(per_row * int(candidates.shape[0]))
        position_of = context.order_positions
        fixed: dict[str, dict[str, Any]] = {
            a: prepared.binding_for(a, state.indices[position_of[a]])
            for a in plan.aliases
            if a != alias
        }
        keep = np.zeros(candidates.shape[0], dtype=bool)
        for row, index in enumerate(candidates.tolist()):
            binding = dict(fixed)
            binding[alias] = prepared.binding_for(alias, index)
            keep[row] = predicate.evaluate(binding, self._udfs)
        return candidates[keep]

    def _emit_batch(
        self,
        context: _OrderContext,
        state: JoinState,
        depth: int,
        survivors: np.ndarray,
        result_set: JoinResultSet,
        meter: CostMeter,
    ) -> None:
        """Emit every surviving last-position candidate in one bulk insert."""
        prepared = self._prepared
        rows = int(survivors.shape[0])
        matrix = np.empty((rows, len(prepared.aliases)), dtype=np.int64)
        for column, position in enumerate(context.canonical_positions):
            alias = context.order[position]
            if position == depth:
                matrix[:, column] = prepared.base_rows(alias, survivors)
            else:
                matrix[:, column] = prepared.base_row(alias, state.indices[position])
        result_set.add_batch(matrix)
        meter.charge_output(rows)

    # ------------------------------------------------------------------
    # the scalar reference (Algorithm 2 verbatim; test oracle only)
    # ------------------------------------------------------------------
    def _continue_scalar(
        self,
        state: JoinState,
        offsets: Mapping[str, int],
        budget: int,
        result_set: JoinResultSet,
        meter: CostMeter,
    ) -> bool:
        context = self.context_for(state.order)
        order = context.order
        cardinalities = context.cardinalities
        last = len(order) - 1
        if any(c == 0 for c in cardinalities):
            return True

        budget = max(budget, len(order) + 1)
        depth = 0
        iterations = 0
        while iterations < budget:
            iterations += 1
            meter.charge_scan(1)
            if state.indices[depth] < cardinalities[depth] and self._satisfied(
                context, depth, state, meter
            ):
                if depth == last:
                    result_set.add(self._result_tuple(state))
                    meter.charge_output(1)
                    depth = self._next_tuple(context, state, offsets, depth)
                else:
                    depth += 1
            else:
                depth = self._next_tuple(context, state, offsets, depth)
            if depth < 0:
                return True
        return False

    def _next_tuple(
        self,
        context: _OrderContext,
        state: JoinState,
        offsets: Mapping[str, int],
        depth: int,
    ) -> int:
        order = context.order
        cardinalities = context.cardinalities
        while True:
            if state.indices[depth] < cardinalities[depth]:
                state.indices[depth] = self._advance_index(context, state, depth)
            else:
                state.indices[depth] = cardinalities[depth]
            if state.indices[depth] < cardinalities[depth]:
                return depth
            state.indices[depth] = offsets.get(order[depth], 0)
            depth -= 1
            if depth < 0:
                return -1

    def _advance_index(self, context: _OrderContext, state: JoinState, depth: int) -> int:
        spec = context.jump_at[depth]
        current = state.indices[depth]
        if spec is None:
            return current + 1
        prepared = self._prepared
        earlier_index = state.indices[spec.earlier_position]
        value = prepared.value_at(spec.earlier_alias, spec.earlier_column, earlier_index)
        join_map = prepared.join_maps[(context.order[depth], spec.own_column)]
        matches = join_map.get(value)
        if matches is None:
            return context.cardinalities[depth]
        position = int(np.searchsorted(matches, current + 1, side="left"))
        if position >= matches.shape[0]:
            return context.cardinalities[depth]
        return int(matches[position])

    # ------------------------------------------------------------------
    # predicate checking and result construction (scalar executor)
    # ------------------------------------------------------------------
    def _satisfied(
        self, context: _OrderContext, depth: int, state: JoinState, meter: CostMeter
    ) -> bool:
        predicates = context.predicates_at[depth]
        if not predicates:
            return True
        prepared = self._prepared
        order = context.order
        position_of = {alias: position for position, alias in enumerate(order[: depth + 1])}
        for predicate, aliases in zip(predicates, context.predicate_aliases_at[depth]):
            binding: dict[str, dict[str, Any]] = {}
            for alias in aliases:
                binding[alias] = prepared.binding_for(alias, state.indices[position_of[alias]])
            meter.charge_predicate(1)
            per_row = predicate.udf_cost(self._udfs) - 1
            if per_row > 0:  # meter only actual (registered) UDF invocations
                meter.charge_udf(per_row)
            if not predicate.evaluate(binding, self._udfs):
                return False
        return True

    def _result_tuple(self, state: JoinState) -> tuple[int, ...]:
        prepared = self._prepared
        position_of = {alias: position for position, alias in enumerate(state.order)}
        return tuple(
            prepared.base_row(alias, state.indices[position_of[alias]])
            for alias in prepared.aliases
        )
