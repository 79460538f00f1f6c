"""The depth-first multi-way join with fast join-order switching (Algorithm 2).

Execution is a depth-first search over tuple-index combinations, one index
per table of the join order: descend when the partial tuple satisfies all
newly applicable predicates, advance otherwise, backtrack when a table is
exhausted.  The complete execution state is the index vector
(:class:`~repro.skinner.state.JoinState`), so suspending after a bounded
number of examined candidates and resuming later — possibly after other join
orders ran in between — is essentially free.  With equality join predicates,
the candidates at a position are the rows the pre-processing hash maps hold
for the value fixed by an earlier table (paper §4.5, last paragraph).  Without
one, ``<``/``<=``/``>``/``>=`` predicates from an INT column whose filtered
values do not decrease (the document store's ``pre``) to earlier INT columns
cut the position's rows to one band ``[lo, hi)`` per prefix, found by
``searchsorted``.  The band stays a run of ascending filtered indices, which
is what the lower bound below needs — a value-sorted index would not be.

The production executor (:meth:`MultiwayJoin.continue_join`) runs that search
over **blocks of prefixes**.  A frame at join-order position ``d`` holds up
to ``batch_size`` surviving partial tuples — an index matrix of ``K``
prefixes by ``d`` positions, in lexicographic order — together with their
candidates at position ``d`` in one of the two shapes of
:mod:`repro.engine.joinsteps`, the plan executor's too: runs (a hash-map
bucket, a band found by one ``searchsorted`` per bound for the whole block,
or the row range of a scan position) or partner rows.  The hash jump looks
up each *edge* — a join map and the earlier ``(alias, column)`` probing
it — once: every filtered row of the probing alias gets what it finds there
(:meth:`~repro.engine.joinkernels.GroupedJoinMap.edge`), kept on the
pre-processed statement
(:meth:`~repro.skinner.preprocessor.PreprocessedQuery.edge`).  Where the
map's key is unique (the primary-key side of a key/foreign-key join) that
is the probing row's *partner row*, or ``-1``, and the block keeps only the
prefixes whose partner is at or above the position's lower bound; any other
map gives bucket numbers, which become runs
(:func:`~repro.engine.joinsteps.edge_candidates`).  One step takes the next
run of ``(prefix, candidate)`` pairs across as many prefixes as the step's
share of the budget allows, filters them with both sides gathered as arrays,
and either pushes the survivors as the block of position ``d + 1`` or, at the
last position, emits them in one bulk insert.  A block is processed to the
end before the next candidates of the position above it are taken, so the
search order, the emission order and the set of candidates examined are
those of the tuple-at-a-time loop; only the width of each NumPy operation
changes (hundreds of candidates where a key/foreign-key bucket holds one).

Two rules tie this to the learning loop:

* **Lower bound.**  After any slice ``state.indices`` is the
  lexicographically smallest combination not yet fully processed — the next
  unexamined candidate of the deepest block, under its prefix, with deeper
  positions at their offsets.  Everything below it is in the result set;
  candidates already filtered beyond it are look-ahead, parked with the
  executor under the order and that index vector.  A slice that comes back
  with the same vector carries on from the parked frames; any other state is
  rebuilt from the index vector alone.  A bounded number of suspended orders
  keep their look-ahead, the least recently suspended dropped first.
* **Budget spreading.**  The budget counts examined candidates.  A step at a
  position reached by hash or band jump may spend ``remaining // (positions
  from here to the last)``, which keeps every step of a descent through
  key/foreign-key buckets equally wide.  A step at a scan position (the
  first position, a join with neither jump, no join map) already gets a
  table's worth of candidates from one prefix and takes what is left, like
  the chunk a tuple-at-a-time executor takes from one scan.  Either leaves
  one unit for each deeper position, so every slice reaches the last
  position and moves the lower bound; and a slice that has moved it stops
  once less than an eighth of its budget is left, because spending the
  remainder takes ever narrower steps.  These *narrow* steps, each at most
  ``batch_size`` wide with a stop check between any two, define the slice.
  Where the executor can prove that several consecutive narrow steps at
  one position keep their full width and, with all the work below them,
  leave at least that eighth — so no check between them stops the slice —
  it takes them as one *wide* step, and the slice ends with the same state,
  charges, emitted rows and parked frames.  The proof: at the last position
  a candidate costs one unit; above a chain of unique-key positions at most
  one per position left; at the next-to-last position (no UDF there or
  below) a chunk is filtered and the last position's frame built first,
  which gives each narrow step's exact cost, and only the run of steps
  that passes is kept and charged.  A meter with a work budget keeps every
  step narrow, so the budget runs out at the same charge.

The literal transcription of Algorithm 2 (one tuple index per loop
iteration) is the test oracle ``continue_scalar`` in
``tests/oracles/multiway_join.py``; the equivalence tests compare the block
executor against it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.engine.joinsteps import Partners, Runs, edge_candidates, scan
from repro.engine.meter import CostMeter
from repro.engine.vectorized import predicate_mask
from repro.query.expressions import ColumnRef
from repro.query.predicates import _COMPARATORS, Predicate
from repro.query.udf import UdfRegistry
from repro.skinner.preprocessor import PreprocessedQuery
from repro.skinner.result_set import JoinResultSet
from repro.skinner.state import JoinState
from repro.storage.column import ColumnType

#: comparators for vectorized predicate plans.  The scalar path evaluates
#: predicates through the same table (its lambdas broadcast over numpy
#: arrays), so both executors inherit any operator change together.
_VECTOR_OPS = _COMPARATORS

#: A slice stops once it has advanced and less than this fraction of its
#: budget is left: grinding the remainder out takes ever narrower steps.
_TAIL_DIVISOR = 8

#: Suspended orders that keep their look-ahead, least recently suspended
#: dropped first.  A cap on memory only: a dropped run is rebuilt from the
#: index vector, at the price of examining its look-ahead again.
_PARKED_RUNS = 32

#: Cap of the slice-budget schedule: no slice runs at more than this many
#: base budgets.  Past 32 the seconds per query stay flat on the JOB
#: analogues at ten times benchmark scale while the work still creeps up.
MAX_BUDGET_FACTOR = 32

#: The ``batch_size`` Skinner-C joins with.  A step never exceeds its share
#: of the remaining slice budget, which is what bounds it at this value.
BATCH_SIZE = 1024


def budget_factor(selections: int) -> int:
    """Base budgets the ``selections``-th slice of one join order may spend.

    ``2^floor(log2(selections))`` up to the cap: 1, 2, 2, 4, 4, 4, 4, 8, ...
    The first slice of an order is a base-budget probe, and no slice spends
    more than one base budget on top of what its order was already given.
    """
    return min(MAX_BUDGET_FACTOR, 1 << (selections.bit_length() - 1))


#: An order's selections from this one on that are powers of two — the
#: slices at which its budget would double — go to its best rival instead.
#: From 2 the second looks cost 3.5% more work on Table 1, from 4 1.9%,
#: from 8 0.8%; all three find the orders a misleading first slice hid.
SECOND_LOOK_FROM = 8

#: mirrored operator when the batch-position column is the right-hand side.
_MIRRORED_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: comparators a band jump narrows the candidates by.
_BAND_OPS = ("<", "<=", ">", ">=")


@dataclass
class _JumpSpec:
    """How to jump the index at one join-order position via hashing."""

    predicate: Predicate
    own_column: str
    earlier_position: int
    earlier_alias: str
    earlier_column: str
    #: Whether the map's key is unique: every prefix has one candidate or none.
    unique: bool = False

    @property
    def predicates(self) -> tuple[Predicate, ...]:
        """The predicates every candidate satisfies by construction."""
        return (self.predicate,)


@dataclass
class _BandSpec:
    """How to narrow the candidates at one join-order position to a band.

    ``own_column`` is an INT column of the position's alias whose filtered
    values do not decrease, and each bound ``(op, earlier_position,
    earlier_alias, earlier_column)`` reads ``own_column op earlier value``.
    For one prefix every bound is then a cut of the filtered index range, so
    the candidates are one row range ``[lo, hi)`` — a scan run, still in
    ascending filtered index as the lower-bound invariant needs.
    """

    own_column: str
    bounds: list[tuple[str, int, str, str]] = field(default_factory=list)
    predicates: list[Predicate] = field(default_factory=list)


@dataclass
class _PredicatePlan:
    """How to evaluate one newly applicable predicate over a candidate batch.

    ``vectorized`` plans compare the batch position's physical column values
    against the values an earlier position holds in each candidate's prefix.
    A ``jump`` plan is the equality the candidates were looked up by, or one
    bound of the band they were cut to: it holds for every one of them and
    is charged, not evaluated.  Every other plan evaluates the predicate over
    decoded column arrays gathered for the batch
    (:func:`~repro.engine.vectorized.predicate_mask`: built-in arithmetic,
    strings as ``object`` arrays, UDFs called once per candidate).
    ``udf_work`` is what one evaluation charges for the predicate's
    registered UDFs.
    """

    predicate: Predicate
    aliases: tuple[str, ...]
    jump: bool = False
    vectorized: bool = False
    udf_work: int = 0
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
    jump_at: list[_JumpSpec | _BandSpec | None] = field(default_factory=list)
    plans_at: list[list[_PredicatePlan]] = field(default_factory=list)
    #: join-order position of each alias in canonical (declaration) order.
    canonical_positions: tuple[int, ...] = ()
    #: alias -> join-order position, read when a batch's arrays are gathered.
    order_positions: dict[str, int] = field(default_factory=dict)
    #: Units per candidate the last trimmed chunk showed; sizes the next one.
    chunk_units: float = 1.0

    @cached_property
    def unit_cost(self) -> list[int]:
        """Units a candidate at each position costs at most with all the work
        below it: ``1`` at the last position, ``last - d + 1`` where every
        later position joins through a unique key, ``0`` where nothing
        bounds it."""
        last = len(self.order) - 1
        cost = [0] * last + [1]
        for position in range(last - 1, -1, -1):
            spec = self.jump_at[position + 1]
            if not isinstance(spec, _JumpSpec) or not spec.unique:
                break
            cost[position] = last - position + 1
        return cost

    @cached_property
    def trims(self) -> bool:
        """Whether a step at the next-to-last position may filter a chunk and
        keep the part the narrow steps would take: no UDF at either of the
        last two positions, so none runs on a candidate they do not examine."""
        return len(self.order) > 1 and not any(
            plan.predicate.uses_udf for plans in self.plans_at[-2:] for plan in plans
        )


class _Block:
    """A block of partial tuples and their candidates at one position.

    ``prefix`` is the block of ``K`` surviving partial tuples in
    lexicographic order, one row per join-order position ``0 .. d-1`` and one
    column per tuple (a ``d x K`` index matrix, so a position's indices are
    contiguous).  ``shape`` gives tuple ``p`` its candidates
    (:mod:`repro.engine.joinsteps`), and ``pos`` is the number of candidates
    of its flat sequence already examined.
    """

    __slots__ = ("prefix", "shape", "pos")

    def __init__(self, prefix: np.ndarray, shape: Runs | Partners) -> None:
        self.prefix = prefix
        self.shape = shape
        self.pos = 0

    def take(self, limit: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``limit`` unexamined ``(tuple, candidate)`` pairs."""
        start = self.pos
        self.pos = min(start + limit, self.shape.total)
        return self.shape.take(start, self.pos)

    def cursor(self) -> tuple[int, int]:
        """Tuple number and row id of the next unexamined candidate."""
        return self.shape.at(self.pos)


def _extend(prefix: np.ndarray, parent: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """The block of ``prefix[:, parent[i]] + (candidates[i],)`` partial tuples."""
    depth = prefix.shape[0]
    block = np.empty((depth + 1, candidates.shape[0]), dtype=np.int64)
    if depth:
        prefix.take(parent, axis=1, out=block[:depth], mode="clip")
    block[depth] = candidates
    return block


def _step_ends(size: int, batch: int) -> list[int]:
    """Where the narrow steps over the next ``size`` candidates of a frame end."""
    return [*range(batch, size, batch), size]


@dataclass
class _ParkedRun:
    """Frames parked when a slice suspends; good for the index vector ``snapshot``."""

    snapshot: tuple[int, ...]
    frames: list[_Block | None]
    depth: int


class MultiwayJoin:
    """Executes join orders for one pre-processed query, one slice at a time.

    Parameters
    ----------
    batch_size:
        Upper bound on the ``(prefix, candidate)`` pairs one narrow step
        examines; larger values amortize interpreter overhead across NumPy
        operations (Skinner-C uses ``BATCH_SIZE``; ``1`` means batches of
        one).  A step is further limited to its share of the remaining slice
        budget and to the meter's remaining work budget.  A wide step takes
        several narrow steps at once (see the module docstring).
    """

    def __init__(
        self,
        prepared: PreprocessedQuery,
        udfs: UdfRegistry | None = None,
        *,
        batch_size: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self._prepared = prepared
        self._udfs = udfs
        self._batch_size = batch_size
        #: Per join order, its plan, kept on ``prepared``: a kept entry shares
        #: them between every task of a statement.
        self._contexts: dict[tuple[str, ...], _OrderContext] = prepared.order_contexts
        #: Look-ahead of suspended orders, oldest first, at most
        #: ``_PARKED_RUNS`` (block frames for every order ever tried add up).
        self._parked: dict[tuple[str, ...], _ParkedRun] = {}
        #: Narrow steps taken inside wide ones, two or more at a time.
        self.merged_steps = 0

    def parked_frame_sets(self) -> int:
        """How many suspended orders currently keep their look-ahead."""
        return len(self._parked)

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
            jump = self._jump_spec(order, position, newly)
            context.jump_at.append(jump)
            context.plans_at.append(
                [self._plan_predicate(order, position, p, jump) for p in newly]
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
    ) -> _JumpSpec | _BandSpec | None:
        """A hash jump on the first equality whose map pre-processing built,
        else a band jump, else a scan."""
        if position == 0:
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
            join_map = self._prepared.join_maps.get((alias, own.column))
            if join_map is None:
                continue
            return _JumpSpec(
                predicate=predicate,
                own_column=own.column,
                earlier_position=earlier[other.table],
                earlier_alias=other.table,
                earlier_column=other.column,
                unique=join_map.unique,
            )
        return self._band_spec(alias, earlier, predicates)

    def _band_spec(
        self, alias: str, earlier: dict[str, int], predicates: list[Predicate]
    ) -> _BandSpec | None:
        """The band over the ascending INT column of ``alias`` with the most bounds.

        A bound is a ``<``/``<=``/``>``/``>=`` between that column and an INT
        column of an earlier alias.  Physical STRING values are dictionary
        codes, whose order is not the strings' — hence INT on both sides.
        """
        prepared = self._prepared
        bands: dict[str, _BandSpec] = {}
        for predicate in predicates:
            left, op, right = predicate.left, predicate.op, predicate.right
            if (
                op not in _BAND_OPS
                or not isinstance(left, ColumnRef)
                or not isinstance(right, ColumnRef)
            ):
                continue
            if left.table == alias and right.table in earlier:
                own, other = left, right
            elif right.table == alias and left.table in earlier:
                own, other, op = right, left, _MIRRORED_OP[op]
            else:
                continue
            if (
                prepared.tables[alias].column(own.column).ctype is not ColumnType.INT
                or prepared.tables[other.table].column(other.column).ctype is not ColumnType.INT
                or not prepared.ascends(alias, own.column)
            ):
                continue
            band = bands.setdefault(own.column, _BandSpec(own.column))
            band.bounds.append((op, earlier[other.table], other.table, other.column))
            band.predicates.append(predicate)
        return max(bands.values(), key=lambda band: len(band.bounds), default=None)

    def _plan_predicate(
        self,
        order: tuple[str, ...],
        position: int,
        predicate: Predicate,
        jump: _JumpSpec | _BandSpec | None,
    ) -> _PredicatePlan:
        """Classify a newly applicable predicate for batched evaluation."""
        alias = order[position]
        aliases = tuple(sorted(predicate.tables()))
        plan = _PredicatePlan(predicate=predicate, aliases=aliases)
        if jump is not None and any(predicate is jumped for jumped in jump.predicates):
            plan.jump = True
            return plan
        plan.udf_work = predicate.udf_cost(self._udfs) - 1
        left, op, right = predicate.left, predicate.op, predicate.right
        if (
            op not in _VECTOR_OPS
            or not isinstance(left, ColumnRef)
            or not isinstance(right, ColumnRef)
            or left.table == right.table
        ):
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
        if own_is_string != other_is_string or (own_is_string and op not in ("=", "!=")):
            return plan  # mixed or ordered strings: compare decoded values
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
        candidate tuples, so a step over ``n`` candidates consumes ``n`` units.

        Emission follows the lexicographic order of the index vectors, and
        everything emitted lies below the vector the slice ends on.  A state
        at or ahead of the one this order was last suspended at — what the
        progress tracker restores — therefore emits no tuple the order has
        emitted into ``result_set`` before, and the blocks go in unchecked
        under the order's name; a caller that rewinds an order must give it
        a result set of its own.
        """
        context = self.context_for(state.order)
        order = context.order
        if 0 in context.cardinalities:
            return True

        # Resuming restarts the descent at depth 0, which costs up to one
        # iteration per join-order position before any index advances; a
        # budget below that would make no progress and never terminate.
        budget = max(budget, len(order) + 1)
        last = len(order) - 1
        batch = self._batch_size
        # What the stop check needs left once the slice has advanced; and
        # only without a work budget may steps widen, so that a budget runs
        # out at the very charge the narrow steps reach it.
        floor = max(1, budget // _TAIL_DIVISOR)
        widens = meter.budget is None
        frames, depth, iterations = self._resume_frames(context, state, meter)
        advanced = False
        while True:
            frame = frames[depth]
            if frame.pos >= frame.shape.total:
                frames[depth] = None
                depth -= 1
                if depth < 0:
                    state.indices[:] = [offsets.get(alias, 0) for alias in order]
                    return True
                continue
            remaining = budget - iterations
            if remaining <= 0 or (advanced and remaining < floor):
                self._suspend(context, state, offsets, frames, depth)
                return False
            # What this step may spend.  Where candidates come from hash
            # buckets, an equal share of what is left for this and every
            # deeper position keeps the whole descent wide.  At a scan
            # position one prefix alone supplies a table's worth: the step
            # takes what is left, as a per-tuple executor's chunk would, and
            # its survivors are next slice's work.  Either way one unit per
            # deeper position stays behind, so every slice gets to the last
            # position and moves the lower bound.
            below = last - depth
            if context.jump_at[depth] is None:
                share = max(1, remaining - below)
            else:
                share = max(1, remaining // (below + 1))
            width = min(batch, share)
            if advanced and widens and width == batch and frame.shape.total - frame.pos > batch:
                # Full-width steps that provably end no slice run as one.
                if depth == last - 1 and context.trims:
                    kept, child = self._trimmed_step(context, frame, remaining, floor, offsets,
                                                     meter)
                    if kept:
                        iterations += kept
                        if child is not None:
                            depth += 1
                            frames[depth] = child
                        continue
                elif context.unit_cost[depth]:
                    width = self._wide_width(context, depth, frame, remaining, floor)
            parent, candidates = frame.take(meter.clamp_batch(width))
            examined = int(candidates.shape[0])
            iterations += examined
            meter.charge_scan(examined)
            parent, candidates = self._filter_batch(
                context, depth, frame.prefix, parent, candidates, meter
            )
            if candidates.shape[0] == 0:
                advanced = True
                continue
            if depth == last:
                advanced = True
                self._emit_batch(context, frame.prefix, parent, candidates, result_set, meter)
                continue
            block = _extend(frame.prefix, parent, candidates)
            depth += 1
            frames[depth] = self._make_frame(context, depth, block, offsets.get(order[depth], 0))

    def _narrow_steps(
        self,
        context: _OrderContext,
        depth: int,
        ends: list[int],
        costs: list[int],
        remaining: int,
        floor: int,
    ) -> int:
        """How many narrow steps at ``depth`` run back to back from here.

        ``ends[j]`` is where the ``j``-th next narrow step would end (counted
        from the frame's cursor) and ``costs[j]`` what the steps through it
        cost, the work below them included, or a bound above it.  A step
        counts while the share the loop would compute before it still
        allows its full width and what is left after it passes the stop
        check; every check inside the steps reads at least that much.
        """
        below = len(context.order) - 1 - depth
        scan = context.jump_at[depth] is None
        start, before = 0, remaining
        for steps, (end, cost) in enumerate(zip(ends, costs)):
            share = before - below if scan else before // (below + 1)
            before = remaining - cost
            if max(1, share) < end - start or before < floor:
                return steps
            start = end
        return len(ends)

    def _wide_width(
        self, context: _OrderContext, depth: int, frame: _Block, remaining: int, floor: int
    ) -> int:
        """The width of the narrow steps at ``depth`` that can run as one.

        A candidate here costs at most ``context.unit_cost[depth]`` units
        with all the work below it, so that bound decides; below two steps
        the answer is one narrow step.
        """
        batch = self._batch_size
        unit = context.unit_cost[depth]
        fits = ((remaining - floor) // (unit * batch) + 1) * batch
        size = min(frame.shape.total - frame.pos, fits)
        if size <= batch:
            return batch
        ends = _step_ends(size, batch)
        costs = [end * unit for end in ends]
        steps = self._narrow_steps(context, depth, ends, costs, remaining, floor)
        if steps < 2:
            return batch
        self.merged_steps += steps
        return ends[steps - 1]

    def _trimmed_step(
        self,
        context: _OrderContext,
        frame: _Block,
        remaining: int,
        floor: int,
        offsets: Mapping[str, int],
        meter: CostMeter,
    ) -> tuple[int, _Block | None]:
        """A wide step at the next-to-last position, trimmed to the narrow steps.

        Filters a chunk of the frame and builds the last position's frame
        for its survivors, which gives what each narrow step would cost with
        the work below it: its candidates plus those the survivors before
        its end own.  The run of steps that passes :meth:`_narrow_steps` —
        the first step always, as the loop would take it — is kept: the
        frame's cursor moves past it, only it is charged, and the child
        frame is cut to its survivors.  Returns the candidates kept (``0``:
        no chunk worth filtering, take a narrow step) and the child frame
        (``None``: no survivor kept).
        """
        batch = self._batch_size
        depth = len(context.order) - 2
        left = frame.shape.total - frame.pos
        # Every step but the last must leave the share of a full one, and
        # the chunk is sized by what a candidate cost the last time.
        fits = remaining - floor
        if context.jump_at[depth] is not None:
            fits = min(fits, remaining - batch)
        size = int(fits / context.chunk_units)
        size = left if size >= left else size - size % batch
        if size <= batch:
            return 0, None
        start = frame.pos
        parent, candidates = frame.shape.take(start, start + size)
        ranks = [np.arange(size)]
        parent, survivors = self._filter_batch(
            context, depth, frame.prefix, parent, candidates, meter, ranks
        )
        ends = _step_ends(size, batch)
        below = ranks[-1].searchsorted(ends)
        child = None
        costs = ends
        if survivors.shape[0]:
            child = self._make_frame(context, depth + 1, _extend(frame.prefix, parent, survivors),
                                     offsets.get(context.order[-1], 0))
            costs = (child.shape.owned(below) + ends).tolist()
        context.chunk_units = costs[-1] / size
        steps = max(1, self._narrow_steps(context, depth, ends, costs, remaining, floor))
        if steps > 1:
            self.merged_steps += steps
        kept, prefixes = ends[steps - 1], int(below[steps - 1])
        frame.pos = start + kept
        meter.charge_scan(kept)
        for evaluated in ranks[:-1]:
            meter.charge_predicate(int(evaluated.searchsorted(kept)))
        if not prefixes:
            return kept, None
        if prefixes < survivors.shape[0]:
            # The rest is look-ahead this slice does not reach: drop it whole.
            child = _Block(child.prefix[:, :prefixes].copy(), child.shape.head(prefixes))
        return kept, child

    def _make_frame(
        self, context: _OrderContext, depth: int, prefix: np.ndarray, lower: int
    ) -> _Block:
        """The candidates at ``depth`` of a block of prefixes, from ``lower`` on."""
        spec = context.jump_at[depth]
        prefixes = prefix.shape[1]
        if spec is None:
            lower = max(0, lower)
            width = max(0, context.cardinalities[depth] - lower)
            return _Block(prefix, scan(prefixes, lower, width))
        prepared = self._prepared
        if isinstance(spec, _BandSpec):
            # Each bound cuts every prefix's row range with one searchsorted.
            starts = np.full(prefixes, max(0, lower), np.int64)
            stops = np.full(prefixes, context.cardinalities[depth], np.int64)
            values = prepared.physical_column(context.order[depth], spec.own_column)
            for op, position, alias, column in spec.bounds:
                bound = prepared.physical_column(alias, column)[prefix[position]]
                cut = values.searchsorted(bound, "right" if op in (">", "<=") else "left")
                if op in (">", ">="):
                    np.maximum(starts, cut, out=starts)
                else:
                    np.minimum(stops, cut, out=stops)
            return _Block(prefix, Runs(None, starts, np.maximum(stops - starts, 0)))
        alias = context.order[depth]
        join_map = prepared.join_maps[(alias, spec.own_column)]
        edge = prepared.edge(alias, spec.own_column, spec.earlier_alias, spec.earlier_column)
        found = edge[prefix[spec.earlier_position]]
        return _Block(prefix, edge_candidates(join_map, found, lower))

    def _resume_frames(
        self, context: _OrderContext, state: JoinState, meter: CostMeter
    ) -> tuple[list[_Block | None], int, int]:
        """Rebuild (or reuse) the per-position frames for a state.

        A state this executor just suspended resumes from the parked frames;
        any other state (restored by the progress tracker, clamped to new
        offsets, suspended by the scalar reference, or freshly initialized)
        is rebuilt by descending along its index vector with one-prefix
        blocks: a position whose index is a satisfied candidate keeps its
        deeper indices, the first unsatisfied position becomes the
        resumption depth — exactly the scalar executor's re-descent
        semantics.
        """
        parked = self._parked.pop(context.order, None)
        if parked is not None and parked.snapshot == tuple(state.indices):
            return parked.frames, parked.depth, 0
        order = context.order
        frames: list[_Block | None] = [None] * len(order)
        prefix = np.empty((0, 1), dtype=np.int64)
        parent = np.zeros(1, dtype=np.int64)
        iterations = 0
        last = len(order) - 1
        for depth, index in enumerate(state.indices):
            frame = frames[depth] = self._make_frame(context, depth, prefix, index)
            if depth == last or index >= context.cardinalities[depth]:
                break
            iterations += 1
            meter.charge_scan(1)
            if frame.shape.total == 0 or frame.cursor()[1] != index:
                break
            candidate = np.asarray([index], dtype=np.int64)
            if not self._filter_batch(context, depth, prefix, parent, candidate, meter)[1].shape[0]:
                break
            # The saved index is the current candidate: consume it from the
            # run and keep descending with the deeper saved indices.
            frame.pos = 1
            prefix = _extend(prefix, parent, candidate)
        return frames, depth, iterations

    def _suspend(
        self,
        context: _OrderContext,
        state: JoinState,
        offsets: Mapping[str, int],
        frames: list[_Block | None],
        depth: int,
    ) -> None:
        """Write the lexicographic lower bound into the state and park the frames."""
        frame = frames[depth]
        parent, candidate = frame.cursor()
        indices = frame.prefix[:, parent].tolist()
        indices.append(candidate)
        indices.extend(offsets.get(alias, 0) for alias in context.order[depth + 1 :])
        state.indices[:] = indices
        parked = self._parked
        parked[context.order] = _ParkedRun(tuple(indices), frames, depth)
        if len(parked) > _PARKED_RUNS:
            del parked[next(iter(parked))]

    def _filter_batch(
        self,
        context: _OrderContext,
        depth: int,
        prefix: np.ndarray,
        parent: np.ndarray,
        candidates: np.ndarray,
        meter: CostMeter,
        ranks: list[np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply the newly applicable predicates at ``depth`` to a batch.

        ``candidates[i]`` is a row of the table at ``depth`` proposed for the
        partial tuple ``prefix[:, parent[i]]``.  Predicates are applied
        sequentially to the shrinking survivor arrays, so the number of
        evaluations charged matches the scalar executor's per-tuple
        short-circuiting.  A trimmed step passes ``ranks``, a list holding
        the candidates' positions in its chunk, and charges its kept part
        itself: nothing is charged here, and each predicate evaluated
        appends its survivors' positions, so ``ranks[i]`` is what predicate
        ``i`` evaluated and ``ranks[-1]`` what survived.
        """
        prepared = self._prepared
        alias = context.order[depth]
        for plan in context.plans_at[depth]:
            if candidates.shape[0] == 0:
                break
            if ranks is None:
                meter.charge_predicate(int(candidates.shape[0]))
            else:
                ranks.append(ranks[-1])
            if plan.jump:
                continue
            if plan.vectorized:
                own = prepared.physical_column(alias, plan.own_column)[candidates]
                other = prepared.physical_column(plan.other_alias, plan.other_column)[
                    prefix[plan.other_position][parent]
                ]
                if plan.own_is_string:
                    own_column = prepared.tables[alias].column(plan.own_column)
                    other = own_column.translate_codes(
                        prepared.tables[plan.other_alias].column(plan.other_column)
                    )[other]
                keep = _VECTOR_OPS[plan.op](own, other)
            else:
                keep = self._filter_arrays(context, plan, alias, prefix, parent, candidates, meter)
            parent = parent[keep]
            candidates = candidates[keep]
            if ranks is not None:
                ranks[-1] = ranks[-1][keep]
        return parent, candidates

    def _filter_arrays(
        self,
        context: _OrderContext,
        plan: _PredicatePlan,
        alias: str,
        prefix: np.ndarray,
        parent: np.ndarray,
        candidates: np.ndarray,
        meter: CostMeter,
    ) -> np.ndarray:
        """Keep mask of a predicate evaluated over decoded column arrays.

        Columns of the batch alias resolve to decoded column arrays gathered
        by the candidates; columns of earlier positions are gathered by the
        index each candidate's prefix holds there.
        """
        length = int(candidates.shape[0])
        if plan.udf_work > 0:  # meter only actual (registered) UDF invocations
            meter.charge_udf(plan.udf_work * length)
        prepared = self._prepared
        position_of = context.order_positions

        def resolve(ref: ColumnRef) -> Any:
            values = prepared.decoded_array(ref.table, ref.column)
            if ref.table == alias:
                return values[candidates]
            return values[prefix[position_of[ref.table]][parent]]

        return predicate_mask(plan.predicate, resolve, length, self._udfs)

    def _emit_batch(
        self,
        context: _OrderContext,
        prefix: np.ndarray,
        parent: np.ndarray,
        candidates: np.ndarray,
        result_set: JoinResultSet,
        meter: CostMeter,
    ) -> None:
        """Emit every surviving last-position candidate in one bulk insert."""
        prepared = self._prepared
        rows = int(candidates.shape[0])
        last = len(context.order) - 1
        matrix = np.empty((rows, len(prepared.aliases)), dtype=np.int64)
        for column, position in enumerate(context.canonical_positions):
            indices = candidates if position == last else prefix[position][parent]
            matrix[:, column] = prepared.base_rows(context.order[position], indices)
        # An order never repeats a tuple (see continue_join): its blocks
        # need no check against each other.
        result_set.emit(matrix, context.order)
        meter.charge_output(rows)
