"""Work-unit accounting and budget enforcement.

Every engine charges its work to a :class:`CostMeter`.  The meter serves
three purposes:

* it is the **work clock**: deterministic work units that every budget
  and reward reads and every engine reports beside wall seconds (the
  paper harness weights them per modelled system, see ``docs/ci.md``);
* it enforces **budgets**: Skinner-G aborts a batch when the per-batch
  timeout elapses, which here means the meter raises
  :class:`~repro.errors.BudgetExceeded` once the budget is spent;
* it records the **intermediate-result cardinality** metric the paper uses
  as an engine-independent measure of join-order quality (Tables 1 and 2).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import BudgetExceeded


@dataclass
class WorkBreakdown:
    """Immutable snapshot of the counters of a :class:`CostMeter`."""

    tuples_scanned: int = 0
    predicate_evals: int = 0
    hash_probes: int = 0
    intermediate_tuples: int = 0
    output_tuples: int = 0
    udf_invocations: int = 0

    @property
    def total(self) -> int:
        """Total unweighted work units."""
        return (
            self.tuples_scanned
            + self.predicate_evals
            + self.hash_probes
            + self.intermediate_tuples
            + self.output_tuples
            + self.udf_invocations
        )


@dataclass
class CostMeter:
    """Mutable work-unit accumulator with optional budget.

    Parameters
    ----------
    budget:
        Maximum total work units.  ``None`` means unlimited.  When the budget
        is exceeded, the charging call raises :class:`BudgetExceeded`; the
        charge that triggered the overflow is still recorded so callers can
        observe how much work was wasted.
    """

    budget: int | None = None
    tuples_scanned: int = 0
    predicate_evals: int = 0
    hash_probes: int = 0
    intermediate_tuples: int = 0
    output_tuples: int = 0
    udf_invocations: int = 0
    #: Total unweighted work units charged so far: the running sum of the six
    #: counters, kept by every method that moves one.
    total: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.total = (self.tuples_scanned + self.predicate_evals + self.hash_probes
                       + self.intermediate_tuples + self.output_tuples + self.udf_invocations)

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    # The six named methods are written out: they sit on every engine's hot
    # path, and one attribute add plus one comparison against the running
    # total is all a charge costs.
    def charge_scan(self, amount: int = 1) -> None:
        """Charge scanning ``amount`` base-table tuples."""
        if amount < 0:
            raise ValueError("cannot charge negative work")
        self.tuples_scanned += amount
        self.total = total = self.total + amount
        if self.budget is not None and total > self.budget:
            raise BudgetExceeded(spent=total)

    def charge_predicate(self, amount: int = 1) -> None:
        """Charge ``amount`` predicate evaluations."""
        if amount < 0:
            raise ValueError("cannot charge negative work")
        self.predicate_evals += amount
        self.total = total = self.total + amount
        if self.budget is not None and total > self.budget:
            raise BudgetExceeded(spent=total)

    def charge_probe(self, amount: int = 1) -> None:
        """Charge ``amount`` hash-table probes."""
        if amount < 0:
            raise ValueError("cannot charge negative work")
        self.hash_probes += amount
        self.total = total = self.total + amount
        if self.budget is not None and total > self.budget:
            raise BudgetExceeded(spent=total)

    def charge_intermediate(self, amount: int = 1) -> None:
        """Charge materializing ``amount`` intermediate result tuples."""
        if amount < 0:
            raise ValueError("cannot charge negative work")
        self.intermediate_tuples += amount
        self.total = total = self.total + amount
        if self.budget is not None and total > self.budget:
            raise BudgetExceeded(spent=total)

    def charge_output(self, amount: int = 1) -> None:
        """Charge producing ``amount`` final result tuples."""
        if amount < 0:
            raise ValueError("cannot charge negative work")
        self.output_tuples += amount
        self.total = total = self.total + amount
        if self.budget is not None and total > self.budget:
            raise BudgetExceeded(spent=total)

    def charge_udf(self, amount: int = 1) -> None:
        """Charge ``amount`` user-defined-function invocations."""
        if amount < 0:
            raise ValueError("cannot charge negative work")
        self.udf_invocations += amount
        self.total = total = self.total + amount
        if self.budget is not None and total > self.budget:
            raise BudgetExceeded(spent=total)

    def replay(self, charges: Iterable[tuple[str, int]],
               sums: WorkBreakdown | None = None) -> None:
        """Charge again, call by call, what a :class:`ChargeLog` recorded: a
        budget runs out exactly where it ran out (or would have) the first
        time.  Without a budget nothing runs out: ``sums``, the charges added
        up where the caller keeps them, go in at once."""
        if sums is not None and self.budget is None:
            self.merge(sums)
            return
        for name, amount in charges:
            getattr(self, name)(amount)

    def clamp_batch(self, requested: int) -> int:
        """Largest batch size (at least 1) that fits the remaining budget.

        Batched executors charge whole batches of tuples at once; without
        clamping, a single large batch could overshoot the budget by up to
        the full batch size before :class:`BudgetExceeded` fires.  Clamping
        to the remaining budget bounds the recorded overshoot to one
        remaining-budget-sized chunk per charge kind (scans, then the
        predicate evaluations over that chunk) instead of the unbounded
        batch size.  The result is never below 1 so that a meter at the
        edge of its budget still makes progress (and raises on the recorded
        overflow, exactly like :meth:`charge`).
        """
        if requested < 1:
            raise ValueError("batch size must be at least 1")
        remaining = self.remaining
        if remaining is None:
            return requested
        return max(1, min(requested, remaining))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def remaining(self) -> int | None:
        """Remaining budget, or ``None`` if unlimited."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.total)

    def snapshot(self) -> WorkBreakdown:
        """Return an immutable copy of the counters."""
        return WorkBreakdown(
            tuples_scanned=self.tuples_scanned,
            predicate_evals=self.predicate_evals,
            hash_probes=self.hash_probes,
            intermediate_tuples=self.intermediate_tuples,
            output_tuples=self.output_tuples,
            udf_invocations=self.udf_invocations,
        )

    def counts(self) -> dict[str, int]:
        """The six counters by name, in :class:`WorkBreakdown`'s field order:
        ``dataclasses.asdict(self.snapshot())`` without its deep copy."""
        return {
            "tuples_scanned": self.tuples_scanned,
            "predicate_evals": self.predicate_evals,
            "hash_probes": self.hash_probes,
            "intermediate_tuples": self.intermediate_tuples,
            "output_tuples": self.output_tuples,
            "udf_invocations": self.udf_invocations,
        }

    def merge(self, other: "CostMeter | WorkBreakdown") -> None:
        """Add another meter's counters into this one (budget unchecked)."""
        self.tuples_scanned += other.tuples_scanned
        self.predicate_evals += other.predicate_evals
        self.hash_probes += other.hash_probes
        self.intermediate_tuples += other.intermediate_tuples
        self.output_tuples += other.output_tuples
        self.udf_invocations += other.udf_invocations
        self.total += other.total


class ChargeLog:
    """Hands ``charge_*`` calls on to a meter and keeps them, to bill again.

    The one recorder of what a reusable pass cost: whoever keeps the pass's
    output (the plan executor its filtered positions, the statement cache
    its filters) keeps ``charges`` beside it and bills a later reader with
    :meth:`CostMeter.replay`, so the work clock reads as if the pass ran
    again.
    """

    def __init__(self, meter: CostMeter) -> None:
        self._meter = meter
        self.charges: list[tuple[str, int]] = []

    def replay(self, charges: Iterable[tuple[str, int]]) -> None:
        """Bill ``charges`` again, call by call, and keep each: a pass that
        reuses a recorded pass inside a recorded pass records its calls."""
        for name, amount in charges:
            getattr(self, name)(amount)

    def __getattr__(self, name: str):
        def charge(amount: int = 1) -> None:
            self.charges.append((name, amount))
            getattr(self._meter, name)(amount)

        # Made once per name: the next call finds it without coming here.
        self.__dict__[name] = charge
        return charge


class WorkLedger:
    """Per-query work accounting under interleaved episode execution.

    The serving scheduler runs many queries on one thread, one budgeted
    episode at a time; each query charges its own :class:`CostMeter`, and
    the ledger records how much of the *shared* virtual clock every query
    consumed per episode.  Because every work unit is attributed to exactly
    one query, per-query charges under interleaving equal the solo-run
    charges, and :meth:`grand_total` is the scheduler's virtual time — the
    deterministic substitute for wall-clock time in fairness accounting and
    time-to-first-result measurements.
    """

    def __init__(self) -> None:
        self._totals: dict[Any, int] = {}
        self._grand_total = 0

    def record(self, key: Any, amount: int) -> None:
        """Attribute ``amount`` work units to ``key``."""
        if amount < 0:
            raise ValueError("cannot record negative work")
        self._totals[key] = self._totals.get(key, 0) + amount
        self._grand_total += amount

    def total(self, key: Any) -> int:
        """Work units attributed to ``key`` so far."""
        return self._totals.get(key, 0)

    def grand_total(self) -> int:
        """Work units consumed by all queries together (the virtual clock)."""
        return self._grand_total
