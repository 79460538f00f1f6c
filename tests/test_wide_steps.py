"""Wide steps: narrow steps that cannot end a slice, run as one NumPy step.

A slice of the multi-way join is defined by its *narrow* schedule — steps of
at most ``batch_size`` candidates, a stop check between any two.  Where the
executor proves that several consecutive narrow steps at one position, with
all the work below them, fire no stop check and keep their full width, it
takes them at once (``MultiwayJoin._wide_width`` and ``_trimmed_step``).
``tests.oracles.NarrowJoin`` is the executor with both hooks off; every slice
of the production executor must end exactly where its slice ends — same
index vector, same charges, same rows in the same order, same look-ahead
parked — and so every learned run must stay what it was.

Also here: unit cases of the run arithmetic a trimmed step cuts its child
frame with (``owned`` and ``head`` in ``engine/joinsteps.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.engine.joinsteps import Partners, Runs, scan
from repro.engine.meter import CostMeter
from repro.engine.task import run_to_completion
from repro.skinner import skinner_c
from repro.skinner.multiway_join import MultiwayJoin
from repro.skinner.result_set import JoinResultSet
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.state import initial_state
from repro.workloads.generators import make_rng
from repro.workloads.job import make_job_workload
from tests.oracles import NarrowJoin
from tests.test_batched_join import BATCH_SIZES, SEEDS, SHAPES, build_case


# ----------------------------------------------------------------------
# run arithmetic
# ----------------------------------------------------------------------
def test_runs_owned_counts_the_candidates_below_each_bound():
    runs = Runs(None, np.array([5, 0, 9, 2]), np.array([3, 0, 2, 4]))
    assert runs.owned(np.array([0, 1, 2, 3, 4])).tolist() == [0, 3, 3, 5, 9]
    empty = Runs(None, np.empty(0, np.int64), np.empty(0, np.int64))
    assert empty.owned(np.array([0, 0])).tolist() == [0, 0]


def test_partners_owned_counts_the_partners_below_each_bound():
    partners = Partners(np.array([0, 2, 3, 7]), np.array([4, 1, 1, 0]))
    assert partners.owned(np.array([0, 1, 3, 4, 8])).tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("prefixes", [0, 1, 2, 3, 4])
def test_runs_head_is_the_runs_of_the_first_prefixes(prefixes):
    rows = np.array([10, 11, 12, 13, 14, 15, 16, 17, 18])
    starts, counts = np.array([4, 0, 7, 1]), np.array([3, 0, 2, 4])
    runs = Runs(rows, starts, counts)
    head = runs.head(prefixes)
    built = Runs(rows, starts[:prefixes], counts[:prefixes])
    assert head.total == built.total == runs.owned(np.array([prefixes]))[0]
    assert head.ends.tolist() == built.ends.tolist()
    assert head.shift.tolist() == built.shift.tolist()
    for start in range(head.total + 1):
        for stop in range(start, head.total + 1):
            got, want = head.take(start, stop), built.take(start, stop)
            assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        if start < head.total:
            assert head.at(start) == runs.at(start)
    assert head.counts.base is None and head.ends.base is None and head.shift.base is None


@pytest.mark.parametrize("prefixes", [0, 1, 2, 4, 8])
def test_partners_head_is_the_partners_of_the_first_prefixes(prefixes):
    partners = Partners(np.array([0, 2, 3, 7]), np.array([4, 1, 1, 0]))
    head = partners.head(prefixes)
    keep = partners.parents < prefixes
    assert head.parents.tolist() == partners.parents[keep].tolist()
    assert head.partners.tolist() == partners.partners[keep].tolist()
    assert head.total == int(keep.sum()) == partners.owned(np.array([prefixes]))[0]
    assert head.parents.base is None and head.partners.base is None


def test_a_scan_head_keeps_its_single_run_fast_path():
    head = scan(3, 2, 4).head(1)
    parent, rows = head.take(1, 3)
    assert parent.tolist() == [0, 0] and rows.tolist() == [3, 4]


# ----------------------------------------------------------------------
# the proof a wide step rests on
# ----------------------------------------------------------------------
def _chain_context():
    """The context of ``(t0, t1, t2)`` over a chain joined on ``k``: ``t0`` a
    scan position, ``t1`` and ``t2`` hash jumps."""
    prepared, _, _ = build_case(3, 3)
    join = MultiwayJoin(prepared, batch_size=4)
    context = join.context_for(("t0", "t1", "t2"))
    assert context.jump_at[0] is None and context.jump_at[1] is not None
    return join, context


@pytest.mark.parametrize("depth, ends, costs, remaining, floor, steps", [
    # a jump one above the last: a step needs remaining // 2 >= its width
    (1, [4, 8, 12], [5, 13, 17], 20, 1, 2),     # the third would be 3 wide
    (1, [4, 8, 12], [5, 13, 17], 20, 8, 1),     # the second leaves 7 < 8
    (1, [4, 8, 10], [4, 8, 10], 30, 1, 3),      # the frame ends 2 into the third
    (1, [4, 8, 12], [4, 8, 12], 30, 19, 2),     # 18 left after the third
    # the scan position two above the last: a step needs remaining - 2
    (0, [4, 8, 12], [6, 12, 18], 20, 1, 3),
    (0, [4, 8], [15, 19], 20, 1, 1),            # the second would be 5 - 2 wide
])
def test_narrow_steps_counts_the_steps_no_stop_check_ends(depth, ends, costs, remaining,
                                                          floor, steps):
    join, context = _chain_context()
    assert join._narrow_steps(context, depth, ends, costs, remaining, floor) == steps


# ----------------------------------------------------------------------
# slice by slice against the narrow schedule
# ----------------------------------------------------------------------
#: slice budgets up to serving size (``DEFAULT_CONFIG``'s slices run at up
#: to 16,000); ``0`` stands for the smallest legal one, ``len(order) + 1``.
WIDE_BUDGETS = st.one_of(st.sampled_from([0, 3, 17, 40, 100, 300, 2_000, 16_000]),
                         st.integers(min_value=0, max_value=16_000))


def run_lockstep(prepared, order, batch_size, budget, udfs=None, *, offsets=None,
                 fresh_executor=False, before_slice=None):
    """Run ``order`` on the narrow and the production executor slice by slice,
    requiring the same end of every slice; returns the wide steps taken.
    ``before_slice(join)`` is called with the production executor before
    each of its slices."""
    offsets = offsets or {alias: 0 for alias in prepared.aliases}
    runs = []
    for cls in (NarrowJoin, MultiwayJoin):
        runs.append({"cls": cls, "join": cls(prepared, udfs, batch_size=batch_size),
                     "state": initial_state(order, offsets),
                     "results": JoinResultSet(prepared.aliases), "meter": CostMeter()})
    budget = budget or len(order) + 1
    merged = slices = 0
    finished = False
    while not finished:
        ends = []
        for run in runs:
            if fresh_executor:
                merged += run["join"].merged_steps
                run["join"] = run["cls"](prepared, udfs, batch_size=batch_size)
                run["state"] = run["state"].copy()
            if before_slice is not None and run["cls"] is MultiwayJoin:
                before_slice(run["join"])
            done = run["join"].continue_join(run["state"], offsets, budget, run["results"],
                                             run["meter"])
            ends.append((done, tuple(run["state"].indices), run["meter"].snapshot(),
                         run["results"].drain_new().tolist(), run["join"].parked_frame_sets()))
        slices += 1
        assert ends[1] == ends[0], f"slice {slices}"
        finished = ends[0][0]
        assert slices < 100_000, "executor did not terminate"
    assert runs[0]["join"].merged_steps == 0
    return merged + runs[1]["join"].merged_steps


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, SHAPES, BATCH_SIZES, WIDE_BUDGETS, st.booleans(), st.booleans())
# Trimmed steps whose look-ahead reaches past the stop check's reserve.
@example(0, 2, 1, 17, False, False)
@example(2, 3, 1, 17, True, False)
@example(7, "wide", 1, 17, False, True)
def test_every_slice_ends_where_the_narrow_schedule_ends_it(seed, shape, batch_size, budget,
                                                            fresh_executor, offset):
    """Property: wide steps change no slice — its final index vector, its
    charges, the rows it emitted and their order, and what stays parked —
    from parked or bare-vector executors, from zero or drawn offsets."""
    prepared, order, udfs = build_case(seed, shape)
    offsets = None
    if offset:
        rng = make_rng(seed)
        offsets = {alias: int(rng.integers(0, prepared.cardinality(alias) + 1))
                   for alias in prepared.aliases}
    run_lockstep(prepared, order, batch_size, budget, udfs, offsets=offsets,
                 fresh_executor=fresh_executor)


def test_a_sweep_takes_wide_steps_that_end_no_slice():
    """The same comparison over a fixed grid, which takes wide and trimmed
    steps on every shape — a trimmed step that kept one step too many shows
    at the small budgets, where the stop check's reserve is a few units."""
    merged = 0
    for seed in range(8):
        for shape in (2, 3, 4, "wide", "band", "keyed"):
            prepared, order, udfs = build_case(seed, shape)
            for batch_size in (1, 2, 7):
                for budget in (17, 300, 2_000):
                    merged += run_lockstep(prepared, order, batch_size, budget, udfs)
    assert merged > 1_000


# ----------------------------------------------------------------------
# the chunk size a context carries
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SEEDS, SHAPES, BATCH_SIZES, WIDE_BUDGETS,
       st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=6))
@example(2, 3, 1, 2_000, [0.01])
@example(2, 3, 7, 300, [100.0, 0.5])
def test_any_chunk_size_a_context_carries_changes_no_slice(seed, shape, batch_size, budget,
                                                            units):
    """``chunk_units`` only sizes the chunk a trimmed step filters before it
    keeps what the narrow steps take: whatever value the context carries
    into a slice (drawn from 0.01 to 100, in turn), the slice ends where the
    narrow schedule ends it."""
    prepared, order, udfs = build_case(seed, shape)
    drawn = iter(units * 100_000)

    def carry(join):
        join.context_for(order).chunk_units = next(drawn)

    run_lockstep(prepared, order, batch_size, budget, udfs, before_slice=carry)


def test_a_second_executor_reuses_the_context_the_first_left():
    """A cached statement's plans are shared by every executor on it, so the
    next statement's first trimmed chunk is sized by what the last one saw:
    its slices stay the narrow schedule's."""
    carried = []
    for seed in range(6):
        for shape in (2, 3, 4, "keyed", "band"):
            prepared, order, udfs = build_case(seed, shape)
            assert prepared.key is not None  # one executor's plans are the next's
            for batch_size, budget in ((1, 300), (7, 2_000)):
                run_lockstep(prepared, order, batch_size, budget, udfs)
                carried.append(prepared.order_contexts[order].chunk_units)
                run_lockstep(prepared, order, batch_size, budget, udfs)
    assert any(units != 1.0 for units in carried)


# ----------------------------------------------------------------------
# learned runs at serving budgets
# ----------------------------------------------------------------------
def _learned_runs(catalog, queries):
    """Per query: learned work, slices, final order, result size and the
    forced run's work, plus the merged steps of the learned run."""
    engine = SkinnerC(catalog, config=DEFAULT_CONFIG)
    runs = {}
    for entry in queries:
        task = engine.task(entry.query)
        metrics = run_to_completion(task).metrics
        forced = engine.execute_with_order(entry.query, metrics.final_join_order).metrics
        runs[entry.name] = ((metrics.work, metrics.time_slices, metrics.final_join_order,
                             metrics.result_tuple_count, forced.work),
                            task.join.merged_steps)
    return runs


def test_learned_runs_at_serving_budgets_are_the_narrow_ones(monkeypatch):
    """Pin: on the benchmark's JOB data at ``DEFAULT_CONFIG`` every query
    learns the same work, slices, order and result, and its forced run does
    the same work, as on the narrow schedule — with wide steps taken.

    The smoke fingerprints cannot show this: their slices (budget 100 at
    scale 0.4) stay narrow."""
    workload = make_job_workload(1.5, 29)
    wide = _learned_runs(workload.catalog, workload.queries)
    monkeypatch.setattr(skinner_c, "MultiwayJoin", NarrowJoin)
    narrow = _learned_runs(workload.catalog, workload.queries)
    for name, (observed, _) in wide.items():
        assert observed == narrow[name][0], name
    assert all(merged == 0 for _, merged in narrow.values())
    assert wide["job_q09"][1] > 0 and wide["job_q20"][1] > 0
