"""The progress tracker bounds Skinner-C's emitted rows exactly.

After every Skinner-C slice, the rows in the result set, as indices into
the filtered tables, are exactly the rows of the full join result that lie
below what the tracker records as processed:

* below some alias's offset: an order led by that alias has processed every
  combination with a smaller index there;
* below some join order's saved state, the row permuted into that order's
  alias order: the order has processed every combination before it.

A finished task holds the whole result.  The rule holds for warm starts from
an order prior and for a task restricted to one morsel, and it holds although
a slice may park an order below its own alias's offset (the sweep meets such
slices).  The full result comes from the traditional engine.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.traditional import TraditionalEngine
from repro.config import SkinnerConfig
from repro.skinner.preprocessor import preprocess
from repro.skinner.skinner_c import SkinnerCTask
from repro.workloads.job import make_job_workload
from repro.workloads.torture import (
    make_correlation_torture,
    make_trivial_workload,
    make_udf_torture,
)
from tests.oracles.join_orders import valid_join_orders


@functools.lru_cache(maxsize=None)
def _workload(family: str, *args):
    if family == "job":
        return make_job_workload(*args)
    if family == "udf":
        return make_udf_torture(*args)
    if family == "correlation":
        return make_correlation_torture(*args)
    return make_trivial_workload(*args)


@functools.lru_cache(maxsize=None)
def _full_result(family: str, args: tuple, name: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The query's whole result as base rows, from the traditional engine."""
    workload = _workload(family, *args)
    query = workload.query(name).query
    task = TraditionalEngine(workload.catalog, workload.udfs).task(query)
    while not task.run_episode():
        pass
    return tuple(query.aliases), task._returned.matrix(query.aliases)


def _saved_states(tracker, depth: int) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Every join order the tracker holds a whole state for, with that state."""
    states = []
    pending = [((), tracker._root)]
    while pending:
        order, node = pending.pop()
        if len(order) == depth:
            states.append((order, node.best_prefix_state))
        pending.extend((order + (alias,), child) for alias, child in node.children.items())
    return states


def _below(rows: np.ndarray, state: tuple[int, ...]) -> np.ndarray:
    """Which rows are lexicographically below ``state``."""
    less = np.zeros(rows.shape[0], dtype=bool)
    equal = np.ones(rows.shape[0], dtype=bool)
    for column, index in enumerate(state):
        less |= equal & (rows[:, column] < index)
        equal &= rows[:, column] == index
    return less


def _as_filtered(prepared, aliases, base: np.ndarray) -> np.ndarray:
    return np.column_stack([np.searchsorted(prepared.filtered[alias], base[:, column])
                            for column, alias in enumerate(aliases)]).reshape(-1, len(aliases))


def check_bound(family: str, args: tuple, name: str, budget: int, *,
                prior=None, morsel: tuple[int, int] | None = None) -> tuple[int, int]:
    """Run the query slice by slice, checking the rule after each; returns
    the slices run and how many parked an order below an offset."""
    workload = _workload(family, *args)
    query = workload.query(name).query
    restrict = None
    if morsel is not None:
        filtered = preprocess(workload.catalog, query, workload.udfs).filtered
        partition = max(query.aliases, key=lambda alias: filtered[alias].shape[0])
        count, index = morsel
        restrict = dict(filtered)
        restrict[partition] = np.array_split(filtered[partition], count)[index]
    task = SkinnerCTask(workload.catalog, query, workload.udfs,
                        SkinnerConfig(slice_budget=budget), order_prior=prior,
                        restrict_positions=restrict)
    prepared, tracker = task.prepared, task.tracker
    aliases, full = _full_result(family, args, name)
    assert aliases == tuple(prepared.aliases)
    inside = np.ones(full.shape[0], dtype=bool)
    for column, alias in enumerate(aliases):
        inside &= np.isin(full[:, column], prepared.filtered[alias])
    full = _as_filtered(prepared, aliases, full[inside])
    columns = {alias: column for column, alias in enumerate(aliases)}
    emitted: list[np.ndarray] = []
    slices = parked = 0
    while not task.finished:
        task.run_episode()
        slices += 1
        emitted.append(task.result_set.drain_new())
        rows = _as_filtered(prepared, aliases, np.concatenate(emitted))
        if task.finished:
            bound = np.ones(full.shape[0], dtype=bool)
        else:
            offsets = tracker.offsets
            bound = np.zeros(full.shape[0], dtype=bool)
            for alias in aliases:
                bound |= full[:, columns[alias]] < offsets[alias]
            for order, state in _saved_states(tracker, len(aliases)):
                bound |= _below(full[:, [columns[alias] for alias in order]], state)
            last = task._last
            parked += last is not None and any(
                index < offsets[alias] for alias, index in zip(last.order, last.indices))
        found = set(map(tuple, rows.tolist()))
        assert len(found) == rows.shape[0], f"{name}: slice {slices} repeats a row"
        assert found == set(map(tuple, full[bound].tolist())), f"{name}: slice {slices}"
    return slices, parked


@st.composite
def _instances(draw):
    family = draw(st.sampled_from(["job", "udf", "correlation", "trivial"]))
    tables = draw(st.integers(3, 6))
    if family == "job":
        args = (draw(st.sampled_from([0.15, 0.25, 0.4])), draw(st.sampled_from([13, 29])))
    elif family == "udf":
        args = (tables, draw(st.integers(3, 6)))
    elif family == "correlation":
        args = (tables, draw(st.integers(12, 36)))
    else:
        args = (tables, draw(st.integers(8, 120)))
    workload = _workload(family, *args)
    query = draw(st.sampled_from([entry.name for entry in workload.queries]))
    return family, args, query


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_instances(), st.integers(20, 500), st.data())
def test_emitted_rows_are_exactly_those_below_the_tracker(instance, budget, data):
    family, args, name = instance
    query = _workload(family, *args).query(name).query
    prior = None
    if data.draw(st.booleans(), label="warm"):
        orders = valid_join_orders(query.join_graph())
        prior = [(orders[data.draw(st.integers(0, len(orders) - 1))],
                  data.draw(st.floats(0, 1)), data.draw(st.integers(1, 5)),
                  data.draw(st.integers(0, 8)))
                 for _ in range(data.draw(st.integers(1, 3)))]
    morsel = None
    if data.draw(st.booleans(), label="morsel"):
        count = data.draw(st.integers(2, 4))
        morsel = (count, data.draw(st.integers(0, count - 1)))
    check_bound(family, args, name, budget, prior=prior, morsel=morsel)


def test_the_bound_holds_where_a_slice_parks_below_an_offset():
    slices = parked = 0
    for args in ((0.4, 13), (1.5, 29)):
        for budget in (100, 500):
            for entry in _workload("job", *args).queries:
                ran, below = check_bound("job", args, entry.name, budget)
                slices, parked = slices + ran, parked + below
    assert slices > 500 and parked >= 1, (slices, parked)
