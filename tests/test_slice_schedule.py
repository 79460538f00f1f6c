"""The slice-budget schedule of Skinner-C (docs/engines.md, "Slice budget schedule").

The first slice of every join order is a base-budget probe; slice ``n`` of
an order runs at ``2^floor(log2 n)`` base budgets up to a cap, and its reward
is divided by that factor; the selections at which an order's budget would
double go to its best rival instead.  A task warm-started from a prior
starts each of the prior's orders where its accumulated selections left it.
These tests pin the rule, its regret invariant, the reward scale, the second
look, the seeding, and that scheduling never changes a result.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SkinnerConfig
from repro.skinner import skinner_c
from repro.skinner.multiway_join import MAX_BUDGET_FACTOR, SECOND_LOOK_FROM, budget_factor
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask
from repro.workloads.job import make_job_workload
from benchmarks.paper.ablations import RandomOrderTask, SkinnerCVariant
from tests.conftest import result_multiset
from tests.test_properties import catalog_and_query
from tests.oracles.uct import selection_counts

BASE = 16


def test_budget_factor_is_the_power_of_two_at_or_below_the_selection_count():
    assert [budget_factor(n) for n in range(1, 17)] == [
        1, 2, 2, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 16]
    assert budget_factor(MAX_BUDGET_FACTOR) == MAX_BUDGET_FACTOR
    assert budget_factor(MAX_BUDGET_FACTOR * 2) == MAX_BUDGET_FACTOR
    assert budget_factor(10**9) == MAX_BUDGET_FACTOR


@pytest.fixture(scope="module")
def traced_slices():
    """Every slice of every JOB-analogue query: its trace record and its scans."""
    job = make_job_workload(scale=0.4, seed=13)
    config = SkinnerConfig(slice_budget=BASE)
    runs = []
    for workload_query in job.queries:
        task = SkinnerCTask(job.catalog, workload_query.query, job.udfs, config, trace=True)
        slices = []
        while not task.finished:
            before = task.join_meter.tuples_scanned
            task.run_episode()
            slices.append((task.trace_records[-1], task.join_meter.tuples_scanned - before))
        runs.append((task.finalize().metrics, slices, selection_counts(task.tree)))
    return runs


def test_first_slice_of_every_order_is_a_base_probe_and_no_slice_exceeds_the_cap(traced_slices):
    seen_cap = False
    for _, slices, _ in traced_slices:
        orders = set()
        for record, scanned in slices:
            assert record["budget"] == BASE * record["factor"]
            assert scanned <= record["budget"] <= BASE * MAX_BUDGET_FACTOR
            if record["order"] not in orders:
                orders.add(record["order"])
                assert record["factor"] == 1 and scanned <= BASE
            seen_cap = seen_cap or record["factor"] == MAX_BUDGET_FACTOR
    assert seen_cap, "no query reached the cap: the bound above was never exercised"


def test_no_slice_spends_more_than_a_base_budget_over_what_its_order_already_got(traced_slices):
    """The regret argument: a slice at most doubles its order's spending."""
    for _, slices, _ in traced_slices:
        granted: dict[tuple[str, ...], int] = defaultdict(int)
        for record, _ in slices:
            assert record["budget"] <= BASE + granted[record["order"]]
            granted[record["order"]] += record["budget"]


def test_metrics_report_the_largest_factor_reached(traced_slices):
    for metrics, slices, _ in traced_slices:
        assert metrics.extra["max_budget_factor"] == max(r["factor"] for r, _ in slices)


def test_second_looks_go_to_orders_already_tried_at_doubling_selections(traced_slices):
    """At most one per power of two from ``SECOND_LOOK_FROM`` on that UCT's
    count of an order has passed, and never to an order that has not run."""
    looks = 0
    for _, slices, selections in traced_slices:
        assert sum(selections.values()) == len(slices)
        due = sum(count.bit_length() - SECOND_LOOK_FROM.bit_length() + 1
                  for count in selections.values() if count >= SECOND_LOOK_FROM)
        taken = [index for index, (record, _) in enumerate(slices) if record["second_look"]]
        assert len(taken) <= due
        for index in taken:
            assert slices[index][0]["order"] in {r["order"] for r, _ in slices[:index]}
        looks += len(taken)
    assert looks, "no query took a second look: the rule above was never exercised"


def _misled_task(job, tried=None, order_prior=None):
    """A task whose first-tried order earns 0.001 once and 0.5 afterwards,
    the second-tried order a steady 0.01 and every other order nothing.
    ``tried`` carries the stub on from an earlier task."""
    query = max(job.queries, key=lambda q: q.query.num_tables).query
    task = SkinnerCTask(job.catalog, query, job.udfs, SkinnerConfig(slice_budget=2), trace=True,
                        order_prior=order_prior)
    tried = [] if tried is None else tried

    def reward(prior, state, cardinalities):
        if state.order not in tried:
            tried.append(state.order)
            return 0.001 if len(tried) == 1 else 0.01 if len(tried) == 2 else 0.0
        return 0.5 if state.order == tried[0] else 0.01 if state.order == tried[1] else 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(skinner_c, "scaled_delta_reward", reward)
        while not task.finished:
            task.run_episode()
    return task, tried


def test_a_second_look_finds_the_order_its_first_slice_undersold(monkeypatch):
    job = make_job_workload(scale=0.4, seed=13)
    task, tried = _misled_task(job)
    hidden, leader = tried[:2]
    looks = [r for r in task.trace_records if r["second_look"]]
    assert looks[0]["order"] == hidden and looks[0]["factor"] == 2
    first = task.trace_records.index(looks[0])
    assert sum(r["order"] == leader for r in task.trace_records[:first]) == SECOND_LOOK_FROM - 1
    after = task.trace_records[first + 1:]
    assert sum(r["order"] == hidden for r in after) > len(after) // 2 > SECOND_LOOK_FROM
    assert task.tree.top_orders(1)[0][0] == hidden == task.tree.best_order()

    monkeypatch.setattr(skinner_c, "SECOND_LOOK_FROM", 1 << 30)
    task, tried = _misled_task(job)
    assert sum(r["order"] == tried[0] for r in task.trace_records) == 1


def test_an_edited_forest_does_not_flip_the_learned_order():
    """The case the second look was added for: the document store's
    ``praised_five_star`` (three aliases, no equality) while inserts, rating
    rewrites and deletes — the e2e benchmark's write cycle — edit the forest.
    From the 57th write on, base-budget first slices report the cheapest
    order at a quarter of the leader's rate (its true rate is six times
    higher), and without a second look UCT stays on an order that costs 6.2x
    the best for as long as the forest keeps that shape."""
    import copy
    import itertools

    from repro.docstore.axes import axis_query
    from repro.docstore.shred import shred_nodes
    from repro.docstore.workload import _query_pool, build_forest, random_item
    from repro.query.parser import parse_query
    from repro.storage.catalog import Catalog
    from repro.storage.table import Table
    from repro.workloads.generators import make_rng

    forest = build_forest(documents=8, items_per_document=24, depth=2, seed=7)
    rng = make_rng(7)
    cycle = []
    for window in range(8):
        kind = ("insert", "update", "delete")[window % 3]
        cycle.append((kind, float(rng.random()),
                      random_item(rng, depth=1, sellers=40) if kind == "insert" else None,
                      float(rng.integers(1, 6))))
    steps = next(steps for stem, _, steps in _query_pool("doc_nodes")
                 if stem == "praised_five_star")
    for write in range(62):
        kind, pick, subtree, stars = cycle[write % len(cycle)]
        nodes = [node for root in forest for node in root.walk()]
        regions = [node for node in nodes if node.tag == "region"]
        if kind == "insert":
            regions[int(pick * len(regions))].children.append(copy.deepcopy(subtree))
        elif kind == "update":
            ratings = [node for node in nodes if node.tag == "rating"]
            node = ratings[int(pick * len(ratings))]
            node.text, node.number = str(int(stars)), stars
        else:
            owners = [(region, child) for region in regions for child in region.children
                      if child.tag == "item"]
            region, item = owners[int(pick * len(owners))]
            region.children.remove(item)
        if write < 54:
            continue
        catalog = Catalog()
        catalog.add_table(Table("doc_nodes", shred_nodes(forest)))
        query = parse_query(axis_query("doc_nodes", steps), catalog)
        engine = SkinnerC(catalog)
        learned = engine.execute(query).metrics.work.total
        best = min(engine.execute_with_order(query, order).metrics.work.total
                   for order in itertools.permutations(query.aliases) if order[1] == "s1")
        assert learned <= 2 * best, f"after write {write}: {learned} against {best}"


# ----------------------------------------------------------------------
# evidence seeds the schedule
# ----------------------------------------------------------------------
def _prior_of(task, visits_cap=8):
    """What the serving layer would record and hand on for a finished task."""
    evidence = task.order_evidence()
    return [(order, share, min(count, visits_cap), evidence[order])
            for order, share, count in task.tree.selection_shares(3)]


def _drive(task):
    """Every slice of a traced task: its trace record and its scans."""
    slices = []
    while not task.finished:
        before = task.join_meter.tuples_scanned
        task.run_episode()
        slices.append((task.trace_records[-1], task.join_meter.tuples_scanned - before))
    return slices


@pytest.fixture(scope="module")
def seeded_slices():
    """Every JOB-analogue query run cold, then warm-started from what that
    run learned: the prior, the slices, and the evidence the warm run leaves."""
    job = make_job_workload(scale=0.4, seed=13)
    config = SkinnerConfig(slice_budget=BASE)
    runs = []
    for workload_query in job.queries:
        donor = SkinnerCTask(job.catalog, workload_query.query, job.udfs, config)
        while not donor.finished:
            donor.run_episode()
        prior = _prior_of(donor)
        task = SkinnerCTask(job.catalog, workload_query.query, job.udfs, config, trace=True,
                            order_prior=prior)
        runs.append((prior, _drive(task), task.order_evidence()))
    return runs


def _first_factors(slices):
    """The factor of each order's first slice."""
    first: dict[tuple[str, ...], int] = {}
    for record, scanned in slices:
        assert scanned <= record["budget"] == BASE * record["factor"]
        first.setdefault(record["order"], record["factor"])
    return first


def test_a_seeded_order_starts_at_the_rung_its_evidence_has_earned(seeded_slices):
    started = set()
    for prior, slices, _ in seeded_slices:
        evidence = {order: selections for order, _, _, selections in prior}
        for order, factor in _first_factors(slices).items():
            assert factor == budget_factor(evidence.get(order, 0) + 1)
            started.add(factor)
    assert {2, MAX_BUDGET_FACTOR} < started, "neither a low nor the top rung was entered"


def test_an_order_the_prior_does_not_name_still_starts_with_a_base_probe():
    """Random selection leaves the prior's orders soon enough."""
    job = make_job_workload(scale=0.4, seed=13)
    query = max(job.queries, key=lambda q: q.query.num_tables).query
    order = tuple(query.aliases)
    task = RandomOrderTask(job.catalog, query, job.udfs, SkinnerConfig(slice_budget=BASE),
                           trace=True, order_prior=[(order, 1.0, 8, MAX_BUDGET_FACTOR)])
    first = _first_factors(_drive(task))
    assert len(first) > 2 and all(
        factor == (MAX_BUDGET_FACTOR if tried == order else 1) for tried, factor in first.items())


def test_no_seeded_slice_spends_more_than_a_base_budget_over_the_grant_so_far(seeded_slices):
    """The regret argument with the donor's grant counted: every selection a
    prior stands for was given at least one base budget."""
    for prior, slices, _ in seeded_slices:
        granted = defaultdict(int, {order: BASE * selections for order, _, _, selections in prior})
        for record, _ in slices:
            assert record["budget"] <= BASE + granted[record["order"]]
            granted[record["order"]] += record["budget"]


def test_evidence_accumulates_over_the_prior_and_saturates_at_the_cap(seeded_slices):
    saturated = False
    for prior, slices, evidence in seeded_slices:
        runs = defaultdict(int)
        for record, _ in slices:
            runs[record["order"]] += 1
        for order, _, _, before in prior:
            assert before <= evidence[order] <= MAX_BUDGET_FACTOR
            assert evidence[order] >= min(MAX_BUDGET_FACTOR, before + runs[order])
            saturated = saturated or evidence[order] == MAX_BUDGET_FACTOR
        assert all(0 < selections <= MAX_BUDGET_FACTOR for selections in evidence.values())
    assert saturated, "no order reached the cap: the bound above was never exercised"


def test_a_streamed_warm_task_keeps_the_probe_ramp_and_the_evidence():
    job = make_job_workload(scale=0.4, seed=13)
    config = SkinnerConfig(slice_budget=BASE)
    for workload_query in job.queries:
        query = workload_query.query
        donor = SkinnerCTask(job.catalog, query, job.udfs, config)
        while not donor.finished:
            donor.run_episode()
        prior = _prior_of(donor)
        if len(prior) > 1 and prior[0][3] >= SECOND_LOOK_FROM:
            break  # unstreamed, this prior's first slice is a second look
    task = SkinnerCTask(job.catalog, query, job.udfs, config, trace=True, order_prior=prior)
    task.enable_streaming()
    task.run_episode()
    assert not task.trace_records[0]["second_look"]
    while not task.finished:
        task.run_episode()
    first: dict[tuple[str, ...], int] = {}
    for record in task.trace_records:
        first.setdefault(record["order"], record["factor"])
    assert set(first.values()) == {1}
    evidence = task.order_evidence()
    assert all(evidence[order] >= selections for order, _, _, selections in prior)


def test_a_mislearned_donor_is_left_for_its_rival_within_the_first_second_look(monkeypatch):
    """The donor never looked again at the order its first slice undersold
    (no second looks: what a pinned tree used to be) and hands on what it
    measured.  The recipient's first selection of the donor's order is a
    doubling one, so the rival runs before the donor's order has had a
    slice — one probe at the rival's own rung — and takes over."""
    job = make_job_workload(scale=0.4, seed=13)
    monkeypatch.setattr(skinner_c, "SECOND_LOOK_FROM", 1 << 30)
    donor, tried = _misled_task(job)
    monkeypatch.undo()
    hidden, leader = tried[:2]
    evidence = donor.order_evidence()
    assert evidence[leader] >= SECOND_LOOK_FROM and evidence[hidden] == 1
    prior = [(leader, 0.01, 8, evidence[leader]), (hidden, 0.001, 1, evidence[hidden])]
    task, _ = _misled_task(job, tried, prior)
    first = task.trace_records[0]
    assert first["second_look"] and first["order"] == hidden and first["factor"] == 2
    after = task.trace_records[1:]
    assert after[0]["order"] == hidden
    assert sum(r["order"] == hidden for r in after) > len(after) // 2
    assert task.tree.best_order() == hidden
    # Without a rival in the prior the donor's order runs, where it left off.
    task, _ = _misled_task(job, tried, prior[:1])
    first = task.trace_records[0]
    assert first["order"] == leader and not first["second_look"]
    assert first["factor"] == budget_factor(evidence[leader] + 1) >= SECOND_LOOK_FROM


def test_the_order_cache_hands_on_evidence_and_invalidation_drops_it(tiny_catalog):
    from repro import connect
    from repro.serving.cache import join_graph_signature

    conn = connect(SkinnerConfig(slice_budget=2))
    for name in tiny_catalog.table_names():
        conn.add_table(tiny_catalog.table(name))
    conn.commit()
    sql = ("SELECT COUNT(*) FROM customers c, orders o, items i "
           "WHERE c.cid = o.cid AND o.oid = i.oid")
    signature = join_graph_signature(conn.parse(sql))
    cache = conn.server.order_cache
    best = []
    for _ in range(40):
        conn.execute(sql, use_result_cache=False)
        best.append(max(selections for _, _, _, selections in cache.get(signature, ())))
    assert best == sorted(best) and best[0] < SECOND_LOOK_FROM
    assert best.count(MAX_BUDGET_FACTOR) > 1  # reached, and not passed
    conn.add_table(conn.catalog.table("items"), replace=True)
    assert cache.get(signature, ()) == ()
    conn.close()


def test_rewards_stay_on_the_progress_per_base_budget_scale(
        tiny_catalog, tiny_join_query, monkeypatch):
    """A factor-k slice feeds UCT its progress divided by k."""
    task = SkinnerCTask(tiny_catalog, tiny_join_query, None, SkinnerConfig(slice_budget=4),
                        trace=True)
    monkeypatch.setattr(skinner_c, "scaled_delta_reward", lambda prior, state, cardinalities: 0.5)
    while not task.finished:
        task.run_episode()
    records = task.trace_records
    assert max(record["factor"] for record in records) > 1
    assert all(record["reward"] == 0.5 / record["factor"] for record in records)
    root = task.tree.root
    assert root.visits == len(records)
    assert root.reward_sum == pytest.approx(sum(record["reward"] for record in records))


# ----------------------------------------------------------------------
# scheduling never changes a result
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(catalog_and_query(max_tables=4, max_rows=12), st.booleans(), st.sampled_from([2, 5, 16]))
def test_scheduled_run_equals_the_forced_order_run(bundle, join_maps, base):
    """Random chain joins big enough to take many tiny slices (a third of the
    examples reach a factor above 1), with and without join maps."""
    catalog, query = bundle
    config = SkinnerConfig(slice_budget=base)
    engine = SkinnerCVariant(catalog, config=config, join_maps=join_maps)
    learned = engine.execute(query)
    forced = engine.execute_with_order(query, query.aliases)
    assert result_multiset(learned) == result_multiset(forced)
