"""Tests for the concurrent query-serving subsystem.

The central property: interleaving changes *when* a query's episodes run,
never *what* they compute.  N queries served concurrently must produce
byte-identical result tables and identical per-query meter charges to each
query running alone on a directly constructed engine — regardless of
tenants and their quotas, admission bounds, or queries being cancelled around
them (including cancels mid-way through a query's episode sequence).  On
top of that, the scheduler's fairness and determinism, admission control,
and both serving caches are pinned individually.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.traditional import TraditionalEngine
from repro.config import SkinnerConfig
from repro.engine import task as engine_task
from repro.engine import versioned_lru
from repro.engine.statement_cache import StatementCache
from repro.errors import ReproError
from repro.query.parser import parse_query
from repro.query.expressions import Star
from repro.query.predicates import Predicate
from repro.query.query import AggregateSpec, SelectItem
from repro.query.udf import UdfRegistry
from repro.serving import QueryServer, SessionState
from repro.serving.cache import join_graph_signature, query_fingerprint, result_bytes
from repro.skinner import skinner_c
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.skinner_h import SkinnerH
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.generators import make_rng
from benchmarks.paper.baselines import EddyEngine

from test_postprocess_columnar import assert_tables_identical
from benchmarks.paper.queries import make_query
from tests.conftest import udf_predicate

#: Small budgets so every query needs several episodes — otherwise the
#: scheduler has nothing to interleave and the tests prove nothing.
FAST = SkinnerConfig(
    slice_budget=32,
    batches_per_table=3,
    base_timeout=150,
    serving_warm_start=False,
)


@pytest.fixture(autouse=True)
def _small_batches(monkeypatch):
    """Fine-grained Skinner-C episodes, so fair shares can even out."""
    monkeypatch.setattr(skinner_c, "BATCH_SIZE", 8)


def build_catalog(seed: int = 11) -> Catalog:
    rng = make_rng(seed)
    catalog = Catalog()
    catalog.add_table(Table("r", {
        "id": list(range(30)),
        "g": [int(x) for x in rng.integers(0, 4, 30)],
        "v": [int(x) for x in rng.integers(0, 50, 30)],
    }))
    catalog.add_table(Table("s", {
        "rid": [int(x) for x in rng.integers(0, 30, 45)],
        "w": [int(x) for x in rng.integers(0, 9, 45)],
    }))
    catalog.add_table(Table("t", {
        "sid": [int(x) for x in rng.integers(0, 9, 25)],
        "u": [int(x) for x in rng.integers(0, 100, 25)],
    }))
    return catalog


QUERIES = [
    "SELECT r.g AS g, SUM(s.w) AS total FROM r, s WHERE r.id = s.rid GROUP BY r.g ORDER BY r.g",
    "SELECT COUNT(*) AS n FROM r, s, t WHERE r.id = s.rid AND s.w = t.sid",
    "SELECT r.v, s.w FROM r, s WHERE r.id = s.rid AND r.g = 2 ORDER BY r.v DESC LIMIT 4",
    "SELECT DISTINCT s.w FROM s, t WHERE s.w = t.sid",
    "SELECT COUNT(*) AS n FROM r WHERE r.v > 25",
    "SELECT r.g, COUNT(*) AS n FROM r, s WHERE r.id = s.rid AND s.w >= 3 GROUP BY r.g",
]

ENGINES = ["skinner-c", "skinner-g", "skinner-h"]

#: Tenants a property test spreads its submissions over, and the quota each
#: of them gets — so the scheduler's tenant layer is non-trivial.
TENANT_NAMES = st.sampled_from(["a", "b", "c"])
TENANT_QUOTAS = st.fixed_dictionaries(
    {tenant: st.sampled_from([0.5, 1.0, 3.0]) for tenant in ("a", "b", "c")}
)


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    return build_catalog()


def solo_result(catalog: Catalog, sql: str, engine: str, config: SkinnerConfig = FAST):
    """Run one query on a directly constructed engine (no serving layer)."""
    query = parse_query(sql, catalog)
    if engine == "skinner-c":
        return SkinnerC(catalog, None, config).execute(query)
    if engine == "skinner-g":
        return SkinnerG(catalog, None, config).execute(query)
    if engine == "skinner-h":
        return SkinnerH(catalog, None, config).execute(query)
    raise AssertionError(engine)


# ----------------------------------------------------------------------
# the central property: interleaved == solo, under any scheduling pressure
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_interleaved_queries_match_solo_runs(catalog, data):
    picks = data.draw(st.lists(
        st.tuples(
            st.integers(0, len(QUERIES) - 1),
            st.sampled_from(ENGINES),
            TENANT_NAMES,
        ),
        min_size=2, max_size=6))
    max_inflight = data.draw(st.integers(1, 4))
    server = QueryServer(
        catalog, config=FAST.with_overrides(serving_max_inflight=max_inflight)
    )
    for tenant, share in data.draw(TENANT_QUOTAS).items():
        server.set_tenant_quota(tenant, share)
    tickets = {}
    for query_index, engine, tenant in picks:
        ticket = server.submit(QUERIES[query_index], engine=engine, tenant=tenant,
                               use_result_cache=False)
        tickets[ticket] = (query_index, engine)

    # Cancel one submission part-way through the drain ("mid-episode").
    cancel_ticket = None
    if data.draw(st.booleans()):
        for _ in range(data.draw(st.integers(0, 12))):
            if not server.step():
                break
        cancel_ticket = data.draw(st.sampled_from(sorted(tickets)))
        server.cancel(cancel_ticket)

    server.drain()
    for ticket, (query_index, engine) in tickets.items():
        if ticket == cancel_ticket and server.session(ticket).state is SessionState.CANCELLED:
            with pytest.raises(ReproError):
                server.result(ticket)
            continue
        served = server.result(ticket)
        solo = solo_result(catalog, QUERIES[query_index], engine)
        assert_tables_identical(solo.table, served.table)
        assert served.metrics.work == solo.metrics.work, (engine, QUERIES[query_index])
        # The ledger attributed exactly the solo run's work to this query.
        assert server.ledger.total(ticket) == solo.metrics.work.total


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(TENANT_NAMES, min_size=len(QUERIES), max_size=len(QUERIES)),
       TENANT_QUOTAS)
def test_identical_submission_sequence_gives_identical_schedule(catalog, tenants, quotas):
    """Two servers fed the same sequence interleave identically."""

    def serve():
        server = QueryServer(catalog, config=FAST.with_overrides(serving_max_inflight=3))
        for tenant, share in quotas.items():
            server.set_tenant_quota(tenant, share)
        tickets = [server.submit(sql, tenant=tenant) for sql, tenant in zip(QUERIES, tenants)]
        trace = []
        while server.step():
            trace.append(tuple(sorted(
                (ticket, server.poll(ticket)["episodes"]) for ticket in tickets
            )))
        return trace, [server.ledger.total(ticket) for ticket in tickets]

    assert serve() == serve()


# ----------------------------------------------------------------------
# fairness, admission
# ----------------------------------------------------------------------
def test_short_query_is_not_stuck_behind_long_one(catalog):
    """Episode slicing: a short query finishes before an earlier long one."""
    server = QueryServer(catalog, config=FAST)
    long_ticket = server.submit(QUERIES[1], use_result_cache=False)
    short_ticket = server.submit(QUERIES[4], use_result_cache=False)
    server.drain()
    long_session = server.session(long_ticket)
    short_session = server.session(short_ticket)
    assert short_session.completed_at_work < long_session.completed_at_work


def test_admission_bounds_inflight_and_queues_overflow(catalog):
    server = QueryServer(catalog, config=FAST.with_overrides(serving_max_inflight=2))
    tickets = [server.submit(sql, use_result_cache=False) for sql in QUERIES[:5]]
    states = [server.poll(ticket)["state"] for ticket in tickets]
    assert states.count("running") == 2
    assert states.count("queued") == 3
    positions = [server.poll(ticket)["queue_position"] for ticket in tickets[2:]]
    assert positions == [0, 1, 2]  # FIFO
    server.drain()
    assert all(server.poll(ticket)["state"] == "finished" for ticket in tickets)


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
def test_cancel_queued_and_running_submissions(catalog):
    server = QueryServer(catalog, config=FAST.with_overrides(serving_max_inflight=1))
    running = server.submit(QUERIES[1], use_result_cache=False)
    queued = server.submit(QUERIES[0], use_result_cache=False)
    assert server.cancel(queued) is True
    assert server.poll(queued)["state"] == "cancelled"

    for _ in range(3):  # some episodes happen, then a mid-query cancel
        server.step()
    assert server.cancel(running) is True
    with pytest.raises(ReproError):
        server.result(running)

    # The server stays serviceable and later work is unaffected.
    fresh = server.submit(QUERIES[0], use_result_cache=False)
    result = server.result(fresh)
    assert_tables_identical(solo_result(catalog, QUERIES[0], "skinner-c").table,
                            result.table)
    assert server.cancel(fresh) is False  # finished queries cannot be cancelled


def test_cancel_releases_admission_slot(catalog):
    server = QueryServer(catalog, config=FAST.with_overrides(serving_max_inflight=1))
    first = server.submit(QUERIES[1], use_result_cache=False)
    second = server.submit(QUERIES[4], use_result_cache=False)
    assert server.poll(second)["state"] == "queued"
    server.cancel(first)
    assert server.poll(second)["state"] == "running"
    server.drain()
    assert server.poll(second)["state"] == "finished"


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
def test_result_cache_hit_and_flag(catalog):
    server = QueryServer(catalog, config=FAST)
    first = server.result(server.submit(QUERIES[0]))
    hit_ticket = server.submit(QUERIES[0])
    assert server.poll(hit_ticket)["cache_hit"] is True
    hit = server.result(hit_ticket)
    assert_tables_identical(first.table, hit.table)
    assert hit.metrics.extra["result_cache"] == "hit"
    assert server.ledger.total(hit_ticket) == 0  # no work charged

    # Different engine or config => different fingerprint.
    miss = server.submit(QUERIES[0], engine="skinner-g")
    assert server.poll(miss)["cache_hit"] is False
    server.drain()


def test_result_cache_lru_eviction(catalog, monkeypatch):
    charges = [result_bytes(solo_result(catalog, sql, "skinner-c")) + versioned_lru.ENTRY_BYTES
               for sql in QUERIES[:3]]
    monkeypatch.setattr(versioned_lru, "MAX_BYTES", charges[1] + charges[2])
    server = QueryServer(catalog, config=FAST)
    for sql in QUERIES[:3]:
        server.result(server.submit(sql))
    assert len(server.result_cache) == 2  # oldest entry evicted
    assert server.stats()["cache_bytes"]["result"] == charges[1] + charges[2]
    oldest_again = server.submit(QUERIES[0])
    assert server.poll(oldest_again)["cache_hit"] is False
    server.drain()


def test_a_result_larger_than_the_bound_is_returned_but_not_kept(catalog, monkeypatch):
    solo = solo_result(catalog, QUERIES[0], "skinner-c")
    assert result_bytes(solo) > 0
    monkeypatch.setattr(versioned_lru, "MAX_BYTES",
                        result_bytes(solo) + versioned_lru.ENTRY_BYTES - 1)
    server = QueryServer(catalog, config=FAST)
    result = server.result(server.submit(QUERIES[0]))
    assert_tables_identical(solo.table, result.table)
    stats = server.stats()
    assert stats["result_cache"]["entries"] == 0
    assert stats["cache_bytes"]["result"] == 0
    again = server.submit(QUERIES[0])
    assert server.poll(again)["cache_hit"] is False
    server.drain()


def test_fingerprint_normalizes_whitespace_and_case(catalog):
    a = parse_query("SELECT COUNT(*) AS n FROM r WHERE r.v > 25", catalog)
    b = parse_query("select   COUNT(*) AS n from r  where r.v > 25", catalog)
    kwargs = dict(engine="skinner-c", config=FAST)
    assert query_fingerprint(a, **kwargs) == query_fingerprint(b, **kwargs)
    assert (query_fingerprint(a, **kwargs)
            != query_fingerprint(a, **{**kwargs, "engine": "skinner-g"}))


def test_a_cached_parse_is_rendered_once(catalog, monkeypatch):
    """Submitting a statement again fingerprints and signs its cached parse
    without rendering any predicate again."""
    server = QueryServer(catalog, config=FAST)
    sql = QUERIES[2]
    server.result(server.submit(sql, use_result_cache=False))
    query = StatementCache.of(catalog).parse(sql)
    fingerprint = query_fingerprint(query, engine="skinner-c", config=FAST)
    signature = join_graph_signature(query)
    renders = []
    display = Predicate.display
    monkeypatch.setattr(Predicate, "display", lambda self: renders.append(1) or display(self))
    server.result(server.submit(sql, use_result_cache=False))
    assert StatementCache.of(catalog).parse(sql) is query
    assert query_fingerprint(query, engine="skinner-c", config=FAST) == fingerprint
    assert join_graph_signature(query) == signature
    assert renders == []


# ----------------------------------------------------------------------
# join-order cache / warm start
# ----------------------------------------------------------------------
def test_same_template_queries_share_join_graph_signature(catalog):
    a = parse_query(QUERIES[2], catalog)  # r ⋈ s with r.g = 2
    b = parse_query(
        "SELECT r.v, s.w FROM r, s WHERE r.id = s.rid AND r.g = 0 ORDER BY r.v LIMIT 2",
        catalog)
    c = parse_query(QUERIES[3], catalog)  # s ⋈ t: different graph
    assert join_graph_signature(a) == join_graph_signature(b)
    assert join_graph_signature(a) != join_graph_signature(c)


def test_warm_start_reduces_repeated_template_work(catalog):
    warm_config = FAST.with_overrides(serving_warm_start=True)
    template = ("SELECT COUNT(*) AS n FROM r, s, t "
                "WHERE r.id = s.rid AND s.w = t.sid AND r.v > {threshold}")
    thresholds = [0, 5, 10, 15, 20]

    def total_work(config):
        server = QueryServer(catalog, config=config)
        work = 0
        for threshold in thresholds:
            result = server.result(server.submit(template.format(threshold=threshold)))
            work += result.metrics.work.total
        return work

    cold = total_work(FAST)
    warm = total_work(warm_config)
    assert warm < cold  # priors skip the cold-start exploration phase

    # Warm-started execution still returns correct results.
    server = QueryServer(catalog, config=warm_config)
    first = server.result(server.submit(template.format(threshold=7)))
    second = server.result(server.submit(template.format(threshold=9),
                                         use_result_cache=False))
    solo = solo_result(catalog, template.format(threshold=9), "skinner-c")
    assert_tables_identical(solo.table, second.table)
    assert first.rows[0]["n"] >= second.rows[0]["n"]


def test_a_table_replace_drops_results_and_priors():
    catalog = build_catalog()
    server = QueryServer(catalog, config=FAST.with_overrides(serving_warm_start=True))
    server.result(server.submit(QUERIES[0]))
    assert len(server.result_cache) == 1
    assert len(server.order_cache) == 1
    catalog.add_table(catalog.table("s"), replace=True)
    assert len(server.result_cache) == 0
    assert len(server.order_cache) == 0


# ----------------------------------------------------------------------
# failure isolation: one bad query must not wedge the server
# ----------------------------------------------------------------------
def _udfs_with_boom():
    from repro.query.udf import UdfRegistry

    udfs = UdfRegistry()
    udfs.register("boom", lambda value: 1 // 0)
    return udfs


def test_failure_during_preprocessing_releases_admission_slot(catalog):
    server = QueryServer(catalog, _udfs_with_boom(),
                         config=FAST.with_overrides(serving_max_inflight=1))
    bad = server.submit("SELECT COUNT(*) AS n FROM r WHERE boom(r.v)")
    assert server.poll(bad)["state"] == "failed"
    assert server.cancel(bad) is False  # terminal state
    with pytest.raises(ZeroDivisionError):
        server.result(bad)
    # The slot was not leaked: later submissions are admitted and served.
    good = server.submit(QUERIES[4], use_result_cache=False)
    assert server.result(good).rows[0]["n"] >= 0


def test_failure_during_finalize_does_not_wedge_other_queries(catalog):
    server = QueryServer(catalog, _udfs_with_boom(), config=FAST)
    bad = server.submit("SELECT boom(r.v) AS b FROM r, s WHERE r.id = s.rid")
    good = server.submit(QUERIES[0], use_result_cache=False)
    server.drain()  # must terminate despite the failing finalize
    assert server.poll(bad)["state"] == "failed"
    with pytest.raises(ZeroDivisionError):
        server.result(bad)
    assert_tables_identical(solo_result(catalog, QUERIES[0], "skinner-c").table,
                            server.result(good).table)


# ----------------------------------------------------------------------
# submission validation
# ----------------------------------------------------------------------
def test_submit_rejects_bad_requests(catalog):
    server = QueryServer(catalog, config=FAST)
    with pytest.raises(ReproError):
        server.submit(QUERIES[0], engine="sqlite")
    with pytest.raises(ReproError):
        server.poll(999)


def test_submit_and_execute_default_to_the_configured_engine(catalog):
    server = QueryServer(catalog, config=FAST.with_overrides(default_engine="traditional"))
    ticket = server.submit(QUERIES[1])
    assert server.session(ticket).engine == "traditional"
    assert server.result(ticket).metrics.engine == "traditional"
    explicit = server.submit(QUERIES[1], engine="skinner-c", use_result_cache=False)
    assert server.result(explicit).metrics.engine == "skinner-c"


# ----------------------------------------------------------------------
# tenant quotas
# ----------------------------------------------------------------------
def _drive_until_done(server, ticket):
    while not server.session(ticket).done:
        server.step()


def test_equal_quota_tenants_split_work_evenly(catalog):
    """Two backlogged tenants with default quotas share the work clock."""
    server = QueryServer(catalog, config=FAST.with_overrides(serving_max_inflight=8))
    alice = [server.submit(QUERIES[1], tenant="alice", use_result_cache=False)
             for _ in range(3)]
    bob = [server.submit(QUERIES[1], tenant="bob", use_result_cache=False)
           for _ in range(3)]
    while not (all(server.session(t).done for t in alice)
               or all(server.session(t).done for t in bob)):
        server.step()
    stats = server.stats()["tenants"]
    alice_work, bob_work = stats["alice"]["work"], stats["bob"]["work"]
    # Same queries, same quota: while both tenants are backlogged neither
    # can get far ahead of the other on served work (tolerance covers one
    # scheduling grant of slack on either side).
    assert min(alice_work, bob_work) > 0
    assert max(alice_work, bob_work) / min(alice_work, bob_work) < 1.5
    server.drain()
    assert_tables_identical(server.result(alice[0]).table,
                            server.result(bob[0]).table)


def test_quota_shares_divide_work_proportionally(catalog):
    """A 3:1 quota split shows up as a ~3:1 split of served work."""
    server = QueryServer(catalog, config=FAST)
    server.set_tenant_quota("gold", 3.0)
    server.set_tenant_quota("basic", 1.0)
    gold = server.submit(QUERIES[1], tenant="gold", use_result_cache=False)
    basic = server.submit(QUERIES[1], tenant="basic", use_result_cache=False)
    while not server.session(gold).done and not server.session(basic).done:
        server.step()
    # Same query, 3x the quota: gold finishes first, and at that point the
    # basic tenant has received roughly a third of the work.
    assert server.session(gold).done and not server.session(basic).done
    assert 0 < server.ledger.total(basic) < 0.6 * server.ledger.total(gold)
    server.drain()


def test_flooding_tenant_cannot_starve_light_tenant(catalog):
    """The adversarial property: a heavy tenant submitting many sessions
    gets no more of the work clock than its quota — the light tenant's
    completion time is (nearly) independent of the heavy tenant's backlog.
    """

    def light_scheduling_delay(heavy_sessions: int) -> int:
        server = QueryServer(
            catalog, config=FAST.with_overrides(serving_max_inflight=8)
        )
        for _ in range(heavy_sessions):
            server.submit(QUERIES[1], tenant="heavy", use_result_cache=False)
        light = server.submit(QUERIES[4], tenant="light", use_result_cache=False)
        # Setup work is charged eagerly at submission; fairness is about
        # the *scheduled* episodes after that, so measure from here.
        baseline = server.ledger.grand_total()
        _drive_until_done(server, light)
        session = server.session(light)
        assert session.state is SessionState.FINISHED
        return session.completed_at_work - baseline

    single = light_scheduling_delay(1)
    flooded = light_scheduling_delay(6)
    # Per-session fair share would slow the light query ~3.5x going from
    # 1+1 to 6+1 backlogged sessions; per-tenant quotas must keep it flat
    # (tolerance covers one grant of heavy-tenant work on either side).
    assert 0 < flooded <= 1.5 * single


def test_tenant_fairness_does_not_change_results_or_charges(catalog):
    """Quotas reshape the schedule only: results and per-query charges
    stay byte-identical to solo runs."""
    server = QueryServer(catalog, config=FAST.with_overrides(serving_max_inflight=4))
    server.set_tenant_quota("heavy", 0.5)
    tickets = [
        server.submit(sql, tenant=("heavy" if index % 2 else "light"),
                      use_result_cache=False)
        for index, sql in enumerate(QUERIES[:4])
    ]
    server.drain()
    for index, ticket in enumerate(tickets):
        solo = solo_result(catalog, QUERIES[index], "skinner-c")
        served = server.result(ticket)
        assert_tables_identical(solo.table, served.table)
        assert solo.metrics.work == served.metrics.work


def test_single_tenant_schedule_unchanged_by_tenant_layer(catalog):
    """With one tenant the hierarchical scheduler must reproduce the exact
    pre-tenant schedule — determinism tests and serving benchmarks rely on
    single-tenant traces staying stable."""

    def trace(tenant_kwargs):
        server = QueryServer(catalog, config=FAST.with_overrides(serving_max_inflight=3))
        tickets = [server.submit(sql, use_result_cache=False, **tenant_kwargs)
                   for sql in QUERIES[:4]]
        order = []
        while server.step():
            order.append(tuple(server.ledger.total(ticket) for ticket in tickets))
        return order

    assert trace({}) == trace({"tenant": "solo"})


def test_tenant_stats_report_quota_backlog_and_shares(catalog):
    server = QueryServer(catalog, config=FAST)
    server.set_tenant_quota("gold", 2.0)
    gold = server.submit(QUERIES[1], tenant="gold", use_result_cache=False)
    server.submit(QUERIES[4], tenant="basic", use_result_cache=False)
    server.step()
    stats = server.stats()["tenants"]
    assert set(stats) == {"gold", "basic"}
    assert stats["gold"]["quota"] == 2.0 and stats["basic"]["quota"] == 1.0
    assert stats["gold"]["backlog"] == 1 and stats["basic"]["backlog"] == 1
    server.drain()
    stats = server.stats()["tenants"]
    assert stats["gold"]["backlog"] == 0
    assert stats["gold"]["work"] == server.ledger.total(gold)
    shares = [tenant["grant_share"] for tenant in stats.values()]
    assert abs(sum(shares) - 1.0) < 1e-9
    # Grant wall time is accounted per session and in total.
    walls = [tenant["wall_seconds"] for tenant in stats.values()]
    assert min(walls) > 0.0 and server.stats()["grant_wall_seconds"] >= sum(walls)
    with pytest.raises(ReproError, match="positive"):
        server.set_tenant_quota("gold", 0.0)


@pytest.mark.parametrize("share", [0.0, -1.0, float("nan"), float("inf"), True, "x", None])
def test_a_quota_share_must_be_a_finite_positive_number(catalog, share):
    """Quotas are the one scheduling policy: a share that would stall a
    tenant's clock (``inf``), scramble the order (``nan``) or is no number
    at all is refused, and the tenant keeps its quota."""
    server = QueryServer(catalog, config=FAST)
    server.set_tenant_quota("gold", 2)
    with pytest.raises(ReproError, match="must be positive and finite"):
        server.set_tenant_quota("gold", share)
    server.result(server.submit(QUERIES[4], tenant="gold"))
    assert server.stats()["tenants"]["gold"]["quota"] == 2.0


# ----------------------------------------------------------------------
# every engine runs in bounded episodes
# ----------------------------------------------------------------------
#: Candidate rows per baseline episode in the tests below.
SMALL_EPISODE = 64


@pytest.fixture
def small_episodes(monkeypatch):
    monkeypatch.setattr(engine_task, "EPISODE_ROWS", SMALL_EPISODE)


def cross_product_workload():
    """``x`` × ``y`` filtered by a UDF that holds for one pair only (15,000
    candidates, 2 units each: a predicate evaluation and a UDF call), and a
    small equi-join."""
    catalog = Catalog()
    catalog.add_table(Table("x", {"a": list(range(150))}))
    catalog.add_table(Table("y", {"b": list(range(100))}))
    catalog.add_table(Table("s", {"k": [i % 10 for i in range(20)]}))
    catalog.add_table(Table("u", {"k": list(range(10))}))
    udfs = UdfRegistry()
    udfs.register("rare", lambda a, b: a == 7 and b == 3, cost=1)
    crossed = make_query(
        [("x", "x"), ("y", "y")],
        predicates=[udf_predicate("rare", ("x", "a"), ("y", "b"))],
        select_items=[SelectItem(aggregate=AggregateSpec("count", Star()), alias="n")],
    )
    return catalog, udfs, crossed


@pytest.mark.parametrize("engine", ["traditional", "reoptimizer", "eddy"])
def test_a_baseline_cross_product_does_not_hold_the_server(small_episodes, baseline_engines,
                                                            engine):
    """Tenant ``a`` runs a UDF-filtered cross product on a baseline, tenant
    ``b`` a small Skinner-C statement: ``b`` finishes while ``a`` runs, and
    cancelling ``a`` frees its admission slot and closes its generator."""
    catalog, udfs, crossed = cross_product_workload()
    small = "SELECT COUNT(*) AS n FROM s, u WHERE s.k = u.k"
    server = QueryServer(catalog, udfs, FAST.with_overrides(serving_max_inflight=2))
    a = server.submit(crossed, engine=engine, tenant="a", use_result_cache=False)
    b = server.submit(small, engine="skinner-c", tenant="b", use_result_cache=False)
    while not server.session(b).done:
        server.step()
    assert server.result(b).rows == [{"n": 20}]
    for _ in range(3):
        server.step()
    assert server.session(a).state is SessionState.RUNNING
    assert server.session(a).episodes > 1
    server.submit(small, engine="skinner-c", tenant="c", use_result_cache=False)
    waiting = server.submit(small, engine="skinner-c", tenant="c", use_result_cache=False)
    assert server.poll(waiting)["state"] == "queued"  # behind a and the one above
    task = server.session(a).task
    assert inspect.getgeneratorstate(task._episodes) == inspect.GEN_SUSPENDED
    assert server.cancel(a)
    assert inspect.getgeneratorstate(task._episodes) == inspect.GEN_CLOSED
    assert server.poll(waiting)["state"] == "running"
    server.drain()
    assert server.poll(waiting)["state"] == "finished"


def test_no_traditional_grant_materializes_more_than_one_episode(small_episodes):
    """The step's candidate charges come first, whole, in the first grant;
    every later grant but the one that post-processes materializes one
    episode's candidates, 2 units each."""
    catalog, udfs, crossed = cross_product_workload()
    solo = TraditionalEngine(catalog, udfs).execute(crossed)
    server = QueryServer(catalog, udfs, FAST)
    ticket = server.submit(crossed, engine="traditional", use_result_cache=False)
    deltas = []
    while not server.session(ticket).done:
        before = server.ledger.total(ticket)
        server.step()
        deltas.append(server.ledger.total(ticket) - before)
    assert len(deltas) == 150 * 100 // SMALL_EPISODE + 1
    assert deltas[0] > 150 * 100
    assert set(deltas[1:-1]) == {2 * SMALL_EPISODE}
    assert sum(deltas) == server.ledger.total(ticket) == solo.metrics.work.total
    result = server.result(ticket)
    assert result.rows == solo.rows == [{"n": 1}]
    assert result.metrics.work == solo.metrics.work
    assert server.stats()["grant_wall_max_seconds"] <= server.stats()["grant_wall_seconds"]


def test_no_eddy_grant_examines_more_than_one_episode(small_episodes, baseline_engines):
    """The eddy counts every candidate it examines, rejected ones included:
    a grant charges one episode's candidates (2 units each) and the driver
    tuples among them (a scan each)."""
    catalog, udfs, crossed = cross_product_workload()
    solo = EddyEngine(catalog, udfs).execute(crossed)
    server = QueryServer(catalog, udfs, FAST)
    ticket = server.submit(crossed, engine="eddy", use_result_cache=False)
    deltas = []
    while not server.session(ticket).done:
        before = server.ledger.total(ticket)
        server.step()
        deltas.append(server.ledger.total(ticket) - before)
    assert len(deltas) == (100 + 150 * 100) // SMALL_EPISODE + 1
    assert deltas[0] <= 150 + 100 + 2 * SMALL_EPISODE  # the filters' scans come first
    assert max(deltas[1:]) <= 2 * SMALL_EPISODE
    assert sum(deltas) == server.ledger.total(ticket) == solo.metrics.work.total
    assert server.result(ticket).rows == solo.rows == [{"n": 1}]


def test_stats_report_the_longest_grant(catalog):
    server = QueryServer(catalog, config=FAST)
    assert server.stats()["grant_wall_max_seconds"] == 0.0
    server.result(server.submit(QUERIES[1], use_result_cache=False))
    stats = server.stats()
    assert 0.0 < stats["grant_wall_max_seconds"] <= stats["grant_wall_seconds"]
