"""The query server: concurrent, episode-interleaved query serving.

:class:`QueryServer` is the multi-tenant entry point of the repository: it
accepts query submissions (``submit`` / ``poll`` / ``result`` / ``cancel``),
bounds concurrent in-flight work through admission control, and drives a
fair-share scheduler over tenant quotas that interleaves *episodes* — the
budgeted time slices SkinnerDB's engines are built from — across all active
queries on one thread.  Because an episode touches only its own query's
state, a query's episode sequence (and therefore its results and meter
charges) is byte-identical whether it runs alone or interleaved with
arbitrary other queries; concurrency changes *when* a query's episodes run,
never *what* they compute.

Above the scheduler sit two serving-level caches (see
:mod:`repro.serving.cache`): a result cache over normalized query
fingerprints, and a cross-query join-order cache that warm-starts a new
query's UCT tree from orders learned on the same join graph.  Results
answer to table and UDF versions, so no write has to clear them; learned
orders outlive a write to their tables as hints.

The server is cooperative and single-threaded by design: ``step()`` runs
one scheduling grant, ``drain()`` runs until idle, and ``result(ticket)``
drives the scheduler until the awaited query completes.  No locks, no
threads — determinism is the feature the tests and benchmarks lean on.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable
from dataclasses import replace
from typing import Any

from repro.api.registry import DEFAULT_REGISTRY, EngineContext, EngineRegistry
from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.meter import CostMeter, WorkLedger
from repro.engine.postprocess import post_process
from repro.engine.relation import RowIdRelation
from repro.engine.statement_cache import StatementCache
from repro.engine.task import OrderPrior
from repro.engine.versioned_lru import VersionedLru
from repro.errors import InterfaceError, ReproError
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryResult
from repro.serving.admission import AdmissionController
from repro.serving.cache import (
    join_graph_signature,
    query_fingerprint,
    result_bytes,
)
from repro.serving.scheduler import FairScheduler
from repro.serving.session import QuerySession, SessionState, StreamBuffer, empty_batch
from repro.storage.catalog import Catalog
from repro.storage.table import Table


def check_fetch_size(max_rows: Any) -> None:
    """A fetch size is ``None`` (everything buffered) or a non-negative int.

    The one check behind ``Cursor.fetchmany``, :meth:`QueryServer.fetch_batch`
    and the wire's ``fetch`` verb, so a bad size reads the same locally and
    over ``repro://`` — and ``-1`` is an error instead of an empty batch
    that every caller takes for "exhausted".
    """
    if max_rows is None or (
        isinstance(max_rows, int) and not isinstance(max_rows, bool) and max_rows >= 0
    ):
        return
    raise InterfaceError(
        f"fetch size must be None or a non-negative int, got {max_rows!r}"
    )


def _stream_eligible(query: Query) -> bool:
    """Whether a query's rows can be delivered before the join completes.

    Aggregation, GROUP BY, ORDER BY, and DISTINCT are *blocking*: their
    output depends on the complete join result, so those queries deliver at
    completion.  Plain select-project-join output rows map 1:1 onto result
    tuples and stream as the tuples materialize (the result set's duplicate
    elimination guarantees each row is delivered once).  A bare ``LIMIT``
    on such a query streams too and is pushed down: any ``LIMIT`` rows are
    a valid answer, though a truncated stream is a prefix of the
    materialization order rather than the canonical completion order.
    """
    return not query.blocking


class QueryServer:
    """Cooperative multi-query scheduler and session layer over one catalog.

    Parameters
    ----------
    catalog:
        Tables to serve queries against.
    udfs:
        Registry of user-defined functions referenced by queries.
    config:
        Default configuration; ``serving_max_inflight`` sizes the admission
        bound.  Per-submission config overrides apply to execution but not
        to the admission bound.
    registry:
        Engine registry resolving ``engine=`` names; defaults to the
        process-wide :data:`~repro.api.registry.DEFAULT_REGISTRY`.
    """

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        registry: EngineRegistry | None = None,
    ) -> None:
        self._catalog = catalog
        self._udfs = udfs
        self._config = config
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._scheduler = FairScheduler()
        self._admission = AdmissionController(config.serving_max_inflight)
        self._sessions: dict[int, QuerySession] = {}
        self._tickets = itertools.count(1)
        self.ledger = WorkLedger()
        #: Finished results, keyed on normalized query fingerprints.
        self.result_cache = VersionedLru(catalog, udfs)
        #: Learned join-order priors, keyed on join-graph signatures; each
        #: value carries the tables its statement read and their versions
        #: (no write drops it: see :meth:`_warm_start_priors`).
        self.order_cache = VersionedLru(catalog)
        self._completed = 0
        #: Work units charged per tenant (survives ``forget``); feeds the
        #: per-tenant grant shares of :meth:`stats`.
        self._tenant_work: dict[str, int] = {}
        #: Per-tenant cache observations (survive ``forget``): result-cache
        #: lookups from this tenant's submissions and order-cache warm-start
        #: probes for them.
        self._tenant_caches: dict[str, dict[str, int]] = {}
        #: Wall-clock seconds spent inside scheduling grants, and in the
        #: longest one — the reference-time companions of the work ledger.
        self._grant_wall_seconds = 0.0
        self._grant_wall_max_seconds = 0.0
        #: Called after a :meth:`cancel` changed a session's state outside
        #: a grant; a network front door wakes the requests parked on it.
        self.progress_hook: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(
        self,
        query: str | Query,
        *,
        engine: str | None = None,
        config: SkinnerConfig | None = None,
        tenant: str = "default",
        use_result_cache: bool = True,
        stream: bool = False,
    ) -> int:
        """Submit a query for execution; returns its ticket.

        ``tenant`` names the quota bucket the work is accounted to (see
        :meth:`set_tenant_quota`); the tenant's sessions share its quota
        equally.
        ``use_result_cache=False`` skips the cache *lookup* for this
        submission (the finished result is still stored for later
        submissions).  ``stream=True`` buffers result rows for incremental
        delivery through :meth:`fetch_batch`: when the engine and query shape
        allow it, completed batches become fetchable while the query is
        still executing; otherwise all rows become fetchable at completion.
        ``engine=None`` runs the server config's ``default_engine``.
        """
        engine = (engine or self._config.default_engine).lower()
        self._registry.resolve(engine)
        parsed = (StatementCache.of(self._catalog).parse(query)
                  if isinstance(query, str) else query)
        config = config or self._config
        fingerprint = query_fingerprint(parsed, engine=engine, config=config)
        session = QuerySession(
            ticket=next(self._tickets),
            query=parsed,
            engine=engine,
            config=config,
            tenant=tenant,
            fingerprint=fingerprint,
            stream_requested=stream,
        )
        self._sessions[session.ticket] = session
        if use_result_cache:
            cached = self.result_cache.get(fingerprint)
            counters = self._tenant_cache_counters(tenant)
            counters["result_hits" if cached is not None else "result_misses"] += 1
            if cached is not None:
                session.cache_hit = True
                self._finish(session, self._cached_copy(cached))
                return session.ticket
        if self._admission.offer(session):
            self._activate(session)
        return session.ticket

    def poll(self, ticket: int) -> dict[str, Any]:
        """Progress snapshot of a submission (non-blocking)."""
        session = self._session(ticket)
        snapshot = {
            "ticket": ticket,
            "state": session.state.value,
            "engine": session.engine,
            "tenant": session.tenant,
            "episodes": session.episodes,
            "work_done": self.ledger.total(ticket),
            "queue_position": self._admission.queue_position(session),
            "cache_hit": session.cache_hit,
        }
        result = session.result
        if session.state is SessionState.FINISHED and result is not None:
            # A pending table stays unbuilt: its metrics know its length.
            snapshot["result_rows"] = (result.metrics.result_rows if result.pending
                                       else result.table.num_rows)
        if session.stream is not None:
            snapshot["stream"] = {
                "names": session.stream.names,
                "fetchable_rows": len(session.stream),
                "rows_streamed": session.stream.rows_streamed,
                "first_rows_at_work": session.stream.first_rows_at_work,
            }
        return snapshot

    def fetch_batch(
        self, ticket: int, max_rows: int | None = None, *, drive: bool = True
    ) -> Table:
        """Fetch up to ``max_rows`` result rows of a streaming submission.

        This is the incremental-delivery path behind
        :meth:`repro.api.cursor.Cursor.fetchmany`: the scheduler is driven
        until the submission has fetchable rows (or finishes), then the
        buffered rows are returned in their materialization order, as a
        table — columns stay arrays until a cursor makes tuples of them.  A
        table of no rows therefore means the result is exhausted.  With
        ``drive=False`` only already-buffered rows are returned.

        Rows stream *before completion* when the engine's task is
        ``streamable`` and the query has no blocking post-processing
        (aggregation, GROUP BY, ORDER BY, DISTINCT); a plain LIMIT is
        pushed into the stream (the session completes early once the limit
        is filled); otherwise the buffer fills when the query completes.
        """
        check_fetch_size(max_rows)
        session = self._session(ticket)
        if not session.stream_requested:
            raise ReproError(
                f"query {ticket} was not submitted with stream=True"
            )
        # The buffer appears at activation; a session still queued behind
        # admission control has none yet, so drive until it is admitted
        # *and* has fetchable rows (or reaches a terminal state).
        while (
            drive
            and (session.stream is None or not session.stream.buffered)
            and not session.done
        ):
            if not self.step():
                raise ReproError(f"query {ticket} cannot make progress")
        if session.state is SessionState.CANCELLED:
            raise ReproError(f"query {ticket} was cancelled")
        if session.state is SessionState.FAILED:
            assert session.error is not None
            raise session.error
        if session.stream is None:
            # drive=False before activation: nothing buffered yet
            return empty_batch(session.query.output_names(self._catalog))
        return session.stream.take(max_rows)

    def result(self, ticket: int, *, drive: bool = True) -> QueryResult:
        """The result of a submission, driving the scheduler until it is done.

        With ``drive=False`` the call raises unless the session already
        reached a terminal state (useful for pure polling clients).
        """
        session = self._session(ticket)
        while not session.done:
            if not drive:
                raise ReproError(f"query {ticket} is still {session.state.value}")
            if not self.step():
                raise ReproError(f"query {ticket} cannot make progress")
        if session.state is SessionState.CANCELLED:
            raise ReproError(f"query {ticket} was cancelled")
        if session.state is SessionState.FAILED:
            assert session.error is not None
            raise session.error
        assert session.result is not None
        return session.result

    def cancel(self, ticket: int) -> bool:
        """Cancel a queued or running submission.

        A running query is cancelled cooperatively at its next episode
        boundary — i.e. immediately, since the server only runs episodes
        inside :meth:`step`.  Already-finished submissions return ``False``;
        otherwise :attr:`progress_hook` is called.
        """
        session = self._session(ticket)
        if session.done:
            return False
        if session.state is SessionState.QUEUED and self._admission.withdraw(session):
            session.state = SessionState.CANCELLED
        else:
            # Running: drop it from the rotation and hand the slot onward.
            self._scheduler.remove(session)
            session.state = SessionState.CANCELLED
            self._release_task(session)
            self._admit_next(session)
        if self.progress_hook is not None:
            self.progress_hook()
        return True

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run one scheduling grant: one episode of the session picked.

        Returns ``False`` when no session is runnable (the server is idle).
        """
        session = self._scheduler.pick()
        if session is None:
            return False
        task = session.task
        assert task is not None
        grant_started = time.perf_counter()
        try:
            session.episodes += 1
            task.run_episode()
            elapsed = time.perf_counter() - grant_started
            session.wall_seconds += elapsed
            self._grant_wall_seconds += elapsed
            if elapsed > self._grant_wall_max_seconds:
                self._grant_wall_max_seconds = elapsed
            # Every unit charged before this grant is on the ledger already.
            self._account(session, task.work_total() - self.ledger.total(session.ticket))
            self._pump_stream(session)
            if session.done:
                return True  # LIMIT push-down completed the session early
            if task.finished:
                self._complete(session)
        except Exception as error:  # noqa: BLE001 - one bad query must not
            # wedge the server: fail the session, keep serving the others.
            unaccounted = session.work_total() - self.ledger.total(session.ticket)
            if unaccounted > 0:
                self._account(session, unaccounted)
            self._fail(session, error)
        return True

    def drain(self) -> int:
        """Run until every submission reached a terminal state."""
        steps = 0
        while self.step():
            steps += 1
        return steps

    def forget(self, ticket: int) -> bool:
        """Drop a terminal session's bookkeeping (its result stays cached).

        Long-lived servers accumulate one :class:`QuerySession` per
        submission; clients that are done with a ticket free it here.
        Non-terminal sessions are refused (cancel first).
        """
        session = self._sessions.get(ticket)
        if session is None or not session.done:
            return False
        del self._sessions[ticket]
        return True

    def release(self, ticket: int) -> bool:
        """:meth:`cancel` a submission still in flight, then :meth:`forget` it.

        What a client does with a ticket it is finished with.  ``False`` for
        a ticket this server does not know (already released): the call
        never raises for one, so a release can ride on another request.
        """
        if ticket not in self._sessions:
            return False
        self.cancel(ticket)
        return self.forget(ticket)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Server-level counters (cache efficiency, load, completions)."""
        return {
            "sessions": len(self._sessions),
            "completed": self._completed,
            "inflight": len(self._admission.inflight),
            "queued": len(self._admission.queued),
            "work_total": self.ledger.grand_total(),
            "grant_wall_seconds": self._grant_wall_seconds,
            "grant_wall_max_seconds": self._grant_wall_max_seconds,
            "tenants": self.tenant_stats(),
            "result_cache": self.result_cache.counters(),
            "order_cache": {
                **self.order_cache.counters(),
                "stale_hits": sum(counters["order_stale_hits"]
                                  for counters in self._tenant_caches.values()),
            },
            "cache_bytes": {
                "statement": StatementCache.of(self._catalog).nbytes,
                "result": self.result_cache.nbytes,
                "order": self.order_cache.nbytes,
            },
        }

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def set_tenant_quota(self, tenant: str, share: float) -> None:
        """Set a tenant's fair-share quota (relative; unset tenants get 1.0).

        Quotas are the server's one scheduling policy: they divide served
        work *between* tenants, and a tenant's sessions split its share
        equally — a heavy tenant flooding the server cannot push a light
        tenant below its quota-implied share of the work clock.  ``share``
        must be a finite, positive number (:class:`ReproError` otherwise).
        """
        self._scheduler.set_quota(tenant, share)

    def tenant_backlog(self, tenant: str) -> int:
        """Number of a tenant's submissions not yet in a terminal state.

        The network front door reads this to apply backpressure: while a
        tenant's backlog is at the configured bound, its socket is not
        read, so admission pressure propagates to the client as TCP flow
        control instead of an unbounded server-side queue.
        """
        return sum(
            1
            for session in self._sessions.values()
            if session.tenant == tenant and not session.done
        )

    def tenant_stats(self) -> dict[str, dict[str, Any]]:
        """Per-tenant load, grant shares, and cache observations.

        Each tenant's ``caches`` entry reports the result-cache lookups its
        submissions performed and the order-cache warm-start probes made on
        their behalf (``stale_hits``: the hits whose tables had moved, handed
        on as hints); ``invalidations`` is the result cache's count of stale
        entries dropped (the caches are server-wide, so every tenant sees
        the same value).
        """
        invalidations = self.result_cache.counters()["invalidations"]
        tenants: set[str] = set(self._tenant_work)
        tenants.update(session.tenant for session in self._sessions.values())
        tenants.update(self._tenant_caches)
        total_work = sum(self._tenant_work.values())
        inflight = self._admission.inflight
        report: dict[str, dict[str, Any]] = {}
        for tenant in sorted(tenants):
            work = self._tenant_work.get(tenant, 0)
            sessions = [s for s in self._sessions.values() if s.tenant == tenant]
            caches = self._tenant_cache_counters(tenant)
            report[tenant] = {
                "work": work,
                "grant_share": (work / total_work) if total_work else 0.0,
                "quota": self._scheduler.quota(tenant),
                "backlog": sum(1 for s in sessions if not s.done),
                "queued": sum(1 for s in sessions if s.state is SessionState.QUEUED),
                "inflight": sum(1 for s in sessions if s in inflight),
                "wall_seconds": sum(s.wall_seconds for s in sessions),
                "caches": {
                    "result": {
                        "hits": caches["result_hits"],
                        "misses": caches["result_misses"],
                    },
                    "order": {
                        "hits": caches["order_hits"],
                        "misses": caches["order_misses"],
                        "stale_hits": caches["order_stale_hits"],
                    },
                    "invalidations": invalidations,
                },
            }
        return report

    def _tenant_cache_counters(self, tenant: str) -> dict[str, int]:
        counters = self._tenant_caches.get(tenant)
        if counters is None:
            counters = {
                "result_hits": 0,
                "result_misses": 0,
                "order_hits": 0,
                "order_misses": 0,
                "order_stale_hits": 0,
            }
            self._tenant_caches[tenant] = counters
        return counters

    def session(self, ticket: int) -> QuerySession:
        """The session object behind a ticket (inspection and tests)."""
        return self._session(ticket)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _session(self, ticket: int) -> QuerySession:
        session = self._sessions.get(ticket)
        if session is None:
            raise ReproError(f"unknown ticket {ticket}")
        return session

    # ------------------------------------------------------------------
    # streaming internals
    # ------------------------------------------------------------------
    def _setup_stream(self, session: QuerySession) -> None:
        """Attach a stream buffer; go incremental when task+query allow it."""
        session.stream = StreamBuffer(session.query.output_names(self._catalog))
        task = session.task
        if task.streamable and _stream_eligible(session.query):
            task.enable_streaming()
            session.stream.incremental = True
            if session.query.limit is not None:
                # LIMIT push-down: deliver the first `limit` materialized
                # rows and stop scheduling the session once they exist.
                session.limit_remaining = session.query.limit
                session.stream.keep_journal = True

    def _pump_stream(self, session: QuerySession) -> None:
        """Move tuples the last grant materialized into the stream buffer.

        Projection runs against a throwaway meter: ``finalize()`` charges
        what post-processing charges, so a streamed query's meter charges
        are byte-identical to the same query executed without streaming.
        """
        buffer = session.stream
        task = session.task
        if buffer is None or not buffer.incremental or task is None:
            return
        if session.limit_remaining is not None and session.limit_remaining <= 0:
            self._finish_limited(session)
            return
        fresh = task.drain_new_tuples()
        if not len(fresh):
            return
        relation = RowIdRelation.from_matrix(task.stream_aliases, fresh)
        table = post_process(
            session.query, relation, task.stream_tables, self._udfs, CostMeter()
        )
        if session.limit_remaining is not None:
            table = table.slice(0, session.limit_remaining)
            session.limit_remaining -= table.num_rows
        buffer.push(table, self.ledger.grand_total())
        if session.limit_remaining is not None and session.limit_remaining <= 0:
            self._finish_limited(session)

    def _warm_start_priors(
        self, session: QuerySession, spec: Any
    ) -> tuple[OrderPrior, ...]:
        """The priors a session's task starts from; their kind goes on the
        session.

        Priors learned on the tables as they are now are handed on whole
        (``"fresh"``).  Once a write moved one of those tables they are a
        hint (``"stale"``): the same orders and shares with one pseudo-visit
        each and no evidence, so UCT tries them first, but every order
        starts at a base probe in the slice schedule.  A join order never
        changes a query's rows, so a stale prior can cost time, never
        correctness.
        """
        if not (spec.task_class.warm_startable and session.config.serving_warm_start):
            return ()
        entry = self.order_cache.get(join_graph_signature(session.query))
        counters = self._tenant_cache_counters(session.tenant)
        if entry is None:
            counters["order_misses"] += 1
            return ()
        counters["order_hits"] += 1
        priors, tables, versions = entry
        if self.result_cache.versions(tables) == versions:
            session.warm_start = "fresh"
            return priors
        counters["order_stale_hits"] += 1
        session.warm_start = "stale"
        return tuple((order, share, 1, 0) for order, share, _, _ in priors)

    def _activate(self, session: QuerySession) -> None:
        # Task construction snapshots the input tables; remember at which
        # versions, so completion knows whether the result is still cacheable.
        session.versions = self.result_cache.versions(session.query.read_tables)
        context = EngineContext(self._catalog, self._udfs, session.config)
        try:
            # resolve() must stay inside the try: a queued session can be
            # activated long after submission (admission promotion), by
            # which time its engine may have been unregistered — that must
            # fail *this* session, not whichever session's step() ran it.
            spec = self._registry.resolve(session.engine)
            session.task = spec.create_task(
                context,
                session.query,
                order_prior=self._warm_start_priors(session, spec),
            )
        except Exception as error:  # noqa: BLE001 - e.g. a UDF raising
            # during pre-processing: fail this session without leaking its
            # admission slot (the error surfaces on result(ticket)).
            self._fail(session, error)
            return
        if session.stream_requested:
            self._setup_stream(session)
        session.state = SessionState.RUNNING
        self._scheduler.add(session)
        # Task construction pre-processes the query; attribute that work to
        # the session now so ledger totals equal the solo-run meter totals.
        setup_work = session.task.work_total()
        if setup_work:
            self._account(session, setup_work)

    def _fail(self, session: QuerySession, error: Exception) -> None:
        """Move a session to FAILED, freeing its scheduler and admission slots."""
        session.error = error
        session.result = None
        session.state = SessionState.FAILED
        self._release_task(session)
        self._scheduler.discard(session)
        if session in self._admission.inflight:
            self._admit_next(session)

    def _account(self, session: QuerySession, consumed: int) -> None:
        self.ledger.record(session.ticket, consumed)
        tenant = session.tenant
        self._tenant_work[tenant] = self._tenant_work.get(tenant, 0) + consumed
        self._scheduler.charge(session, consumed)

    def _finish(self, session: QuerySession, result: QueryResult) -> None:
        """The one transition to FINISHED, whatever produced ``result``.

        A finished task, a filled LIMIT and a result-cache hit all end here:
        work the ledger has not seen yet (post-processing charges during
        ``finalize()``) is attributed so the ledger total equals the
        solo-run meter total exactly, rows not streamed incrementally
        become fetchable, and the scheduler slot, the task's execution
        state (preprocessed tables, result set, UCT tree, queued morsels)
        and the admission slot are released — only the result
        outlives completion.
        """
        session.result = result
        if session.warm_start is not None:
            result.metrics.extra["warm_start"] = session.warm_start
        residual = session.work_total() - self.ledger.total(session.ticket)
        if residual > 0:
            self._account(session, residual)
        session.state = SessionState.FINISHED
        session.completed_at_work = self.ledger.grand_total()
        self._completed += 1
        if session.stream_requested and (
            session.stream is None or not session.stream.incremental
        ):
            # Completion-time delivery: the final table becomes the buffer.
            names = result.table.column_names
            if session.stream is None:
                session.stream = StreamBuffer(names)
            session.stream.names = tuple(names)
            session.stream.push(result.table, session.completed_at_work)
        self._scheduler.discard(session)
        self._release_task(session)
        if session in self._admission.inflight:
            self._admit_next(session)

    def _complete(self, session: QuerySession) -> None:
        assert session.task is not None
        # A streamed statement's table is left for whoever reads it (a
        # result-cache hit, ``result()``), if anybody does.
        result = session.task.finalize()
        # Cache only what the current tables and UDFs still give: a write
        # that landed while this task ran moved a version, and the result
        # and learned orders describe the rows from before it.
        tables = session.query.read_tables
        if self.result_cache.versions(tables) == session.versions:
            if session.fingerprint is not None:
                self.result_cache.put(session.fingerprint, result, tables, result_bytes(result))
            # Each order's selection share goes beside the evidence it has
            # accumulated, which is where the next query on this join graph
            # enters the slice-budget schedule.
            priors = tuple(session.task.learned_orders())
            if priors:
                self.order_cache.put(join_graph_signature(session.query),
                                     (priors, tables, session.versions), ())
        self._finish(session, result)

    def _finish_limited(self, session: QuerySession) -> None:
        """Complete a streamed LIMIT query early: its owed rows all exist.

        The session's result is the journaled stream — the first ``LIMIT``
        rows in materialization order, a valid answer for a bare
        select-project-join LIMIT query, but *not* the canonical
        completion-ordered rows a full run produces — so the result is
        never stored in the result cache and no join-order priors are
        recorded (the UCT tree only saw a truncated run).  The scheduler
        and admission slots are released immediately: this is the whole
        point of the push-down — no budget is burned on rows nobody will
        fetch.
        """
        task = session.task
        buffer = session.stream
        assert task is not None and buffer is not None
        # The journaled batches are post-processed tables already, named
        # exactly like a full run's result table.
        table = (Table.concat(buffer.journal) if buffer.journal
                 else empty_batch(buffer.names))
        metrics = task.partial_metrics(table.num_rows)
        metrics.extra["limit_pushdown"] = True
        self._finish(session, QueryResult(table, metrics))

    @staticmethod
    def _release_task(session: QuerySession) -> None:
        """Drop a session's task, closing it first to free external state.

        Parallel Skinner-C tasks own queued morsels and in-flight worker
        results; ``close()`` tears those down deterministically at
        every terminal transition (complete, fail, cancel, limit push-down)
        instead of waiting for garbage collection.
        """
        task = session.task
        session.task = None
        if task is not None:
            try:
                task.close()
            except Exception:  # noqa: BLE001 - the session is over either way
                pass

    def _admit_next(self, session: QuerySession) -> None:
        admitted = self._admission.release(session)
        if admitted is not None:
            self._activate(admitted)

    @staticmethod
    def _cached_copy(cached: QueryResult) -> QueryResult:
        """A result-cache hit: same table, metrics flagged as cached."""
        metrics = replace(
            cached.metrics,
            extra={**cached.metrics.extra, "result_cache": "hit"},
        )
        return QueryResult(cached.table, metrics)
