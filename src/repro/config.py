"""Configuration objects for the Skinner execution strategies."""

from __future__ import annotations

from dataclasses import dataclass

from repro.uct.policy import SKINNER_C_EXPLORATION_WEIGHT


@dataclass(frozen=True)
class SkinnerConfig:
    """Tuning knobs shared by the Skinner variants.

    The defaults follow the paper's experimental setup (§6.1): Skinner-C uses
    a base time-slice budget of 500 multi-way-join loop iterations and a tiny
    UCT exploration weight; Skinner-G/H use much larger per-batch budgets (and
    always the canonical ``sqrt(2)`` exploration weight).

    Attributes
    ----------
    slice_budget:
        Skinner-C: the *base* budget of a time slice, in multi-way join loop
        iterations (the paper's ``b``).  The first slice of every join order
        gets exactly this; later slices of the same order get a growing
        multiple of it (``docs/engines.md``, "Slice budget schedule").
    batch_size:
        Skinner-C: upper bound on the ``(prefix, candidate)`` pairs the
        multi-way join examines in one vectorized step.  A batch is the
        candidates of a whole *block* of partial tuples — the hash buckets
        of up to ``batch_size`` prefixes looked up together — not the bucket
        of one parent tuple, so it is also the most prefixes a block holds;
        larger values amortize interpreter overhead across NumPy operations
        (``1`` means batches of one).  A step never exceeds its share of the
        remaining slice budget, which is what bounds it at the default.
    exploration_weight:
        UCT exploration weight for Skinner-C.
    reward_function:
        ``"scaled_deltas"`` (the refined reward summing scaled tuple-index
        deltas) or ``"leftmost"`` (progress in the left-most table only, the
        simpler reward analyzed in §5).
    use_hash_jump:
        Whether Skinner-C jumps tuple indices via hash lookups for equality
        join predicates.
    share_progress:
        Whether execution state is shared between join orders with a common
        prefix via the progress tracker.
    use_offsets:
        Whether fully processed left-most tuples are excluded for all orders.
    batches_per_table:
        Skinner-G: number of batches each table is divided into.
    base_timeout:
        Skinner-G/H: work-unit budget of timeout level 0 (the paper's
        smallest timeout).
    order_selection:
        ``"uct"`` (learned) or ``"random"`` — the latter replaces
        reinforcement learning by uniform random join-order selection and is
        the ablation baseline of Table 5.
    seed:
        Seed for the pseudo-random choices of the UCT trees.
    serving_max_inflight:
        :class:`~repro.serving.server.QueryServer`: maximum number of
        queries executing concurrently (episode-interleaved); submissions
        beyond the bound wait in the admission queue.
    serving_quantum_episodes:
        Episodes a scheduled query runs per grant before the scheduler
        re-evaluates fair shares.  ``1`` is the fairest (and the default);
        larger values amortize switching overhead.
    serving_result_cache_size:
        Entries of the serving-level result cache (``0`` disables caching).
        Keys are normalized query fingerprints including engine, profile,
        and config, and the whole cache is invalidated on schema changes.
    serving_warm_start:
        Whether new Skinner-C queries seed their UCT tree from join orders
        learned by earlier queries on the same join graph.
    serving_grant_wall_ms:
        Wall-clock budget of one scheduling grant in milliseconds, layered
        on top of the work-unit quantum: a grant ends after
        ``serving_quantum_episodes`` episodes *or* when the budget elapses,
        whichever comes first.  ``0`` (the default) disables the wall-clock
        bound, keeping grant boundaries a pure function of the
        deterministic work-unit clock.
    serving_tenant_backlog:
        Per-tenant backpressure bound of the network front door
        (:mod:`repro.net`): while a tenant has this many submissions not
        yet in a terminal state, the server stops reading that tenant's
        socket, so TCP flow control pushes back on the client.
    serving_limit_pushdown:
        Whether streamed plain select-project-join queries with a ``LIMIT``
        stop executing once the limit is reached: the session completes
        early with the first ``LIMIT`` rows in materialization order and
        releases its admission slot.  Disable to always run such queries to
        completion (the canonical row order the result cache stores).
    parallel_workers:
        Skinner-C: number of processes running morsel episodes for one
        query.  ``1`` (the default) keeps everything in-process.  Larger
        values shard the join into morsels executed on a shared worker pool
        with base columns in shared memory; results and meter charges are
        byte-identical for every worker count because the morsel plan
        depends only on the data and the morsel knobs, never on the pool
        size.  See ``docs/parallel.md``.  The config end of the ``workers``
        connection setting (:mod:`repro.api.settings`).
    parallel_morsels:
        Skinner-C: target number of morsels the partition alias (the
        largest filtered table) is split into.  Deliberately *not* derived
        from ``parallel_workers`` so the morsel plan — and therefore rows
        and charges — stays identical across worker counts.
    parallel_min_morsel_rows:
        Skinner-C: minimum filtered rows of the partition alias per morsel;
        queries too small to form at least two morsels of this size run
        single-process.
    data_dir:
        Root directory of durable storage.  ``None`` (the default) keeps
        the historical in-memory catalog; a path selects the
        :class:`~repro.storage.durable.DurableBufferManager` — columns
        persist as memory-mapped files, ``commit()`` survives restart, and
        a reopened connection recovers to the last committed transaction
        (see ``docs/storage.md``).  The config end of the ``data_dir``
        connection setting (:mod:`repro.api.settings`).
    buffer_pool_bytes:
        Byte capacity of the durable backend's page cache — the bound on
        resident (memory-mapped) column arrays; least-recently-used
        columns are evicted beyond it.  Ignored by the in-memory backend,
        which by definition pins everything.
    default_engine:
        Engine used when a query names none explicitly (cursor ``execute``
        without ``engine=``, network submissions without an override).
        The config end of the ``engine`` connection setting
        (:mod:`repro.api.settings`); :func:`repro.api.connect` lower-cases
        it and checks it against the engine registry.
    """

    slice_budget: int = 500
    batch_size: int = 1024
    exploration_weight: float = SKINNER_C_EXPLORATION_WEIGHT
    reward_function: str = "scaled_deltas"
    use_hash_jump: bool = True
    share_progress: bool = True
    use_offsets: bool = True
    batches_per_table: int = 10
    base_timeout: int = 2_000
    order_selection: str = "uct"
    seed: int | None = 42
    serving_max_inflight: int = 4
    serving_quantum_episodes: int = 1
    serving_result_cache_size: int = 64
    serving_warm_start: bool = True
    serving_grant_wall_ms: float = 0.0
    serving_tenant_backlog: int = 8
    serving_limit_pushdown: bool = True
    parallel_workers: int = 1
    parallel_morsels: int = 8
    parallel_min_morsel_rows: int = 64
    data_dir: str | None = None
    buffer_pool_bytes: int = 256 * 2**20
    default_engine: str = "skinner-c"

    def with_overrides(self, **kwargs) -> "SkinnerConfig":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)


DEFAULT_CONFIG = SkinnerConfig()
