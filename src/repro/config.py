"""Configuration objects for the Skinner execution strategies."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SkinnerConfig:
    """The knobs a caller sets: budgets, deployment, seed.

    The defaults follow the paper's experimental setup (§6.1): Skinner-C uses
    a base time-slice budget of 500 multi-way-join loop iterations;
    Skinner-G/H use much larger per-batch budgets.  Everything with one
    value in use is a constant beside its reader, not a field here, and the
    ablations of the paper's Tables 5 and 6 (random join-order selection,
    no join indexes) are engine variants of the benchmark harness
    (``benchmarks/paper/ablations.py``), not ways to run the product.

    Attributes
    ----------
    slice_budget:
        Skinner-C: the *base* budget of a time slice, in multi-way join loop
        iterations (the paper's ``b``).  The first slice of every join order
        gets exactly this; later slices of the same order get a growing
        multiple of it (``docs/engines.md``, "Slice budget schedule").
    batches_per_table:
        Skinner-G: number of batches each table is divided into.
    base_timeout:
        Skinner-G/H: work-unit budget of timeout level 0 (the paper's
        smallest timeout).
    seed:
        Seed for the pseudo-random choices of the UCT trees.
    serving_max_inflight:
        :class:`~repro.serving.server.QueryServer`: maximum number of
        queries executing concurrently (episode-interleaved); submissions
        beyond the bound wait in the admission queue.
    serving_warm_start:
        Whether new Skinner-C queries seed their UCT tree from join orders
        learned by earlier queries on the same join graph.
    parallel_workers:
        Skinner-C: number of processes running morsel episodes for one
        query.  ``1`` (the default) keeps everything in-process.  Larger
        values shard the join into morsels executed on a shared pool of
        worker processes, each morsel's tables pickled into its payload;
        results and meter charges are byte-identical for every worker
        count because the morsel plan depends only on the data, never on
        the pool size; a dead worker sends the rest inline.  See
        ``docs/parallel.md``.  The config end of the ``workers`` connection
        setting (:mod:`repro.api.settings`).
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
    batches_per_table: int = 10
    base_timeout: int = 2_000
    seed: int | None = 42
    serving_max_inflight: int = 4
    serving_warm_start: bool = True
    parallel_workers: int = 1
    data_dir: str | None = None
    buffer_pool_bytes: int = 256 * 2**20
    default_engine: str = "skinner-c"

    def with_overrides(self, **kwargs) -> "SkinnerConfig":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)


DEFAULT_CONFIG = SkinnerConfig()
