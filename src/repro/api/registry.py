"""The engine registry: one pluggable dispatch point for every engine.

A single :class:`EngineRegistry` owns the mapping from engine names to
:class:`EngineSpec` entries; ``Connection.execute``, ``execute_direct``,
cursors, and the :class:`~repro.serving.server.QueryServer` all resolve
engines here, and third-party code extends the set with
:func:`register_engine` without touching the library:

>>> from repro.api import EngineSpec, register_engine
>>> register_engine(EngineSpec("my-engine", factory=lambda ctx: MyEngine(ctx)))

A factory receives an :class:`EngineContext` (catalog, UDFs, config,
profile, and a lazy statistics provider) and returns
an engine object with an ``execute(query) -> QueryResult`` method.  The
capability flags on the spec describe what else the engine supports:
``episodic`` engines expose ``task(query)`` returning a resumable episode
task the server can interleave; ``streamable`` engines produce tasks whose
result batches can be drained before completion; ``supports_forced_order``
engines accept ``execute(query, forced_order=...)``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.baselines.eddy import EddyEngine
from repro.baselines.reoptimizer import ReOptimizerEngine
from repro.baselines.traditional import TraditionalEngine
from repro.config import SkinnerConfig
from repro.engine.task import validate_task_contract
from repro.errors import InterfaceError, ReproError
from repro.external.engines import sqlite_skinner_g_factory, sqlite_skinner_h_factory
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryResult
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask
from repro.skinner.skinner_g import SkinnerG, SkinnerGTask
from repro.skinner.skinner_h import SkinnerH, SkinnerHTask
from repro.storage.catalog import Catalog


@dataclass
class EngineContext:
    """Everything an engine factory may need to build an engine instance.

    Statistics are exposed as a method rather than a value so that engines
    that do not need them (the Skinner strategies famously "maintain no
    data statistics") never pay for collection.
    """

    catalog: Catalog
    udfs: UdfRegistry | None
    config: SkinnerConfig
    profile: str = "postgres"
    statistics_provider: Callable[[], Any] | None = None
    _statistics: Any = field(default=None, repr=False)

    def statistics(self) -> Any:
        """Collect (or return cached) optimizer statistics."""
        if self._statistics is None:
            if self.statistics_provider is not None:
                self._statistics = self.statistics_provider()
            else:
                from repro.optimizer.statistics import StatisticsCatalog

                self._statistics = StatisticsCatalog.collect(self.catalog)
        return self._statistics


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: its name, factory, and capabilities.

    Attributes
    ----------
    name:
        Engine name as referenced by ``engine=`` arguments (lower-case).
    factory:
        ``factory(context) -> engine`` where the engine has at least an
        ``execute(query) -> QueryResult`` method.
    supports_forced_order:
        Whether ``execute(query, forced_order=...)`` is accepted (the
        traditional optimizer baseline).
    streamable:
        Whether the engine's episode tasks support incremental result
        delivery (``enable_streaming()`` / ``drain_new_tuples()``), so a
        cursor can fetch result batches before the query completes.
    episodic:
        Whether the engine exposes ``task(query)`` returning a resumable
        episode task; non-episodic engines run through the server as one
        monolithic episode.
    warm_startable:
        Whether ``task(query, order_prior=...)`` accepts join-order priors
        from the cross-query join-order cache.
    parallelizable:
        Whether the engine can execute one query over several worker
        processes when ``config.parallel_workers > 1`` — its task class is
        a valid worker-side morsel executor (``parallel_capable``).
    task_class:
        The :class:`~repro.engine.task.EngineTask` implementation behind
        ``task(query)``.  Optional for plain episodic engines, but required
        to *declare* ``streamable`` or ``parallelizable``: registration
        validates the class against the declared capabilities (see
        :func:`~repro.engine.task.validate_task_contract`), so a spec whose
        capabilities its task cannot honor is rejected at registration
        time, not mid-query.
    """

    name: str
    factory: Callable[[EngineContext], Any]
    supports_forced_order: bool = False
    streamable: bool = False
    episodic: bool = False
    warm_startable: bool = False
    parallelizable: bool = False
    task_class: type | None = None

    def build(self, context: EngineContext) -> Any:
        """Instantiate the engine for one execution context."""
        return self.factory(context)

    def execute(
        self,
        context: EngineContext,
        query: Query,
        *,
        forced_order: Sequence[str] | None = None,
    ) -> QueryResult:
        """Build the engine and execute ``query`` directly (no serving layer)."""
        self.check_forced_order(forced_order)
        engine = self.build(context)
        if forced_order is not None:
            return engine.execute(query, forced_order=forced_order)
        return engine.execute(query)

    def create_task(
        self,
        context: EngineContext,
        query: Query,
        *,
        forced_order: Sequence[str] | None = None,
        order_prior: Sequence[tuple[tuple[str, ...], float, int]] | None = None,
    ) -> Any:
        """Build the episode task the server schedules for ``query``.

        Episodic engines return their native resumable task; all other
        engines are wrapped in a
        :class:`~repro.serving.session.MonolithicTask` running the whole
        query as one (unbounded) episode.
        """
        self.check_forced_order(forced_order)
        engine = self.build(context)
        if self.episodic:
            if self.warm_startable and order_prior:
                return engine.task(query, order_prior=order_prior)
            return engine.task(query)
        from repro.serving.session import MonolithicTask

        if forced_order is not None:
            return MonolithicTask(lambda: engine.execute(query, forced_order=forced_order))
        return MonolithicTask(lambda: engine.execute(query))

    def check_forced_order(self, forced_order: Sequence[str] | None) -> None:
        """Reject ``forced_order`` on engines that cannot honor it."""
        if forced_order is not None and not self.supports_forced_order:
            raise ReproError(
                f"forced_order is not supported by engine {self.name!r}"
            )


class EngineRegistry:
    """Name-to-spec mapping shared by connections, cursors, and the server."""

    def __init__(self) -> None:
        self._specs: dict[str, EngineSpec] = {}

    def register(self, spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
        """Register an engine spec; raises if the name exists unless ``replace``.

        Specs that ship a ``task_class`` (or declare task-level
        capabilities) are validated against the
        :class:`~repro.engine.task.EngineTask` contract here, so capability
        lies surface at registration time.
        """
        name = spec.name.lower()
        if name != spec.name:
            spec = dataclasses.replace(spec, name=name)
        validate_task_contract(
            name,
            spec.task_class,
            episodic=spec.episodic,
            streamable=spec.streamable,
            parallelizable=spec.parallelizable,
        )
        if name in self._specs and not replace:
            raise ReproError(f"engine {name!r} is already registered")
        self._specs[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove an engine from the registry."""
        self._specs.pop(name.lower(), None)

    def resolve(self, name: str) -> EngineSpec:
        """The spec for an engine name — the *single* unknown-engine error site.

        Every execution path (``Connection.execute``, ``execute_direct``,
        ``QueryServer.submit``, ``Connection.cursor()``), ``connect()`` and
        the server handshake validate engine names here, so the error
        cannot drift between paths.
        """
        spec = self._specs.get(name.lower())
        if spec is None:
            raise InterfaceError(
                f"unknown engine {name!r}; registered engines: "
                f"{', '.join(self.names())}"
            )
        return spec

    def names(self) -> tuple[str, ...]:
        """Registered engine names in registration order."""
        return tuple(self._specs)

    def specs(self) -> tuple[EngineSpec, ...]:
        """All registered specs in registration order."""
        return tuple(self._specs.values())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


class RegistryNames(Sequence):
    """A live, tuple-like view of a registry's engine names.

    ``repro.ENGINE_NAMES`` and ``repro.serving.SERVABLE_ENGINES`` are
    instances of this view over the default registry, so engines added via
    :func:`register_engine` appear in both without any recomputation —
    the two historical constants can no longer drift apart.
    """

    def __init__(self, registry: EngineRegistry) -> None:
        self._registry = registry

    def __getitem__(self, index):
        return self._registry.names()[index]

    def __len__(self) -> int:
        return len(self._registry)

    def __contains__(self, name: object) -> bool:
        return name in self._registry

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.names())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, list, RegistryNames)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - view identity only
        return id(self)

    def __repr__(self) -> str:
        return repr(self._registry.names())


# ----------------------------------------------------------------------
# built-in engines
# ----------------------------------------------------------------------
def _skinner_c(context: EngineContext) -> SkinnerC:
    return SkinnerC(context.catalog, context.udfs, context.config)


def _skinner_g(context: EngineContext) -> SkinnerG:
    return SkinnerG(context.catalog, context.udfs, context.config,
                    dbms_profile=context.profile)


def _skinner_h(context: EngineContext) -> SkinnerH:
    return SkinnerH(context.catalog, context.udfs, context.config,
                    dbms_profile=context.profile,
                    statistics=context.statistics())


def _traditional(context: EngineContext) -> TraditionalEngine:
    return TraditionalEngine(context.catalog, context.udfs,
                             statistics=context.statistics(),
                             profile=context.profile)


def _eddy(context: EngineContext) -> EddyEngine:
    return EddyEngine(context.catalog, context.udfs)


def _reoptimizer(context: EngineContext) -> ReOptimizerEngine:
    return ReOptimizerEngine(context.catalog, context.udfs,
                             statistics=context.statistics())


BUILTIN_SPECS = (
    EngineSpec("skinner-c", _skinner_c, episodic=True, streamable=True,
               warm_startable=True, parallelizable=True,
               task_class=SkinnerCTask),
    EngineSpec("skinner-g", _skinner_g, episodic=True,
               task_class=SkinnerGTask),
    EngineSpec("skinner-h", _skinner_h, episodic=True,
               task_class=SkinnerHTask),
    EngineSpec("traditional", _traditional, supports_forced_order=True),
    EngineSpec("eddy", _eddy),
    EngineSpec("reoptimizer", _reoptimizer),
    # Skinner-G/H over a real host DBMS (the paper's actual deployment):
    # batches run as order-forcing SQL on a per-catalog sqlite mirror, with
    # automatic fallback to the internal executor for queries the dialect
    # cannot replicate (see repro.external).
    EngineSpec("skinner_g_sqlite", sqlite_skinner_g_factory, episodic=True,
               task_class=SkinnerGTask),
    EngineSpec("skinner_h_sqlite", sqlite_skinner_h_factory, episodic=True,
               task_class=SkinnerHTask),
)

#: The process-wide default registry with the built-in engines.
DEFAULT_REGISTRY = EngineRegistry()
for _spec in BUILTIN_SPECS:
    DEFAULT_REGISTRY.register(_spec)

#: Engines selectable by name (``repro.ENGINE_NAMES``) — a live view of the
#: default registry, identical to the serving layer's ``SERVABLE_ENGINES``.
ENGINE_NAMES = RegistryNames(DEFAULT_REGISTRY)


def register_engine(
    spec: EngineSpec | None = None,
    *,
    name: str | None = None,
    factory: Callable[[EngineContext], Any] | None = None,
    replace: bool = False,
    registry: EngineRegistry | None = None,
    **capabilities: bool,
) -> EngineSpec:
    """Register an engine with the default (or a given) registry.

    Accepts either a prebuilt :class:`EngineSpec`, or ``name``/``factory``
    plus capability keyword flags::

        register_engine(name="my-engine", factory=lambda ctx: MyEngine(ctx))

    Registered engines are immediately selectable via ``engine="my-engine"``
    in ``Connection.execute``, ``Connection.cursor().execute``, and
    ``QueryServer.submit``.
    """
    registry = registry if registry is not None else DEFAULT_REGISTRY
    if spec is None:
        if name is None or factory is None:
            raise ReproError("register_engine needs an EngineSpec or name+factory")
        spec = EngineSpec(name=name, factory=factory, **capabilities)
    return registry.register(spec, replace=replace)


def engine_names(registry: EngineRegistry | None = None) -> tuple[str, ...]:
    """Names of all engines in the default (or a given) registry."""
    return (registry if registry is not None else DEFAULT_REGISTRY).names()
