"""The engine registry: one pluggable dispatch point for every engine.

A single :class:`EngineRegistry` owns the mapping from engine names to
:class:`EngineSpec` entries; ``Connection.execute``, ``execute_direct``,
cursors, and the :class:`~repro.serving.server.QueryServer` all resolve
engines here, and third-party code extends the set with
:func:`register_engine` without touching the library:

>>> from repro.api import EngineSpec, register_engine
>>> register_engine(EngineSpec("my-engine", MyEngine, task_class=MyTask))

A factory receives an :class:`EngineContext` (catalog, UDFs, config and
lazily collected statistics) and returns an engine object whose
``task(query)`` returns a resumable task; the spec names that task's
``task_class`` — a concrete :class:`~repro.engine.task.EngineTask`
subclass — and what else the engine's tasks can do (stream, warm-start) is
read off that class.  Every engine is episodic: the server interleaves its
tasks, and ``execute_direct`` drives one to completion.
"""

from __future__ import annotations

import dataclasses
import inspect
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.baselines.traditional import TraditionalEngine, TraditionalTask
from repro.config import SkinnerConfig
from repro.engine.task import EngineTask, OrderPrior, run_to_completion
from repro.errors import InterfaceError, ReproError
from repro.external.engines import SQLITE_ENGINES
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryResult
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask
from repro.skinner.skinner_g import SkinnerG, SkinnerGTask
from repro.skinner.skinner_h import SkinnerH, SkinnerHTask
from repro.storage.catalog import Catalog


@dataclass
class EngineContext:
    """Everything an engine factory may need to build an engine instance."""

    catalog: Catalog
    udfs: UdfRegistry | None
    config: SkinnerConfig

    def statistics(self) -> StatisticsCatalog:
        """The catalog's optimizer statistics (collected on first use)."""
        return StatisticsCatalog.of(self.catalog)


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: its name, factory, and task class.

    Attributes
    ----------
    name:
        Engine name as referenced by ``engine=`` arguments (lower-case).
    factory:
        ``factory(context) -> engine`` where the engine has a
        ``task(query) -> EngineTask`` method.
    task_class:
        The concrete :class:`~repro.engine.task.EngineTask` subclass behind
        the engine's ``task(query)``, required, and the one rule
        registration checks.  Its ``streamable`` and ``warm_startable``
        attributes say whether result batches can be fetched before
        completion and whether ``task(query, order_prior=...)`` accepts
        join-order priors.
    """

    name: str
    factory: Callable[[EngineContext], Any]
    task_class: type[EngineTask]

    def execute(self, context: EngineContext, query: Query) -> QueryResult:
        """Build the engine and run ``query``'s task to completion (no
        serving layer)."""
        return run_to_completion(self.create_task(context, query))

    def create_task(
        self,
        context: EngineContext,
        query: Query,
        *,
        order_prior: Sequence[OrderPrior] = (),
    ) -> EngineTask:
        """Build the episode task the server schedules for ``query``."""
        engine = self.factory(context)
        if self.task_class.warm_startable and order_prior:
            return engine.task(query, order_prior=order_prior)
        return engine.task(query)


class EngineRegistry:
    """Name-to-spec mapping shared by connections, cursors, and the server."""

    def __init__(self) -> None:
        self._specs: dict[str, EngineSpec] = {}

    def register(self, spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
        """Register an engine spec; raises if the name exists unless ``replace``.

        The ``task_class`` must be a concrete
        :class:`~repro.engine.task.EngineTask` subclass — an engine the
        server could not drive episode by episode is refused here, not
        mid-query.
        """
        name = spec.name.lower()
        if name != spec.name:
            spec = dataclasses.replace(spec, name=name)
        task_class = spec.task_class
        if not (
            isinstance(task_class, type)
            and issubclass(task_class, EngineTask)
            and not inspect.isabstract(task_class)
        ):
            raise ReproError(
                f"engine {name!r}: task_class must be a concrete EngineTask "
                f"subclass, got {task_class!r}"
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

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


class RegistryNames(Sequence):
    """A live, tuple-like view of a registry's engine names.

    ``repro.ENGINE_NAMES`` is this view over the default registry, so
    engines added via :func:`register_engine` appear in it without any
    recomputation.
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
def _skinner(engine_class: type) -> Callable[[EngineContext], Any]:
    return lambda context: engine_class(context.catalog, context.udfs, context.config)


BUILTIN_SPECS = (
    EngineSpec("skinner-c", _skinner(SkinnerC), task_class=SkinnerCTask),
    EngineSpec("skinner-g", _skinner(SkinnerG), task_class=SkinnerGTask),
    EngineSpec("skinner-h", _skinner(SkinnerH), task_class=SkinnerHTask),
    EngineSpec("traditional", lambda context: TraditionalEngine(context.catalog, context.udfs),
               task_class=TraditionalTask),
    # Skinner-G/H over a real host DBMS (the paper's actual deployment):
    # batches run as order-forcing SQL on a per-catalog sqlite mirror, with
    # automatic fallback to the internal executor for queries the dialect
    # cannot replicate (see repro.external).
    *(EngineSpec(name, factory, task_class=task_class)
      for name, factory, task_class in SQLITE_ENGINES),
)

#: The process-wide default registry with the built-in engines.
DEFAULT_REGISTRY = EngineRegistry()
for _spec in BUILTIN_SPECS:
    DEFAULT_REGISTRY.register(_spec)

#: Engines selectable by name (``repro.ENGINE_NAMES``) — a live view of the
#: default registry.
ENGINE_NAMES = RegistryNames(DEFAULT_REGISTRY)


def register_engine(
    spec: EngineSpec | None = None,
    *,
    name: str | None = None,
    factory: Callable[[EngineContext], Any] | None = None,
    replace: bool = False,
    registry: EngineRegistry | None = None,
    **fields: Any,
) -> EngineSpec:
    """Register an engine with the default (or a given) registry.

    Accepts either a prebuilt :class:`EngineSpec`, or ``name``/``factory``
    plus the spec's other fields as keywords::

        register_engine(name="my-engine", factory=MyEngine, task_class=MyTask)

    Registered engines are immediately selectable via ``engine="my-engine"``
    in ``Connection.execute``, ``Connection.cursor().execute``, and
    ``QueryServer.submit``.
    """
    registry = registry if registry is not None else DEFAULT_REGISTRY
    if spec is None:
        if name is None or factory is None:
            raise ReproError("register_engine needs an EngineSpec or name+factory")
        spec = EngineSpec(name=name, factory=factory,
                          task_class=fields.pop("task_class", None), **fields)
    return registry.register(spec, replace=replace)
