"""Span recorder and the timing shims of the traced run.

Spans are kept in memory as lists
``[id, parent, name, start_ns, end_ns, statement_id, value, thread]`` and
written out by the runner when the run ends.  ``parent`` is the enclosing
span *on the same thread* (``-1`` at the top of a thread), ``statement_id``
is the benchmark statement in flight when the span opened (negative outside
timed statements), ``value`` is a count the shim read off the call's
result — bytes for a frame, rows for a fetch, 1/0 for a batch that
completed or was aborted — and ``thread`` numbers the recording threads.

The shims wrap each layer's public entry points from outside — nothing
under ``src/`` knows it is being timed.  A module-level function is patched
on every loaded ``repro.*`` module whose namespace holds the same object,
because ``from x import f`` binds a copy — so every ``repro`` module is
imported before patching, or one loaded later would copy a shim and keep
it.  :meth:`Shims.remove` puts every original object back and
:func:`leftovers` proves it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import sys
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any

#: (span name, "module" or "module:Class", attribute, value reader or None).
#: The span name's prefix is the layer the time is booked to.
_rows = len
_completed = lambda outcome: int(outcome.completed)  # noqa: E731
_truth = int

SHIM_TARGETS: tuple[tuple[str, str, str, Callable[[Any], int] | None], ...] = (
    ("api.execute", "repro.api.cursor:Cursor", "execute", None),
    ("api.fetchmany", "repro.api.cursor:Cursor", "fetchmany", _rows),
    ("api.fetchall", "repro.api.cursor:Cursor", "fetchall", _rows),
    ("query.parse", "repro.query.parser", "parse_query", None),
    ("optimizer.stats_collect", "repro.optimizer.statistics:StatisticsCatalog", "collect", None),
    ("optimizer.dp_optimize", "repro.optimizer.dp_optimizer:DynamicProgrammingOptimizer",
     "optimize", None),
    ("serving.submit", "repro.serving.server:QueryServer", "submit", None),
    ("serving.step", "repro.serving.server:QueryServer", "step", _truth),
    ("skinner.preprocess", "repro.skinner.preprocessor", "preprocess", None),
    ("skinner.join", "repro.skinner.multiway_join:MultiwayJoin", "continue_join", None),
    ("uct.choose", "repro.uct.tree:UctJoinTree", "choose_order", None),
    ("uct.update", "repro.uct.tree:UctJoinTree", "update", None),
    ("engine.execute_order", "repro.engine.executor:PlanExecutor", "execute_order", None),
    ("engine.encode_keys", "repro.engine.joinkernels", "encode_composite_keys", None),
    ("engine.postprocess", "repro.engine.postprocess", "post_process", None),
    ("external.mirror", "repro.external.sqlite_adapter:SqliteAdapter", "mirror", None),
    ("external.run_batch", "repro.external.sqlite_adapter:SqliteAdapter", "run_batch",
     _completed),
    ("net.encode", "repro.net.protocol", "encode_frame", _rows),
    ("net.decode", "repro.net.protocol", "decode_payload", None),
    ("net.result_to_wire", "repro.net.protocol", "result_to_wire", None),
    ("net.result_from_wire", "repro.net.protocol", "result_from_wire", None),
    ("storage.add_table", "repro.api.connection:Connection", "add_table", None),
    ("storage.commit", "repro.api.connection:Connection", "commit", None),
    ("storage.fsync", "os", "fsync", None),
    ("docstore.shred", "repro.docstore.shred", "shred_nodes", None),
)

SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "statement_id", "value", "thread")
ID, PARENT, NAME, START, END, STATEMENT, VALUE, THREAD = range(len(SPAN_FIELDS))


class Tracer:
    """Collects spans from any thread; cheap enough for per-slice calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Statement the benchmark client has in flight (-1: set-up).
        self.statement_id = -1
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()

    def open(self, name: str) -> list:
        """Start a span; pair with :meth:`close`."""
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
            local.thread = next(self._threads)
        span = [next(self._ids), stack[-1] if stack else -1, name,
                time.perf_counter_ns(), 0, self.statement_id, 0, local.thread]
        stack.append(span[ID])
        self.spans.append(span)
        return span

    def close(self, span: list, value: int = 0) -> None:
        span[END] = time.perf_counter_ns()
        span[VALUE] = value
        self._local.stack.pop()

    def wrap(self, name: str, function: Callable, read_value: Callable[[Any], int] | None):
        """``function`` timed as a span called ``name``."""
        tracer_open, tracer_close = self.open, self.close

        @functools.wraps(function)
        def shim(*args, **kwargs):
            span = tracer_open(name)
            value = 0
            try:
                result = function(*args, **kwargs)
                if read_value is not None:
                    value = read_value(result)
                return result
            finally:
                tracer_close(span, value)

        shim.e2e_span = name
        return shim


class Shims:
    """Installs :data:`SHIM_TARGETS` around a tracer and removes them again."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        #: (namespace object, attribute, original raw attribute) per patch.
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        _import_all_of_repro()
        for name, owner_path, attribute, read_value in SHIM_TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                self._patch_method(getattr(module, class_name), attribute, name, read_value)
            else:
                self._patch_function(module, attribute, name, read_value)

    def _patch_method(self, owner: type, attribute: str, name: str, read_value) -> None:
        raw = owner.__dict__[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            shim = type(raw)(self._tracer.wrap(name, raw.__func__, read_value))
        else:
            shim = self._tracer.wrap(name, raw, read_value)
        self._set(owner, attribute, raw, shim)

    def _patch_function(self, module, attribute: str, name: str, read_value) -> None:
        original = getattr(module, attribute)
        shim = self._tracer.wrap(name, original, read_value)
        for holder in _namespaces_holding(original, module):
            for key, held in list(vars(holder).items()):
                if held is original:
                    self._set(holder, key, original, shim)

    def _set(self, namespace: Any, attribute: str, original: Any, shim: Any) -> None:
        setattr(namespace, attribute, shim)
        self._patched.append((namespace, attribute, original))

    def remove(self) -> None:
        """Restore every patched attribute to the object it held before."""
        while self._patched:
            namespace, attribute, original = self._patched.pop()
            setattr(namespace, attribute, original)


def _namespaces_holding(function: Callable, home) -> Iterable[Any]:
    """``home`` plus every loaded ``repro.*`` module bound to ``function``."""
    seen = {id(home)}
    yield home
    for module_name, module in list(sys.modules.items()):
        if module is None or id(module) in seen:
            continue
        if module_name == "repro" or module_name.startswith("repro."):
            if any(held is function for held in vars(module).values()):
                seen.add(id(module))
                yield module


def _import_all_of_repro() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def leftovers() -> list[str]:
    """Where a shim is still bound (empty once :meth:`Shims.remove` ran)."""
    holders = [module for name, module in list(sys.modules.items())
               if module is not None and name.split(".")[0] in ("repro", "os")]
    for _, owner_path, _, _ in SHIM_TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        if class_name:
            holders.append(getattr(importlib.import_module(module_name), class_name))
    return sorted({
        f"{holder.__name__}.{key}" for holder in holders
        for key, held in list(vars(holder).items())
        if hasattr(getattr(held, "__func__", held), "e2e_span")})
