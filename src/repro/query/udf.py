"""Registry of user-defined functions (UDFs).

The paper's hardest benchmarks (UDF Torture, TPC-H with UDFs) replace
ordinary predicates with opaque user-defined functions.  A traditional
optimizer cannot estimate their selectivity and falls back to defaults,
while SkinnerDB simply observes execution progress.  UDFs registered here
are callable from SQL (``WHERE my_udf(t.a, s.b)``) and from programmatically
constructed queries.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import CatalogError


@dataclass(frozen=True)
class UdfDefinition:
    """A registered user-defined function.

    Attributes
    ----------
    name:
        Name used to invoke the function from SQL (case-insensitive).
    function:
        The Python callable.  It receives decoded column values (one per
        argument expression) and returns a value; boolean UDF predicates
        should return a truthy/falsy value.
    cost:
        Abstract per-invocation cost in work units.  The cost meter charges
        this amount for every evaluation, letting benchmarks model expensive
        UDFs (external services, crowd workers, ...) without wall-clock time.
    selectivity_hint:
        Selectivity the *traditional* optimizer assumes for this predicate.
        Real systems use a fixed default for black-box predicates; exposing
        it lets the torture benchmarks control how badly the optimizer is
        misled.  Skinner strategies never read it.
    """

    name: str
    function: Callable[..., Any]
    cost: int = 1
    selectivity_hint: float = 0.33


class UdfRegistry:
    """Case-insensitive registry of UDF definitions.

    :attr:`version` counts up on every :meth:`register` and :meth:`restore`:
    what was computed with the registry's functions is stale once it moved.
    """

    def __init__(self) -> None:
        self._udfs: dict[str, UdfDefinition] = {}
        self.version = 0

    def register(
        self,
        name: str,
        function: Callable[..., Any],
        *,
        cost: int = 1,
        selectivity_hint: float = 0.33,
        replace: bool = False,
    ) -> UdfDefinition:
        """Register a function under ``name`` and return its definition."""
        key = name.lower()
        if key in self._udfs and not replace:
            raise CatalogError(f"UDF {name!r} already registered")
        definition = UdfDefinition(key, function, cost, selectivity_hint)
        self._udfs[key] = definition
        self.version += 1
        return definition

    def get(self, name: str) -> UdfDefinition:
        """Look up a UDF by name (case-insensitive)."""
        try:
            return self._udfs[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"UDF {name!r} is not registered") from exc

    def has(self, name: str) -> bool:
        """Whether a UDF with this name exists."""
        return name.lower() in self._udfs

    def names(self) -> list[str]:
        """All registered UDF names."""
        return list(self._udfs)

    def __len__(self) -> int:
        return len(self._udfs)

    # ------------------------------------------------------------------
    # snapshots (schema transactions)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, UdfDefinition]:
        """A restorable snapshot (definitions are frozen, copy is shallow)."""
        return dict(self._udfs)

    def restore(self, snapshot: dict[str, UdfDefinition]) -> None:
        """Reset the registry to a previously taken :meth:`snapshot`."""
        self._udfs = dict(snapshot)
        self.version += 1
