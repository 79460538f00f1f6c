"""Scalar expressions appearing in select lists and predicates.

Expressions are deliberately small: column references, literals, and
function calls (arithmetic shows up in TPC-H style aggregates and is modelled
with the built-in functions ``add``, ``sub``, ``mul``).  Every expression can
report the set of table aliases it references; the engines evaluate
expressions over column arrays (:mod:`repro.engine.vectorized`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class Expression:
    """Base class for scalar expressions."""

    def tables(self) -> frozenset[str]:
        """Aliases of all tables referenced by this expression."""
        raise NotImplementedError

    def columns(self) -> list["ColumnRef"]:
        """All column references appearing in this expression."""
        raise NotImplementedError

    def display(self) -> str:
        """SQL-ish rendering used in plans and reports."""
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to ``alias.column``."""

    table: str
    column: str

    def tables(self) -> frozenset[str]:
        return frozenset({self.table})

    def columns(self) -> list["ColumnRef"]:
        return [self]

    def display(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def tables(self) -> frozenset[str]:
        return frozenset()

    def columns(self) -> list[ColumnRef]:
        return []

    def display(self) -> str:
        # Embedded quotes are doubled (the SQL escape the tokenizer
        # understands), so the rendering is unambiguous: a bound string
        # containing quote/SQL text can never render identically to a
        # structurally different query.  The serving-layer result cache
        # fingerprints queries through this rendering, so ambiguity here
        # would mean silently serving another query's cached rows.
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


_BUILTIN_FUNCTIONS = frozenset({"add", "sub", "mul", "div", "abs", "mod"})


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call to a built-in function or a registered UDF."""

    name: str
    args: tuple[Expression, ...] = field(default_factory=tuple)

    def tables(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for arg in self.args:
            result = result | arg.tables()
        return result

    def columns(self) -> list[ColumnRef]:
        refs: list[ColumnRef] = []
        for arg in self.args:
            refs.extend(arg.columns())
        return refs

    def is_builtin(self) -> bool:
        """Whether this call resolves to a built-in arithmetic function."""
        return self.name.lower() in _BUILTIN_FUNCTIONS

    def display(self) -> str:
        rendered = ", ".join(arg.display() for arg in self.args)
        return f"{self.name}({rendered})"


@dataclass(frozen=True)
class Star(Expression):
    """``*`` in ``COUNT(*)``: an aggregate's argument only, never a predicate's."""

    def display(self) -> str:
        return "*"
