"""The query object: SPJ core plus aggregation / grouping / ordering.

A :class:`Query` is what every engine in the repository consumes.  The join
phase only looks at ``tables`` and ``predicates``; the select list, grouping,
ordering, and limit are applied by the post-processor after the join result
(a set of tuple-index vectors) is complete, exactly as described in paper §3.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.errors import PlanningError
from repro.query.expressions import ColumnRef, Expression
from repro.query.join_graph import JoinGraph
from repro.query.predicates import Predicate, literal_types

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """An aggregate over an expression, e.g. ``SUM(l.price)``."""

    function: str
    argument: Expression

    def __post_init__(self) -> None:
        if self.function.lower() not in AGGREGATE_FUNCTIONS:
            raise PlanningError(f"unknown aggregate function {self.function!r}")

    def display(self) -> str:
        """SQL-ish rendering."""
        return f"{self.function.upper()}({self.argument.display()})"


@dataclass(frozen=True)
class SelectItem:
    """One item of the select list: a plain expression or an aggregate."""

    expression: Expression | None = None
    aggregate: AggregateSpec | None = None
    alias: str | None = None

    def __post_init__(self) -> None:
        if (self.expression is None) == (self.aggregate is None):
            raise PlanningError("select item must be exactly one of expression or aggregate")

    @property
    def is_aggregate(self) -> bool:
        """Whether this item is an aggregate."""
        return self.aggregate is not None

    def output_name(self, position: int) -> str:
        """This item's own name; :meth:`Query.output_names` makes a repeat
        unique."""
        if self.alias:
            return self.alias
        if self.aggregate is not None:
            return self.aggregate.display().lower().replace(".", "_")
        assert self.expression is not None
        if isinstance(self.expression, ColumnRef):
            return self.expression.column
        return f"col_{position}"

    def display(self) -> str:
        """SQL-ish rendering."""
        body = self.aggregate.display() if self.aggregate else self.expression.display()
        return f"{body} AS {self.alias}" if self.alias else body


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY item."""

    expression: Expression
    ascending: bool = True

    def display(self) -> str:
        """SQL-ish rendering."""
        return f"{self.expression.display()} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class Query:
    """A select-project-join query with optional post-processing steps.

    Attributes
    ----------
    tables:
        Ordered mapping from alias to base table name, given as a tuple of
        ``(alias, table_name)`` pairs.  The alias is what predicates and the
        select list refer to; the same base table may appear several times
        under different aliases (self joins).
    predicates:
        Conjunctive WHERE clause.
    select_items:
        Output expressions / aggregates.  Empty means ``SELECT *`` over all
        columns of all tables.
    group_by:
        Grouping expressions.
    order_by:
        Ordering specification applied after grouping/aggregation.
    limit:
        Optional row limit applied last.
    distinct:
        Whether duplicate output rows are removed.
    """

    tables: tuple[tuple[str, str], ...]
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)
    select_items: tuple[SelectItem, ...] = field(default_factory=tuple)
    group_by: tuple[Expression, ...] = field(default_factory=tuple)
    order_by: tuple[OrderItem, ...] = field(default_factory=tuple)
    limit: int | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if not self.tables:
            raise PlanningError("query must reference at least one table")
        aliases = [alias for alias, _ in self.tables]
        if len(set(aliases)) != len(aliases):
            raise PlanningError(f"duplicate table aliases in {aliases}")
        known = set(aliases)
        for predicate in self.predicates:
            unknown = predicate.tables() - known
            if unknown:
                raise PlanningError(
                    f"predicate {predicate.display()} references unknown aliases {sorted(unknown)}"
                )

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    @property
    def aliases(self) -> list[str]:
        """Table aliases in declaration order."""
        return [alias for alias, _ in self.tables]

    @cached_property
    def num_tables(self) -> int:
        """Number of joined tables."""
        return len(self.tables)

    def base_table(self, alias: str) -> str:
        """Base table name for an alias."""
        for a, name in self.tables:
            if a == alias:
                return name
        raise PlanningError(f"unknown alias {alias!r}")

    def unary_predicates(self, alias: str | None = None) -> list[Predicate]:
        """Unary predicates, optionally restricted to one alias."""
        if alias is not None:
            return list(self._unary_by_alias.get(alias, ()))
        return [p for p in self.predicates if p.is_unary]

    @cached_property
    def _unary_by_alias(self) -> dict[str, tuple[Predicate, ...]]:
        # Sorted once per query: a parsed statement is pre-processed again
        # every time it is executed.
        grouped: dict[str, list[Predicate]] = {}
        for predicate in self.predicates:
            if predicate.is_unary:
                (alias,) = predicate.tables()
                grouped.setdefault(alias, []).append(predicate)
        return {alias: tuple(predicates) for alias, predicates in grouped.items()}

    def join_predicates(self) -> list[Predicate]:
        """All predicates referencing two or more tables."""
        return [p for p in self.predicates if p.is_join]

    def equi_join_predicates(self) -> list[Predicate]:
        """Join predicates of the form ``a.x = b.y``."""
        return [p for p in self.predicates if p.is_equi_join]

    def has_udf_predicates(self) -> bool:
        """Whether any predicate involves a registered UDF."""
        return self._has_udf_predicates

    @cached_property
    def _has_udf_predicates(self) -> bool:
        return any(p.uses_udf for p in self.predicates)

    @cached_property
    def prepared_key(self) -> tuple:
        """``("prepared", tables, predicates, the types of their literals)``:
        all that pre-processing reads of the statement, as the statement
        cache's key, hashed once — a cached parse is pre-processed on every
        execution.  Raises ``TypeError`` for an unhashable literal."""
        return _HashedTuple(
            ("prepared", self.tables, self.predicates, literal_types(self.predicates))
        )

    def join_graph(self) -> JoinGraph:
        """The join graph over this query's aliases, built once per query."""
        return self._join_graph

    @cached_property
    def _join_graph(self) -> JoinGraph:
        # One graph, so every tree and optimizer of the query shares its
        # memo of eligible extensions.
        return JoinGraph(self.aliases, self.join_predicates())

    # ------------------------------------------------------------------
    # post-processing structure
    # ------------------------------------------------------------------
    @cached_property
    def has_aggregates(self) -> bool:
        """Whether the select list contains aggregates."""
        return any(item.is_aggregate for item in self.select_items)

    @cached_property
    def blocking(self) -> bool:
        """Whether the output depends on the complete join result:
        aggregation, GROUP BY, ORDER BY or DISTINCT.  Otherwise every output
        row projects one joined row, and a ``LIMIT`` only cuts them."""
        return bool(self.has_aggregates or self.group_by or self.order_by or self.distinct)

    def output_names(self, catalog: Any = None) -> list[str]:
        """Result-column names, computable *before* execution: the one place
        result columns are named (post-processing, cursor ``description``,
        stream-buffer schemas and the wire's ``columns`` all read it).

        An explicit select list names its items via
        :meth:`SelectItem.output_name`; ``SELECT *`` expands to
        ``alias_column`` per table (:meth:`star_names`), which needs a
        catalog to look the columns up (without one, the expansion of ``*``
        is unknown and an empty list is returned).  A name that repeats an
        earlier one gets ``_<position>`` appended until it is unique —
        ``SELECT a.id, b.id`` names ``id`` and ``id_1`` — so every item
        keeps its column.
        """
        if self.select_items:
            return list(self._item_names)
        if catalog is None or not all(catalog.has_table(name) for _, name in self.tables):
            return []
        return self.star_names({alias: catalog.table(name) for alias, name in self.tables})

    @cached_property
    def _item_names(self) -> tuple[str, ...]:
        # Named once: a cached parse is named on every submit and post-process.
        return tuple(_unique([item.output_name(i) for i, item in enumerate(self.select_items)]))

    @cached_property
    def read_tables(self) -> tuple[str, ...]:
        """The catalog tables the query reads, each once, in FROM order."""
        return tuple(dict.fromkeys(name for _, name in self.tables))

    def star_names(self, tables: Mapping[str, Any]) -> list[str]:
        """``SELECT *``'s names over ``tables`` (alias to table), made unique
        as :meth:`output_names` makes an item's."""
        return _unique([f"{alias}_{column}" for alias, _ in self.tables
                        for column in tables[alias].column_names])

    def display(self) -> str:
        """Compact SQL-ish rendering of the query (used in reports and as
        the result cache's key), rendered once per query."""
        return self._display

    def join_signature(self) -> tuple:
        """The aliased base tables and the rendered join predicates, sorted.

        Unary predicates are left out: same-template queries that filter
        differently share it (the serving layer's join-order cache key).
        """
        return self._join_signature

    @cached_property
    def _display(self) -> str:
        # Rendered once: a cached parse is fingerprinted on every submit.
        select = ", ".join(item.display() for item in self.select_items) or "*"
        tables = ", ".join(f"{name} {alias}" if name != alias else name for alias, name in self.tables)
        parts = [f"SELECT {'DISTINCT ' if self.distinct else ''}{select}", f"FROM {tables}"]
        if self.predicates:
            parts.append("WHERE " + " AND ".join(p.display() for p in self.predicates))
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.display() for e in self.group_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.display() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

    @cached_property
    def fingerprints(self) -> dict:
        """Memo of :func:`repro.serving.cache.query_fingerprint`, which owns
        it: a cached parse is fingerprinted on every submit."""
        return {}

    @cached_property
    def _join_signature(self) -> tuple:
        joins = tuple(sorted(p.display() for p in self.join_predicates()))
        return (tuple(sorted(self.tables)), joins)


class _HashedTuple(tuple):
    """A tuple that hashes its items once: a key looked up again and again."""

    def __new__(cls, items: tuple) -> "_HashedTuple":
        key = super().__new__(cls, items)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Hashed afresh where it is unpickled: a str hash is per process.
        return _HashedTuple, (tuple(self),)


def _unique(names: list[str]) -> list[str]:
    """``names`` with each repeat suffixed ``_<position>`` until unique; a
    name that is unique already never changes."""
    taken = set(names)
    seen: set[str] = set()
    unique = []
    for position, name in enumerate(names):
        if name in seen:
            while name in taken:
                name = f"{name}_{position}"
            taken.add(name)
        seen.add(name)
        unique.append(name)
    return unique
