"""Join graphs and Cartesian-product avoidance.

The UCT search space and all optimizer baselines restrict join orders so
that a table is only appended to a join prefix if it is connected to the
prefix via at least one join predicate — unless *no* remaining table is
connected, in which case all remaining tables become eligible (paper §4.2).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import PlanningError
from repro.query.predicates import Predicate

#: ``(alias, equi, residual)``: the predicates joining one more alias.
JoinStep = tuple[str, tuple[Predicate, ...], tuple[Predicate, ...]]


class JoinGraph:
    """Undirected connectivity between query table aliases.

    Parameters
    ----------
    aliases:
        All table aliases of the query.
    predicates:
        The query's join predicates (unary predicates are ignored).
    """

    def __init__(self, aliases: Sequence[str], predicates: Iterable[Predicate]) -> None:
        self._aliases = list(aliases)
        self._predicates = list(predicates)
        self._neighbors: dict[str, set[str]] = {alias: set() for alias in aliases}
        for predicate in self._predicates:
            tables = [t for t in predicate.tables() if t in self._neighbors]
            if len(tables) < 2:
                continue
            for left in tables:
                for right in tables:
                    if left != right:
                        self._neighbors[left].add(right)
        #: :meth:`eligible_next` per prefix: every UCT descent of every tree
        #: over the graph asks again at every level.
        self._eligible: dict[tuple[str, ...], list[str]] = {}
        #: :meth:`join_steps` per join order: every batch of every plan
        #: executor over the graph asks again.
        self._steps: dict[tuple[str, ...], tuple[JoinStep, ...]] = {}

    @property
    def aliases(self) -> list[str]:
        """All table aliases in the graph."""
        return list(self._aliases)

    def eligible_next(self, prefix: Sequence[str]) -> list[str]:
        """Tables that may extend ``prefix`` without a needless Cartesian product.

        If the prefix is empty, every table is eligible.  Otherwise only
        tables connected to the prefix are eligible; if none is connected,
        all remaining tables are (a Cartesian product is then unavoidable).
        The list is worked out once per prefix and shared: callers only read
        it.
        """
        key = tuple(prefix)
        eligible = self._eligible.get(key)
        if eligible is None:
            eligible = self._eligible[key] = self._eligible_after(key)
        return eligible

    def _eligible_after(self, prefix: tuple[str, ...]) -> list[str]:
        chosen = set(prefix)
        remaining = [alias for alias in self._aliases if alias not in chosen]
        if not chosen:
            return remaining
        connected = [
            alias
            for alias in remaining
            if any(neighbor in chosen for neighbor in self._neighbors[alias])
        ]
        return connected if connected else remaining

    def join_steps(self, order: Sequence[str]) -> tuple[JoinStep, ...]:
        """Per joined alias of ``order``: ``(alias, equi, residual)`` predicates.

        Each join predicate is applied at the first position where all its
        tables are in the prefix; ``equi`` are the equality predicates
        linking the new alias to the prefix (a hash join when non-empty),
        ``residual`` everything else that became applicable.  ``order`` must
        be a permutation of the graph's aliases.  Worked out once per order.
        """
        order = tuple(order)
        steps = self._steps.get(order)
        if steps is None:
            if sorted(order) != sorted(self._aliases):
                raise PlanningError(f"join order {order} does not cover query aliases")
            steps = self._steps[order] = self._classify(order)
        return steps

    def _classify(self, order: tuple[str, ...]) -> tuple[JoinStep, ...]:
        steps = []
        applied: set[int] = set()
        prefix_aliases = {order[0]}
        for alias in order[1:]:
            prefix_aliases.add(alias)
            applicable = [
                (i, predicate)
                for i, predicate in enumerate(self._predicates)
                if i not in applied and predicate.tables() <= prefix_aliases
            ]
            equi = tuple(p for _, p in applicable if p.is_equi_join and alias in p.tables())
            residual = tuple(p for _, p in applicable
                             if not (p.is_equi_join and alias in p.tables()))
            applied.update(i for i, _ in applicable)
            steps.append((alias, equi, residual))
        return tuple(steps)
