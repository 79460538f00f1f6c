"""A join step's candidates, in the only two shapes they come in.

A step extends ``K`` partial tuples (prefixes ``0 .. K-1``) by one table:

* :class:`Runs` — prefix ``p`` owns ``counts[p]`` candidates,
  ``rows[starts[p] + i]``, or the row ids ``starts[p] + i`` when ``rows`` is
  ``None``: the bucket of a map whose key repeats, a band, a scan, and a
  cross product (:func:`scan`, every prefix owning the same run);
* :class:`Partners` — the ascending prefixes ``parents`` own one candidate
  each, the partner row a unique map gave their probe.

Laid out flat, prefix after prefix, the candidates are in the order of a
per-prefix loop.  Both shapes answer, without state, ``take(start, stop)``
(the ``(parent, candidates)`` arrays of a range), ``at(pos)`` (one pair,
where a suspended multi-way join resumes) and ``through(remaining)`` (what
that loop has counted when a budget of ``remaining`` stops it: all up to the
end of the prefix whose candidates cross it); ``owned(bounds)`` (the
candidates of the prefixes below each bound) and ``head(prefixes)`` (the
shape of the first prefixes alone) are what the multi-way join trims a wide
step with.  :func:`edge_candidates` picks
a hash join's shape from the map's key uniqueness alone, for the multi-way
join's frames and the plan executor's
:class:`~repro.engine.operators.Candidates` alike.
"""

from __future__ import annotations

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap

__all__ = ["Partners", "Runs", "edge_candidates", "scan"]

class Runs:
    """Prefix ``p`` owns ``counts[p]`` candidates from ``starts[p]`` on.

    ``ends`` are the run boundaries in the flat sequence, and ``shift[p]``
    turns a flat position of prefix ``p`` into its index.  One prefix (every
    frame a descent along an index vector rebuilds) is one run: :meth:`take`
    slices it without the run arithmetic.
    """

    __slots__ = ("rows", "counts", "ends", "shift", "total")

    def __init__(self, rows: np.ndarray | None, starts: np.ndarray, counts: np.ndarray) -> None:
        self.rows = rows
        self.counts = counts
        self.ends = ends = counts.cumsum()
        self.shift = starts - ends + counts
        self.total = int(ends[-1]) if ends.shape[0] else 0

    def take(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """``(parent, candidates)`` of the flat positions ``start:stop``."""
        if self.counts.shape[0] == 1:
            shift = int(self.shift[0])
            parent = np.zeros(stop - start, np.int64)
            index = np.arange(start + shift, stop + shift)
        elif stop <= start:
            parent = index = np.empty(0, np.int64)
        else:
            if start == 0 and stop == self.total:
                first, last, lengths = 0, self.counts.shape[0], self.counts
            else:
                ends = self.ends
                first = int(ends.searchsorted(start, "right"))
                last = int(ends.searchsorted(stop - 1, "right")) + 1
                lengths = self.counts[first:last].copy()
                lengths[0] = ends[first] - start
                lengths[-1] -= ends[last - 1] - stop
            parent = np.arange(first, last).repeat(lengths)
            index = np.arange(start, stop) + self.shift[parent]
        return parent, index if self.rows is None else self.rows[index]

    def at(self, pos: int) -> tuple[int, int]:
        """Prefix and candidate at flat position ``pos``."""
        parent = int(self.ends.searchsorted(pos, "right"))
        index = pos + int(self.shift[parent])
        return parent, index if self.rows is None else int(self.rows[index])

    def through(self, remaining: int) -> int:
        """Candidates through the run that crosses ``remaining``."""
        ends = self.ends
        return int(ends[ends.searchsorted(remaining, "right")])

    def owned(self, bounds: np.ndarray) -> np.ndarray:
        """Candidates owned by the prefixes below each of ``bounds``."""
        return np.concatenate((np.zeros(1, np.int64), self.ends))[bounds]

    def head(self, prefixes: int) -> Runs:
        """The runs of the first ``prefixes`` prefixes, holding none of the rest."""
        head = Runs.__new__(Runs)
        head.rows = self.rows
        head.counts = self.counts[:prefixes].copy()
        head.ends = self.ends[:prefixes].copy()
        head.shift = self.shift[:prefixes].copy()
        head.total = int(head.ends[-1]) if prefixes else 0
        return head


class Partners:
    """The prefixes ``parents``, ascending, own one candidate each:
    ``partners``, the flat sequence itself, so every answer is a slice."""

    __slots__ = ("parents", "partners", "total")

    def __init__(self, parents: np.ndarray, partners: np.ndarray) -> None:
        self.parents = parents
        self.partners = partners
        self.total = int(parents.shape[0])

    def take(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """``(parent, candidates)`` of the flat positions ``start:stop``."""
        return self.parents[start:stop], self.partners[start:stop]

    def at(self, pos: int) -> tuple[int, int]:
        """Prefix and candidate at flat position ``pos``."""
        return int(self.parents[pos]), int(self.partners[pos])

    def through(self, remaining: int) -> int:
        """Candidates through the one that crosses ``remaining``."""
        return remaining + 1

    def owned(self, bounds: np.ndarray) -> np.ndarray:
        """Candidates owned by the prefixes below each of ``bounds``."""
        return self.parents.searchsorted(bounds)

    def head(self, prefixes: int) -> Partners:
        """The partners of the first ``prefixes`` prefixes, holding none of the rest."""
        cut = int(self.parents.searchsorted(prefixes))
        return Partners(self.parents[:cut].copy(), self.partners[:cut].copy())


def scan(prefixes: int, lower: int, width: int) -> Runs:
    """Every one of ``prefixes`` prefixes owns the row ids ``lower .. lower + width - 1``."""
    return Runs(None, np.full(prefixes, lower, np.int64), np.full(prefixes, width, np.int64))


def edge_candidates(join_map: GroupedJoinMap, found: np.ndarray, lower: int = 0) -> Runs | Partners:
    """The candidates of probes that found ``found`` in ``join_map``, rows ``< lower`` cut.

    ``found`` is what :meth:`~repro.engine.joinkernels.GroupedJoinMap.edge`
    gives the probes, one per prefix: partner rows (``-1`` for none) where
    the map's key is unique, and only the prefixes whose partner is at or
    above the bound keep one; bucket numbers otherwise, turned into runs by
    :meth:`~repro.engine.joinkernels.GroupedJoinMap.bounds`.
    """
    if join_map.unique:
        parents = np.flatnonzero(found >= max(lower, join_map.lower))
        return Partners(parents, found[parents])
    starts, counts = join_map.bounds(found, lower)
    return Runs(join_map.rows, starts, counts)
