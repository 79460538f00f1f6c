"""Join-map lookups by plain binary search, with a per-probe rank search.

:func:`search` finds each probe in sorted keys with :func:`bisect.bisect_left`
over Python ints and floats: no direct-address table, no int64 arithmetic.
:func:`probe_codes_reference`, :func:`slots_reference` and
:func:`edge_reference` are :meth:`~repro.engine.joinkernels.CompositeKeySpace
.probe_codes`, :meth:`~repro.engine.joinkernels.GroupedJoinMap.slots` and
:meth:`~repro.engine.joinkernels.GroupedJoinMap.edge` on top of it; probe
translation (:func:`~repro.engine.joinkernels._translate_probes`) is shared.

:func:`lookup_many_reference` is what the map's many-probe lookup did in
one step, before it became
:meth:`~repro.engine.joinkernels.GroupedJoinMap.bounds` of
:meth:`~repro.engine.joinkernels.GroupedJoinMap.slots` (and the one-step
method was deleted; both executors now probe through
:meth:`~repro.engine.joinkernels.GroupedJoinMap.edge`): find the probes'
buckets, read each one's bucket bounds, and cut a bucket at ``lower`` by
one binary search per probe over the ``(bucket, row)`` ranks of the
grouped map.  A probe that finds no bucket gets a count of 0 and a start of
no meaning.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence

import numpy as np

from repro.engine.joinkernels import CompositeKeySpace, GroupedJoinMap, _translate_probes
from repro.storage.column import Column


def search(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Each probe's slot in the sorted, distinct ``keys``; ``len(keys)`` where it is none."""
    ordered = keys.tolist()
    slots = []
    for probe in np.asarray(probes).tolist():
        slot = bisect.bisect_left(ordered, probe)
        found = slot < len(ordered) and ordered[slot] == probe  # never for NaN
        slots.append(slot if found else len(ordered))
    return np.array(slots, dtype=np.intp).reshape(-1)


def probe_codes_reference(
    space: CompositeKeySpace, values: Sequence[np.ndarray], sources: Sequence[Column]
) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, valid)`` of probe rows; a code is meaningful only where valid."""
    length = int(np.shape(values[0])[0])
    codes = np.zeros(length, dtype=np.int64)
    valid = np.ones(length, dtype=bool)
    for index, (column, domain) in enumerate(zip(space.columns, space.domains)):
        translated = _translate_probes(column, np.asarray(values[index]), sources[index])
        if translated is None or domain.shape[0] == 0:
            return codes, np.zeros(length, dtype=bool)
        if index in space.dense:
            codes = search(space.dense[index], codes)
            valid &= codes < space.dense[index].shape[0]
        probes, part_valid = translated
        part = search(domain, probes)
        valid &= part < domain.shape[0]
        if part_valid is not None:
            valid &= part_valid
        codes = np.where(valid, codes * domain.shape[0] + part, 0)
    return codes, valid


def slots_reference(
    join_map: GroupedJoinMap,
    values: np.ndarray | Sequence[np.ndarray],
    source: Column | Sequence[Column],
) -> np.ndarray:
    """Each probe's bucket number in ``join_map``, ``len(join_map)`` where it has none."""
    if join_map._space is not None:
        probes = probe_codes_reference(join_map._space, values, source)
        values = values[0]
    else:
        if not isinstance(source, Column):
            (values,), (source,) = values, source
        probes = _translate_probes(join_map._column, np.asarray(values), source)
    absent = len(join_map)
    if probes is None:
        return np.full(np.shape(values)[0], absent, dtype=np.intp)
    probes, valid = probes
    slots = search(join_map._keys, probes)
    if valid is not None:
        slots[~valid] = absent
    return slots


def edge_reference(
    join_map: GroupedJoinMap,
    values: np.ndarray | Sequence[np.ndarray],
    source: Column | Sequence[Column],
) -> np.ndarray:
    """A unique map's partner row per probe (``-1`` for none), else its bucket number."""
    slots = slots_reference(join_map, values, source)
    if not join_map.unique:
        return slots
    rows = join_map.rows.tolist()
    return np.array([rows[slot] if slot < len(rows) else -1 for slot in slots.tolist()],
                    dtype=np.int64).reshape(-1)


def lookup_many_reference(
    join_map: GroupedJoinMap,
    values: np.ndarray | Sequence[np.ndarray],
    source: Column | Sequence[Column],
    lower: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, counts)`` of every probe's bucket in ``join_map``, rows ``< lower`` cut."""
    buckets = len(join_map)
    slots = slots_reference(join_map, values, source)
    if buckets == 0:
        zeros = np.zeros(slots.shape[0], dtype=np.int64)
        return zeros, zeros
    found = slots < buckets
    position = np.minimum(slots, buckets - 1)
    own_starts, own_ends = join_map._starts[:buckets], join_map._ends[:buckets]
    starts = own_starts.take(position)
    counts = (own_ends.take(position) - starts) * found
    if lower > 0:
        rows = join_map.rows
        size = rows.shape[0] + 1
        grouped = join_map._grouped
        sizes = grouped._ends[:buckets] - grouped._starts[:buckets]
        ranks = np.repeat(np.arange(buckets, dtype=np.int64), sizes) * size + rows
        ends = starts + counts
        cut = np.searchsorted(ranks, position * size + min(lower, size - 1))
        starts = np.clip(cut, starts, ends)
        counts = ends - starts
    return starts, counts
