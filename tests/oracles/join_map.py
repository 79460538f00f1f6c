"""The many-probe join-map lookup in one step, with a per-probe rank search.

:func:`lookup_many_reference` is what the map's many-probe lookup did in
one step, before it became
:meth:`~repro.engine.joinkernels.GroupedJoinMap.bounds` of
:meth:`~repro.engine.joinkernels.GroupedJoinMap.slots` (and the one-step
method was deleted; both executors now probe through
:meth:`~repro.engine.joinkernels.GroupedJoinMap.edge`): translate and
binary-search the probes, read each one's bucket bounds, and cut a bucket
at ``lower`` by one binary search per probe over the ``(bucket, row)``
ranks of the grouped map.  A probe that finds no bucket gets a count of 0
and a start of no meaning.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap, _translate_probes
from repro.storage.column import Column


def lookup_many_reference(
    join_map: GroupedJoinMap,
    values: np.ndarray | Sequence[np.ndarray],
    source: Column | Sequence[Column],
    lower: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, counts)`` of every probe's bucket in ``join_map``, rows ``< lower`` cut."""
    keys = join_map._keys
    buckets = keys.shape[0]
    if join_map._space is not None:
        probes = join_map._space.probe_codes(values, source)
        values = values[0]
    else:
        if not isinstance(source, Column):
            (values,), (source,) = values, source
        probes = _translate_probes(join_map._column, np.asarray(values), source)
    if probes is None or buckets == 0:
        zeros = np.zeros(np.shape(values)[0], dtype=np.int64)
        return zeros, zeros
    probes, valid = probes
    own_starts, own_ends = join_map._starts[:buckets], join_map._ends[:buckets]
    position = keys.searchsorted(probes)
    found = keys.take(position, mode="clip") == probes
    if valid is not None:
        found &= valid
    starts = own_starts.take(position, mode="clip")
    counts = (own_ends.take(position, mode="clip") - starts) * found
    if lower > 0:
        position = np.minimum(position, buckets - 1)
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
