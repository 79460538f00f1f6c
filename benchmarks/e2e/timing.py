"""Clock for the end-to-end benchmark: perf_counter plus a speed yardstick.

The sandbox this benchmark runs in shares its cores.  A fixed loop of pure
interpreter work takes 6.7 ms in one second and 8.7 ms or 13 ms in the
next (measured: 9 % spread between the *medians* of ten-second windows of
identical work, 18 % between their means), and ``process_time`` moves with
``perf_counter`` — the core executes slower, it is not taken away.  No
statistic of raw wall times alone is steady under that.

So every timed call is bracketed by a *yardstick*: a fixed unit of
interpreter + NumPy + JSON work timed the same way.  A duration is reported
as ``raw * NOMINAL_YARDSTICK_S / yardstick`` — the wall time the call would
have taken at the speed at which the yardstick takes its nominal time.  Raw
seconds are kept beside every scaled value in the output files.

Second defence: a workload is a fixed cycle of *slots* replayed pass after
pass, and a slot's time is the lower quartile of its scaled samples over
the passes.  Co-tenant bursts last 50–300 ms and only ever add time, so
the lower quartile of eight or more samples sits on undisturbed ones,
where the median still moved by 5 %.  (Measured on 200 passes of the
join-learning workload cut into runs of 12: spread of throughput between
runs 10 % raw, 5 % yardstick-scaled medians, 2–3 % yardstick-scaled lower
quartiles.)
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

#: What one yardstick takes on the reference sandbox when nothing disturbs
#: it.  Only a unit: changing it rescales every timed metric alike.
NOMINAL_YARDSTICK_S = 0.001

#: A bracketing sample older than this is taken again before timing.
_STALE_S = 0.004

_YARD_KEYS = (np.arange(6000, dtype=np.int64) * 7919) % 6007
_YARD_ROWS = [[i, i * 0.5, f"g{i % 8}"] for i in range(160)]


def yardstick() -> float:
    """Seconds one fixed unit of interpreter, NumPy and JSON work takes now.

    The mix follows what the program under test spends its time in:
    bytecode, sort/unique kernels, and JSON framing.
    """
    started = time.perf_counter()
    total = 0
    for i in range(5000):
        total += i * i
    order = np.argsort(_YARD_KEYS, kind="stable")
    np.unique(_YARD_KEYS[order[:3000]])
    json.loads(json.dumps(_YARD_ROWS))
    return time.perf_counter() - started


class Stopwatch:
    """Times calls and scales them by the yardsticks taken around them."""

    def __init__(self) -> None:
        self._sample = yardstick()
        self._sampled_at = time.perf_counter()

    def time(self, call: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run ``call``; return ``(result, raw_seconds, scale)``.

        ``raw_seconds * scale`` is the yardstick-scaled duration; ``scale``
        also applies to instants the call recorded inside itself (time to
        first row).  The yardstick after one call serves as the yardstick
        before the next when they follow closely.
        """
        if time.perf_counter() - self._sampled_at > _STALE_S:
            self._sample = yardstick()
        before = self._sample
        started = time.perf_counter()
        result = call()
        raw = time.perf_counter() - started
        after = self._sample = yardstick()
        self._sampled_at = time.perf_counter()
        return result, raw, NOMINAL_YARDSTICK_S / ((before + after) / 2.0)


def lower_quartile(values: Sequence[float]) -> float:
    """Nearest-rank lower quartile (the single value when there is one)."""
    ordered = sorted(values)
    return ordered[int(0.25 * (len(ordered) - 1))]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` at or below."""
    ordered = sorted(values)
    rank = math.ceil(round(len(ordered) * share, 9))
    return ordered[max(1, rank) - 1]
