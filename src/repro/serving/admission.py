"""Admission control: bound concurrent in-flight work, queue the overflow.

The server interleaves episodes of at most ``max_inflight`` queries; every
additional submission waits in a FIFO queue.  Bounding the in-flight set
bounds memory (each in-flight Skinner query holds its pre-processed tables,
UCT tree, and progress tracker) and keeps the scheduler's episode rotation
short, at the cost of queueing delay — the classic admission trade-off.
"""

from __future__ import annotations

from collections import deque

from repro.serving.session import QuerySession


class AdmissionController:
    """Bounded in-flight set plus an overflow queue."""

    def __init__(self, max_inflight: int) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self._max_inflight = max_inflight
        self._inflight: list[QuerySession] = []
        self._queue: deque[QuerySession] = deque()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def max_inflight(self) -> int:
        """Concurrency bound."""
        return self._max_inflight

    @property
    def inflight(self) -> tuple[QuerySession, ...]:
        """Sessions currently admitted."""
        return tuple(self._inflight)

    @property
    def queued(self) -> tuple[QuerySession, ...]:
        """Sessions waiting for admission, in dequeue (submission) order."""
        return tuple(self._queue)

    def queue_position(self, session: QuerySession) -> int | None:
        """0-based dequeue position of a queued session, or ``None``."""
        return self._queue.index(session) if session in self._queue else None

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def offer(self, session: QuerySession) -> bool:
        """Admit the session if a slot is free; queue it otherwise.

        Returns ``True`` when the session was admitted immediately.
        """
        if len(self._inflight) < self._max_inflight:
            self._inflight.append(session)
            return True
        self._queue.append(session)
        return False

    def release(self, session: QuerySession) -> QuerySession | None:
        """Free the session's slot and admit the next queued session, if any."""
        self._inflight.remove(session)
        if not self._queue:
            return None
        nxt = self._queue.popleft()
        self._inflight.append(nxt)
        return nxt

    def withdraw(self, session: QuerySession) -> bool:
        """Remove a session from the overflow queue (queued-state cancel)."""
        if session in self._queue:
            self._queue.remove(session)
            return True
        return False
