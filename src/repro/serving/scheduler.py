"""The fair episode scheduler: two-layer stride scheduling over tenant quotas.

The scheduler decides which in-flight query runs its next episode.  It is a
*stride* (virtual-time) scheduler over the deterministic work-unit clock,
and tenant quotas are its one policy:

* **tenants** divide the served work by their **quota shares**: every tenant
  keeps a virtual time advanced by ``consumed_work / quota``, and among the
  tenants with runnable sessions the one with the lowest tenant virtual time
  runs next.  Over any interval, two backlogged tenants receive work
  proportional to their quotas — a heavy tenant flooding the server with
  sessions cannot push a light tenant below its quota-implied share;
* **sessions** within a tenant keep a virtual time advanced by the work
  they consume, so a tenant's share is split equally between its sessions.

A newly admitted session starts at the current virtual-time minimum of its
tenant's active sessions (of all active sessions when its tenant has none),
so it neither gets a catch-up burst for time it was queued nor starves
existing sessions; a tenant (re)entering the active set is aligned to the
active tenants' minimum the same way.

Everything is integer/float arithmetic over meter charges — no wall clock,
no randomness — so a given submission sequence always produces the same
episode interleaving, which the determinism tests rely on.  With a single
tenant (the default) the tenant layer is inert.
"""

from __future__ import annotations

import math

from repro.errors import ReproError
from repro.serving.session import QuerySession


class FairScheduler:
    """Picks the next session to run one episode for."""

    def __init__(self) -> None:
        self._active: list[QuerySession] = []
        self._quotas: dict[str, float] = {}
        self._tenant_virtual: dict[str, float] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add(self, session: QuerySession) -> None:
        """Admit a session, aligning its virtual time with its peers.

        The session starts at the minimum virtual time of its tenant's
        active sessions (falling back to all active sessions when its
        tenant has none); its tenant, if not already active, is aligned to
        the minimum tenant virtual time the same way.
        """
        active, tenant, tenant_virtual = self._active, session.tenant, self._tenant_virtual
        own = every = floor = None  # the least virtual times, first found
        for peer in active:
            time, other = peer.virtual_time, tenant_virtual.get(peer.tenant, 0.0)
            if every is None or time < every:
                every = time
            if peer.tenant == tenant and (own is None or time < own):
                own = time
            if floor is None or other < floor:
                floor = other
        if own is not None:
            session.virtual_time = own
        else:  # the tenant has no active session: it enters the active set
            session.virtual_time = every if every is not None else 0.0
            tenant_virtual[tenant] = max(tenant_virtual.get(tenant, 0.0),
                                         floor if floor is not None else 0.0)
        active.append(session)

    def remove(self, session: QuerySession) -> None:
        """Drop a session (completed, failed, or cancelled)."""
        self._active.remove(session)

    def discard(self, session: QuerySession) -> None:
        """Drop a session if present (failure paths cannot know membership)."""
        if session in self._active:
            self._active.remove(session)

    # ------------------------------------------------------------------
    # tenant quotas
    # ------------------------------------------------------------------
    def set_quota(self, tenant: str, share: float) -> None:
        """Set a tenant's quota share: a finite, positive ``int`` or ``float``."""
        if (
            isinstance(share, bool)
            or not isinstance(share, (int, float))
            or not math.isfinite(share)
            or share <= 0
        ):
            raise ReproError(f"tenant quota share must be positive and finite, got {share!r}")
        self._quotas[tenant] = float(share)

    def quota(self, tenant: str) -> float:
        """A tenant's quota share (1.0 unless set)."""
        return self._quotas.get(tenant, 1.0)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def pick(self) -> QuerySession | None:
        """The next session to run.

        Selection is hierarchical: the runnable tenant with the lowest
        tenant virtual time, then the session with the lowest virtual time
        within that tenant.  Ties break on tenant name and submission
        ticket, so the schedule is a pure function of the submission
        sequence and the per-episode charges.
        """
        candidates = self._active
        if len(candidates) < 2:
            return candidates[0] if candidates else None
        tenants = {s.tenant for s in candidates}
        if len(tenants) > 1:
            winner = min(tenants, key=lambda t: (self._tenant_virtual.get(t, 0.0), t))
            candidates = [s for s in candidates if s.tenant == winner]
        return min(candidates, key=lambda s: (s.virtual_time, s.ticket))

    def charge(self, session: QuerySession, consumed: int) -> None:
        """Advance both stride layers by the session's episode charge.

        Episodes that consumed no measurable work still advance virtual time
        by one unit, so a session whose episodes are all no-ops cannot pin
        the scheduler; the same floor applies to the tenant clock.
        """
        charged = consumed if consumed > 1 else 1
        session.virtual_time += charged
        tenant = session.tenant
        self._tenant_virtual[tenant] = (
            self._tenant_virtual.get(tenant, 0.0) + charged / self._quotas.get(tenant, 1.0)
        )
