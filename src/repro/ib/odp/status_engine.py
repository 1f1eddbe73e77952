"""The per-QP page-status update engine — the root cause of packet flood.

Section VI of the paper establishes that after a client-side fault is
resolved in the NIC, each waiting QP's *view* of the page status is
updated only much later ("update failure of page statuses"), during which
the stale QP keeps blindly retransmitting its request every ~0.5 ms and
discarding the responses.

Two experimentally observed properties are encoded here:

* **LIFO drain** — in Figure 11a the *first* ~30 operations finish
  *last*, so updates are drained newest-first.
* **Congestion** — updating one QP's status takes
  ``status_resume_ns * (1 + gamma * min(backlog, cap))**2``,
  a phenomenological fit reproducing the measured stall magnitudes
  (milliseconds at ~128 pending updates, Fig. 11a; ~a second at ~512,
  Fig. 11b; ~10 s at thousands, Fig. 9a).  The paper could not name the
  hardware-internal mechanism (NVIDIA's analysis was still pending), so a
  calibrated congestion law is the faithful substitute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.ib.device import DeviceProfile
from repro.sim.engine import Simulator


@dataclass
class ResumeItem:
    """One pending per-QP page-status update."""

    qpn: int
    mr_handle: int
    page: int
    enqueued_at: int
    callback: Callable[[], None]


class PageStatusEngine:
    """Serial LIFO processor of per-QP page-status updates."""

    def __init__(self, sim: Simulator, profile: DeviceProfile):
        self.sim = sim
        self.profile = profile
        self._stack: List[ResumeItem] = []
        self._busy = False
        self.resumes_done = 0
        self.max_backlog = 0
        self.total_wait_ns = 0
        #: updates that never reached the stack because the page was
        #: device-pinned (dynamic-pin mitigation) — the work the
        #: congestion law would otherwise have charged for.
        self.bypasses = 0
        #: Supplied by the RNIC: current retransmission pressure
        #: (outstanding READs summed over stale QPs).  Called with the
        #: backlog cap; it may stop summing once it reaches the cap,
        #: since :meth:`service_cost_ns` clamps the load to it anyway.
        self.load_fn: Callable[[int], int] = lambda cap: 0
        #: Fired on every fault (enqueue) and resolve (completion)
        #: transition; the ODP coordinator wires this to its translation/
        #: view range-cache invalidation so memoised readiness verdicts
        #: can never outlive the engine state that produced them.
        self.transition_hook: Optional[Callable[[], None]] = None
        #: Absolute time of the next scheduled state transition while
        #: busy (see :meth:`next_transition_at`); None when idle.
        self._next_complete_at: Optional[int] = None
        #: Telemetry tracer handed over by ``Telemetry.attach`` (the
        #: engine has no back-pointer to its RNIC, so the attach also
        #: records the owning LID for event scoping).
        self.telemetry = None
        self.telemetry_lid = -1

    @property
    def backlog(self) -> int:
        """Pending updates (including the one in service)."""
        return len(self._stack) + (1 if self._busy else 0)

    def note_bypass(self) -> None:
        """Record one update avoided by a device-pinned page."""
        self.bypasses += 1

    def enqueue_resume(self, qpn: int, mr_handle: int, page: int,
                       callback: Callable[[], None]) -> None:
        """Queue a status update for (QP, MR, page); ``callback`` fires
        when the QP's view becomes fresh."""
        item = ResumeItem(qpn, mr_handle, page, self.sim.now, callback)
        self._stack.append(item)
        if self.transition_hook is not None:
            self.transition_hook()  # fault transition
        self.max_backlog = max(self.max_backlog, self.backlog)
        if not self._busy:
            # Defer the first pop one event so that a batch of resumes
            # produced by a single fault resolution is fully enqueued
            # before LIFO draining begins (this is what makes the
            # *first* operations finish *last*, Fig. 11a).
            self._busy = True
            self._next_complete_at = self.sim.now
            self.sim.call_soon(self._serve_next)

    def next_transition_at(self) -> Optional[int]:
        """Absolute time of the engine's next state transition, or None
        when no update is in flight.

        While an update is in service this is its completion time; in
        the one-event window between ``enqueue_resume`` and the deferred
        first pop it is the (pessimistic) current time.  Storm coalescing
        uses this as a cheap pre-filter: a transition inside a candidate
        fast-forward span would end the steady state mid-round.
        """
        return self._next_complete_at if self._busy else None

    def service_cost_ns(self, load: int) -> int:
        """Congestion-dependent cost of the next update."""
        gamma = self.profile.status_congestion_gamma
        effective = min(load, self.profile.status_backlog_cap)
        factor = (1.0 + gamma * effective) ** self.profile.status_congestion_power
        return round(self.profile.status_resume_ns * factor)

    def _serve_next(self) -> None:
        if not self._stack:
            self._busy = False
            self._next_complete_at = None
            return
        self._busy = True
        item = self._stack.pop()  # LIFO: newest first
        # service_cost_ns only sees min(load, cap): once the backlog
        # alone reaches the cap, the retransmit pressure cannot matter.
        load = len(self._stack) + 1
        cap = self.profile.status_backlog_cap
        if load < cap:
            load = max(load, self.load_fn(cap))
        cost = self.service_cost_ns(load)
        self._next_complete_at = self.sim.now + cost
        self.sim.schedule(cost, self._complete, item)

    def _complete(self, item: ResumeItem) -> None:
        self.resumes_done += 1
        self.total_wait_ns += self.sim.now - item.enqueued_at
        tel = self.telemetry
        if tel is not None:
            tel.complete(item.enqueued_at, self.sim.now - item.enqueued_at,
                         "odp.status_update", self.telemetry_lid, item.qpn,
                         item.page)
        item.callback()
        if self.transition_hook is not None:
            self.transition_hook()  # resolve transition
        self._serve_next()
