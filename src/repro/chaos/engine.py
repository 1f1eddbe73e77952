"""Deterministic chaos injection.

The :class:`ChaosEngine` executes a :class:`~repro.chaos.plan.ChaosPlan`
against a built cluster: window opens/closes are ordinary simulator
events, packet faults hook :meth:`Network.inject` via ``network.chaos``,
and topology/device faults drive the link, switch, RNIC, and VM APIs
directly.

Determinism contract
--------------------

* The engine owns a **private** ``random.Random(seed)``.  The shared
  simulator RNG is never touched, so a chaos run consumes exactly the
  same model-side draws as a fault-free run of the same cluster seed,
  and ``(plan, seed)`` alone reproduces every fault decision.
* Deterministic windows (``probability == 1``) and packets outside a
  window's LID scope make **zero** draws.
* :meth:`affects_pair` reports True for any pair touched by an *active*
  window, which :meth:`Network.requires_real` folds into the storm
  coalescer's eligibility check: inside a window both endpoints run the
  real per-packet path (so probabilistic draws line up no matter what
  the coalescer did elsewhere), and coalescing resumes the moment the
  window closes.  Window opens/closes are real events, so closed-form
  fast-forwards crossing a boundary are declined by the engine probes.

Every fault action is appended to :attr:`log` and tallied in
:attr:`stats`; :meth:`fingerprint` digests both for reproducibility
tests.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.chaos.plan import (PACKET_KINDS, ChaosPlan, FaultKind,
                              FaultWindow, TenantScope)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.host.cluster import Cluster


class ChaosEngine:
    """Executes one plan against one cluster."""

    def __init__(self, cluster: "Cluster", plan: ChaosPlan, seed: int = 0):
        self.cluster = cluster
        self.network = cluster.network
        self.sim = cluster.sim
        #: the fabric's drop record, still readable after release.
        self._drops = cluster.network.drops
        self.plan = plan
        self.seed = seed
        self.rng = random.Random(seed)
        self._nodes = {node.lid: node for node in cluster.nodes}
        #: windows currently open, in activation order.
        self._active: List[FaultWindow] = []
        #: the packet-fault subset of ``_active`` (inject fast path).
        self._packet_active: List[FaultWindow] = []
        #: chronological record of every fault action taken.
        self.log: List[Tuple] = []
        self.stats: Dict[str, int] = {}
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> "ChaosEngine":
        """Arm the plan: schedule every window open/close.

        Windows whose start is already in the past open immediately
        (clamped to ``now``); in-flight tracking is pre-enabled on every
        link a flap may touch so instrumented timing is identical
        whether or not the flap ever fires.
        """
        if self._installed:
            raise RuntimeError("chaos engine already installed")
        if self.network.chaos is not None:
            raise RuntimeError("another chaos engine is already installed")
        self._installed = True
        self.network.chaos = self
        now = self.sim.now
        for window in self.plan:
            if window.kind is FaultKind.LINK_FLAP:
                for lid in self._scope_lids(window):
                    for end in self.network.link_ends(lid):
                        end.enable_inflight_tracking()
                        if end.on_drop is None:
                            end.on_drop = self._on_link_drop
            self.sim.at(max(now, window.start), self._open, window)
            self.sim.at(max(now, window.end), self._close, window)
        return self

    def _tenant_scope(self, window: FaultWindow) -> Optional[TenantScope]:
        """Resolve a window's tenant label against the cluster's
        registered scopes (the service tier registers them before the
        engine installs)."""
        if window.tenant is None:
            return None
        scopes = getattr(self.cluster, "tenant_scopes", None) or {}
        try:
            return scopes[window.tenant]
        except KeyError:
            known = ", ".join(sorted(scopes)) or "(none registered; "  \
                "tenant-scoped plans need a service-tier cell)"
            raise KeyError(f"chaos window targets unknown tenant "
                           f"{window.tenant!r}; known: {known}") from None

    def _scope_lids(self, window: FaultWindow) -> Tuple[int, ...]:
        scope = self._tenant_scope(window)
        if scope is not None:
            if window.lids is not None:
                return tuple(lid for lid in scope.lids
                             if lid in window.lids)
            return scope.lids
        if window.lids is not None:
            return window.lids
        return tuple(self.network.lids())

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------

    def _open(self, window: FaultWindow) -> None:
        self._active.append(window)
        if window.kind in PACKET_KINDS:
            self._packet_active.append(window)
        self._record("open", window.kind.value)
        kind = window.kind
        if kind is FaultKind.LINK_FLAP:
            for lid in self._scope_lids(window):
                for end in self.network.link_ends(lid):
                    end.set_down()
        elif kind is FaultKind.LATENCY:
            for lid in self._scope_lids(window):
                for end in self.network.link_ends(lid):
                    end.extra_delay_ns += window.magnitude_ns
        elif kind is FaultKind.LID_CHURN:
            for lid in self._scope_lids(window):
                self.network.detach_lid(lid)
                self._record("lid_detached", lid)
        elif kind is FaultKind.FIRMWARE_PAUSE:
            for lid in self._scope_lids(window):
                self.network.devices[lid].pause_rx()
        elif kind is FaultKind.EVICTION_STORM:
            self._evict_tick(window)

    def _close(self, window: FaultWindow) -> None:
        self._active.remove(window)
        if window.kind in PACKET_KINDS:
            self._packet_active.remove(window)
        self._record("close", window.kind.value)
        kind = window.kind
        if kind is FaultKind.LINK_FLAP:
            for lid in self._scope_lids(window):
                for end in self.network.link_ends(lid):
                    end.set_up()
        elif kind is FaultKind.LATENCY:
            for lid in self._scope_lids(window):
                for end in self.network.link_ends(lid):
                    end.extra_delay_ns -= window.magnitude_ns
        elif kind is FaultKind.LID_CHURN:
            for lid in self._scope_lids(window):
                self.network.reattach_lid(lid)
                self._record("lid_reattached", lid)
        elif kind is FaultKind.FIRMWARE_PAUSE:
            for lid in self._scope_lids(window):
                self.network.devices[lid].resume_rx()

    # ------------------------------------------------------------------
    # Packet faults (Network.inject hook)
    # ------------------------------------------------------------------

    @staticmethod
    def packet_id(packet: Any) -> Tuple:
        """Protocol-level identity of a packet for logs and comparisons.

        Deliberately excludes ``packet.serial``: serial numbers count
        *allocations*, and the storm coalescer's closed-form rounds
        advance the counter without materialising each packet, so raw
        serials drift between coalesce on/off even when the wire
        behaviour is bit-identical.  ``(lids, QPNs, opcode, PSN)``
        identifies the same packet in both executions.
        """
        opcode = getattr(packet, "opcode", None)
        return (getattr(packet, "src_lid", None),
                getattr(packet, "dst_lid", None),
                getattr(packet, "src_qpn", None),
                getattr(packet, "dst_qpn", None),
                getattr(opcode, "value", opcode),
                getattr(packet, "psn", None))

    def on_inject(self, src_lid: int, packet: Any):
        """Apply active packet-fault windows to one injection.

        Returns ``None`` to transmit normally (possibly after marking
        the packet corrupted in place), or a list of ``(delay_ns,
        packet)`` replacements — empty means dropped, two entries mean
        duplicated, a positive delay means held back (reordered).
        """
        windows = self._packet_active
        if not windows:
            return None
        rng = self.rng
        for window in windows:
            lids = window.lids
            if lids is not None and src_lid not in lids \
                    and packet.dst_lid not in lids:
                continue
            if window.tenant is not None:
                # Tenant windows touch only the tenant's own QPs, on
                # either end of the packet.
                scope = self._tenant_scope(window)
                if not (scope.covers_qp(src_lid,
                                        getattr(packet, "src_qpn", -1))
                        or scope.covers_qp(packet.dst_lid,
                                           getattr(packet, "dst_qpn", -1))):
                    continue
            p = window.probability
            kind = window.kind
            if kind is FaultKind.DROP:
                if p >= 1.0 or rng.random() < p:
                    self.network.record_injected_drop(src_lid, packet,
                                                      "chaos_drop")
                    self._record("drop", *self.packet_id(packet))
                    return []
            elif kind is FaultKind.CORRUPT:
                if not packet.corrupted and (p >= 1.0 or rng.random() < p):
                    packet.corrupted = True
                    self._record("corrupt", *self.packet_id(packet))
            elif kind is FaultKind.DUPLICATE:
                if p >= 1.0 or rng.random() < p:
                    self._record("duplicate", *self.packet_id(packet))
                    return [(0, packet), (0, packet)]
            elif kind is FaultKind.REORDER:
                if p >= 1.0 or rng.random() < p:
                    hold = rng.randint(1, window.magnitude_ns)
                    self._record("reorder", *self.packet_id(packet), hold)
                    return [(hold, packet)]
        return None

    # ------------------------------------------------------------------
    # Coalescer composition
    # ------------------------------------------------------------------

    def affects_pair(self, src_lid: int, dst_lid: int) -> bool:
        """True while any active window can touch the pair's traffic.

        Deliberately conservative (any kind counts, not just packet
        faults): a flapped link or churned LID changes delivery in ways
        no closed-form round models, so overlapping pairs must run
        per-packet for the window's duration.
        """
        for window in self._active:
            lids = window.lids
            if lids is None and window.tenant is not None:
                lids = self._tenant_scope(window).lids
            if lids is None or src_lid in lids or dst_lid in lids:
                return True
        return False

    # ------------------------------------------------------------------
    # Topology/device fault plumbing
    # ------------------------------------------------------------------

    def _on_link_drop(self, packet: Any, reason: str) -> None:
        # Mirror link-level losses into the fabric drop log so chaos
        # runs expose one chronological record of everything lost.
        from repro.net.network import DropReason
        self.network.drops.append(DropReason(self.sim.now, packet, reason))
        self._record(reason, *self.packet_id(packet))

    def _evict_tick(self, window: FaultWindow) -> None:
        if window not in self._active:
            return  # window closed while the tick was in flight
        scope = self._tenant_scope(window)
        for lid in self._scope_lids(window):
            node = self._nodes.get(lid)
            if node is None:
                continue
            vm = node.vm
            candidates = sorted(
                page for page, info in vm._pages.items()  # noqa: SLF001
                if info.pinned == 0)
            if scope is not None:
                owned = scope.pages.get(lid, frozenset())
                candidates = [page for page in candidates if page in owned]
            if candidates:
                picks = self.rng.sample(
                    candidates, min(window.pages, len(candidates)))
                for page in sorted(picks):
                    if vm.evict(page):
                        self._record("evict", lid, page)
        self.sim.schedule(window.period_ns, self._evict_tick, window)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _record(self, action: str, *detail) -> None:
        self.log.append((self.sim.now, action) + detail)
        self.stats[action] = self.stats.get(action, 0) + 1

    def fingerprint(self) -> Tuple:
        """Stable digest of everything the engine did — two runs with
        the same ``(plan, seed)`` must produce equal fingerprints."""
        return (tuple(self.log), tuple(sorted(self.stats.items())))

    def drop_log(self) -> List[Tuple]:
        """The fabric's chronological drop record as comparable rows."""
        return [(d.time, d.reason) + self.packet_id(d.packet)
                for d in self._drops]

    def release(self) -> None:
        """Forget the cell, which points back here (end of run; see
        :meth:`repro.net.network.Network.release`).  ``log``, ``stats``
        and :meth:`drop_log` stay readable."""
        self.cluster = self.network = self.sim = None
        self._nodes = {}
