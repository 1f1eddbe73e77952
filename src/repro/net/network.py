"""The fabric facade: hosts attach by LID, packets route via the switch.

:class:`Network` owns the switch and one full-duplex link per attached
LID.  It exposes:

* ``attach(lid, receive)`` and ``inject(src_lid, packet)`` — a host
  attaches a receive function at its LID and injects its packets there,
* sniffer taps (``add_tap``) observing every injected packet — the
  substrate of the ibdump-equivalent capture layer,
* loss injection rules (``add_loss_rule``) evaluated at injection time,
* per-port statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.net.link import Link
from repro.net.switch import Switch
from repro.sim.engine import Simulator


@dataclass
class PortStats:
    """Counters for one attached LID."""

    tx_packets: int = 0
    tx_bytes: int = 0
    rx_packets: int = 0
    rx_bytes: int = 0
    drops_injected: int = 0
    #: corrupted packets discarded by this port's ICRC check.
    icrc_drops: int = 0


@dataclass
class DropReason:
    """Record of a deliberately dropped packet (for analysis/tests)."""

    time: int
    packet: Any
    reason: str = field(default="loss_rule")


class Network:
    """Single-switch fabric with LID routing, taps, and loss injection."""

    def __init__(self, sim: Simulator, rate: str = "FDR",
                 propagation_ns: int = 500, forward_ns: int = 200):
        self.sim = sim
        self.rate = rate
        self.propagation_ns = propagation_ns
        self.switch = Switch(sim, forward_ns=forward_ns)
        self.stats: Dict[int, PortStats] = {}
        self.drops: List[DropReason] = []
        self._links: Dict[int, Link] = {}
        #: per-LID ``(PortStats, uplink LinkEnd)``, built in
        #: :meth:`attach`: the injection path's one lookup per packet.
        self._egress: Dict[int, Tuple[PortStats, Any]] = {}
        self._taps: List[Callable[[int, int, Any], None]] = []
        self._loss_rules: List[Callable[[Any], bool]] = []
        #: attached RNICs by LID (registered by the device at attach
        #: time); lets the storm coalescer reach the peer QP's state.
        self.devices: Dict[int, Any] = {}
        #: per-tap (lids, synthetic_sink); per-rule lids.  ``lids=None``
        #: means "all traffic".  A tap with a synthetic sink can consume
        #: coalesced rounds as bulk rows; one without forces the pairs it
        #: watches back onto the real per-packet path (requires_real).
        self._tap_meta: Dict[Callable, Tuple[Optional[frozenset],
                                             Optional[Callable]]] = {}
        self._loss_meta: Dict[Callable, Optional[frozenset]] = {}
        #: installed :class:`repro.chaos.engine.ChaosEngine`, or None.
        #: Consulted on every injection (packet faults) and by
        #: :meth:`requires_real` (active windows force per-packet).
        self.chaos: Optional[Any] = None
        self.switch.on_drop = self._on_switch_drop

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def attach(self, lid: int, receive: Callable[[Any], None]) -> None:
        """Attach a host port at ``lid`` delivering packets to ``receive``.

        The host injects its packets with :meth:`inject`.
        """
        if lid in self._links:
            raise ValueError(f"LID {lid} already attached")
        link = Link(self.sim, rate=self.rate,
                    propagation_ns=self.propagation_ns, name=f"lid{lid}")
        switch = self.switch
        stats = PortStats()
        # host -> switch: the uplink's delivery is the crossbar's
        # forward step, ``forward_ns`` after the wire arrival.
        link.a_to_b.deliver = switch._forward  # noqa: SLF001
        link.a_to_b.hop_ns = switch.forward_ns
        link.b_to_a.deliver = self._port_delivery(stats, receive)
        switch.attach(lid, link.b_to_a)
        self._links[lid] = link
        self.stats[lid] = stats
        self._egress[lid] = (stats, link.a_to_b)

    def lids(self) -> List[int]:
        """All attached LIDs."""
        return sorted(self._links)

    # ------------------------------------------------------------------
    # Observation and fault injection
    # ------------------------------------------------------------------

    def add_tap(self, tap: Callable[[int, int, Any], None],
                lids: Optional[Iterable[int]] = None,
                synthetic_sink: Optional[Callable[[list], None]] = None
                ) -> None:
        """Register ``tap(time_ns, src_lid, packet)`` on every injection.

        ``lids`` scopes the tap's *interest* for coalescing decisions: a
        tap that only observes those endpoints does not force unrelated
        QP pairs onto the per-packet path.  (The tap callable itself is
        still invoked for every injection and keeps doing its own LID
        filtering — scoping here changes eligibility, not delivery.)
        ``synthetic_sink(rows)``, when given, receives bulk-synthesised
        capture rows for coalesced rounds, so a capture-capable tap can
        coexist with coalescing without losing packets.
        """
        self._taps.append(tap)
        self._tap_meta[tap] = (
            None if lids is None else frozenset(lids), synthetic_sink)

    def remove_tap(self, tap: Callable[[int, int, Any], None]) -> None:
        """Unregister a tap added with :meth:`add_tap`.

        Removing a tap that is no longer registered (say, after
        :meth:`release`) is a no-op.
        """
        try:
            self._taps.remove(tap)
        except ValueError:
            return
        self._tap_meta.pop(tap, None)

    def add_loss_rule(self, rule: Callable[[Any], bool],
                      lids: Optional[Iterable[int]] = None
                      ) -> Callable[[Any], bool]:
        """Drop (at injection) every packet for which ``rule`` is true.

        ``lids`` scopes which endpoints the rule can affect; traffic
        between a scoped pair must run per-packet (a coalesced round
        would bypass the drop check), while unscoped pairs stay eligible
        for coalescing.

        Returns ``rule`` itself as a removable handle for
        :meth:`remove_loss_rule`, so a fault window can retract its own
        rule without clobbering experiment-owned ones.
        """
        self._loss_rules.append(rule)
        self._loss_meta[rule] = None if lids is None else frozenset(lids)
        return rule

    def remove_loss_rule(self, rule: Callable[[Any], bool]) -> None:
        """Remove one rule added with :meth:`add_loss_rule`.

        Removing a rule that is no longer installed is a no-op, so a
        window may retract its rule even after ``clear_loss_rules()``.
        """
        try:
            self._loss_rules.remove(rule)
        except ValueError:
            return
        self._loss_meta.pop(rule, None)

    def clear_loss_rules(self) -> None:
        """Remove all loss rules."""
        self._loss_rules.clear()
        self._loss_meta.clear()

    def requires_real(self, src_lid: int, dst_lid: int) -> bool:
        """Must traffic between this LID pair run packet-by-packet?

        True when any armed tap without a synthetic sink, or any loss
        rule, is interested in either endpoint (``lids=None`` means
        interested in everything).  This is the per-QP-pair knob the
        coalescer consults: arming an observer disables fast-forwarding
        only for the traffic it can actually observe or affect.
        """
        for tap in self._taps:
            lids, sink = self._tap_meta.get(tap, (None, None))
            if sink is not None:
                continue
            if lids is None or src_lid in lids or dst_lid in lids:
                return True
        for rule in self._loss_rules:
            lids = self._loss_meta.get(rule)
            if lids is None or src_lid in lids or dst_lid in lids:
                return True
        if self.chaos is not None and self.chaos.affects_pair(src_lid, dst_lid):
            return True
        return False

    def synthetic_sinks(self, src_lid: int, dst_lid: int
                        ) -> List[Callable[[list], None]]:
        """Bulk-row sinks interested in traffic between this LID pair."""
        sinks = []
        for tap in self._taps:
            lids, sink = self._tap_meta.get(tap, (None, None))
            if sink is None:
                continue
            if lids is None or src_lid in lids or dst_lid in lids:
                sinks.append(sink)
        return sinks

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def inject(self, src_lid: int, packet: Any) -> None:
        """Entry point for a host transmitting ``packet``.

        Taps and loss rules are guarded so a fabric without an attached
        analyzer or injected faults pays nothing for either feature.
        """
        if self._taps:
            now = self.sim.now
            for tap in self._taps:
                tap(now, src_lid, packet)
        if self._loss_rules:
            for rule in self._loss_rules:
                if rule(packet):
                    stats = self.stats[src_lid]
                    stats.drops_injected += 1
                    self.drops.append(DropReason(self.sim.now, packet))
                    return
        if self.chaos is not None:
            actions = self.chaos.on_inject(src_lid, packet)
            if actions is not None:
                # The engine took over: transmit each (delay, packet)
                # replacement.  An empty list means "dropped".
                for delay, replacement in actions:
                    if delay:
                        self.sim.schedule(delay, self._transmit,
                                          src_lid, replacement)
                    else:
                        self._transmit(src_lid, replacement)
                return
        stats, uplink = self._egress[src_lid]
        stats.tx_packets += 1
        stats.tx_bytes += packet.wire_size
        uplink.transmit(packet)

    def _transmit(self, src_lid: int, packet: Any) -> None:
        """Book tx stats and hand a chaos replacement to the uplink."""
        stats, uplink = self._egress[src_lid]
        stats.tx_packets += 1
        stats.tx_bytes += packet.wire_size
        uplink.transmit(packet)

    def record_injected_drop(self, src_lid: int, packet: Any,
                             reason: str) -> None:
        """Book an injection-time drop (chaos engine drop faults)."""
        self.stats[src_lid].drops_injected += 1
        self.drops.append(DropReason(self.sim.now, packet, reason))

    def _port_delivery(self, stats: PortStats,
                       receive: Callable[[Any], None]
                       ) -> Callable[[Any], None]:
        """The downlink delivery of one port, bound to its stats and
        receiver."""
        drops = self.drops
        sim = self.sim

        def deliver(packet: Any) -> None:
            if packet.corrupted:
                # ICRC validation at the receiving port: a corrupted
                # packet is silently discarded, exactly as a real RNIC
                # does — upper layers only ever notice via
                # timeout/retransmission.
                stats.icrc_drops += 1
                drops.append(DropReason(sim.now, packet, "icrc"))
                return
            stats.rx_packets += 1
            stats.rx_bytes += packet.wire_size
            receive(packet)

        return deliver

    def _on_switch_drop(self, packet: Any, reason: str) -> None:
        self.drops.append(DropReason(self.sim.now, packet, reason))

    # ------------------------------------------------------------------
    # Fabric state helpers (chaos: LID churn and link flaps)
    # ------------------------------------------------------------------

    def detach_lid(self, lid: int) -> None:
        """Remove ``lid`` from the switch forwarding table (LID churn).

        The host port stays attached; traffic *to* the LID drops at the
        switch as ``unknown_lid`` until :meth:`reattach_lid`.
        """
        self.switch.detach(lid)

    def reattach_lid(self, lid: int) -> None:
        """Restore a LID removed with :meth:`detach_lid`."""
        if lid not in self._links:
            raise ValueError(f"LID {lid} was never attached")
        if not self.switch.knows(lid):
            self.switch.attach(lid, self._links[lid].b_to_a)

    def link_up(self, lid: int) -> bool:
        """True when both directions of the LID's link are up."""
        link = self._links[lid]
        return link.a_to_b.up and link.b_to_a.up

    def link_ends(self, lid: int):
        """Both :class:`~repro.net.link.LinkEnd` directions of a LID."""
        link = self._links[lid]
        return (link.a_to_b, link.b_to_a)

    def release(self) -> None:
        """Cut the callbacks that lead back to the attached devices and
        observers (end of run; see
        :meth:`repro.host.cluster.Cluster.release`).

        Port and link counters, ``drops`` and ``chaos`` stay readable;
        an installed chaos engine forgets the cell instead
        (:meth:`repro.chaos.engine.ChaosEngine.release`).
        """
        self.devices.clear()
        self.switch.on_drop = None
        for link in self._links.values():
            link.a_to_b.deliver = link.b_to_a.deliver = None
        self._taps.clear()
        self._tap_meta.clear()
        self.clear_loss_rules()
        if self.chaos is not None:
            self.chaos.release()

    # ------------------------------------------------------------------

    def total_packets(self) -> int:
        """Total packets injected into the fabric (tap-visible count)."""
        return sum(s.tx_packets for s in self.stats.values()) + len(self.drops)
