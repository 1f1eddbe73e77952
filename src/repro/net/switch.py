"""A single-stage crossbar switch with cut-through forwarding.

The switch forwards packets from host-facing links: it looks up the
destination LID in its forwarding table and transmits on the output
port's link (which serialises, so congestion on an output port naturally
queues packets).  The fixed forwarding latency ``forward_ns`` is not a
separate event: each host-to-switch :class:`~repro.net.link.LinkEnd`
carries it as its ``hop_ns``, so a packet's uplink delivery *is* its
:meth:`Switch._forward` call, ``forward_ns`` after the wire arrival.
Unknown destination LIDs are dropped — this is how the Figure 2 timeout
experiment provokes packet loss, exactly as the paper did by configuring
a wrong destination LID on a QP.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.net.link import LinkEnd
from repro.sim.engine import Simulator

DEFAULT_FORWARD_NS = 200  # cut-through switch latency (~0.2 us)


class Switch:
    """Forwards packets between link ends by destination LID."""

    def __init__(self, sim: Simulator, forward_ns: int = DEFAULT_FORWARD_NS,
                 name: str = "switch0"):
        self.sim = sim
        self.forward_ns = forward_ns
        self.name = name
        self._ports: Dict[int, LinkEnd] = {}
        self.forwarded = 0
        self.dropped_unknown_lid = 0
        self.on_drop: Optional[Callable[[Any, str], None]] = None

    def attach(self, lid: int, downlink: LinkEnd) -> None:
        """Bind ``lid`` to the switch-to-host link end ``downlink``."""
        if lid in self._ports:
            raise ValueError(f"LID {lid} already attached to {self.name}")
        self._ports[lid] = downlink

    def detach(self, lid: int) -> None:
        """Remove a LID (its future packets will be dropped)."""
        self._ports.pop(lid, None)

    def knows(self, lid: int) -> bool:
        """True when the switch can forward to ``lid``."""
        return lid in self._ports

    def _forward(self, packet: Any) -> None:
        """Route one packet, ``forward_ns`` after its uplink arrival."""
        port = self._ports.get(packet.dst_lid)
        if port is None:
            self.dropped_unknown_lid += 1
            if self.on_drop is not None:
                self.on_drop(packet, "unknown_lid")
            return
        self.forwarded += 1
        port.transmit(packet)
