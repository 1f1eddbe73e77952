"""Point-to-point link with serialisation and propagation delay.

A :class:`Link` joins two :class:`LinkEnd` objects.  Each direction has an
independent transmitter that serialises packets back to back: a packet of
``wire_size`` bytes occupies the transmitter for ``wire_size / bandwidth``
and then arrives at the far end after the propagation delay.  Packets on
one link direction therefore never reorder, which matters for the
back-to-back retransmission bursts at the heart of packet damming.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Dict, Optional

from repro.sim.engine import Simulator

#: Conventional InfiniBand data rates in bytes per second (after encoding).
RATE_BYTES_PER_SEC = {
    "FDR": 56 // 8 * 10**9 * 64 // 66,   # 56 Gb/s, 64/66b encoding
    "EDR": 100 // 8 * 10**9 * 64 // 66,  # 100 Gb/s
    "HDR": 200 // 8 * 10**9 * 64 // 66,  # 200 Gb/s
}

DEFAULT_PROPAGATION_NS = 500  # ~100 m of fibre + PHY latency


class LinkEnd:
    """One direction of a link: a serialising transmitter.

    ``deliver`` is the far side's receive function, invoked with
    ``(packet)`` ``hop_ns`` after the last bit arrives.  ``hop_ns`` is
    the fixed latency of whatever sits behind the far end: the switch's
    ``forward_ns`` on a host-to-switch end (its ``deliver`` is the
    crossbar's forward step), 0 on a switch-to-host end.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        propagation_ns: int,
        name: str = "",
    ):
        self.sim = sim
        self.bandwidth_bytes_per_ns = bandwidth_bps / 1e9 / 8
        self.propagation_ns = propagation_ns
        self.name = name
        self.deliver: Optional[Callable[[Any], None]] = None
        self.hop_ns = 0
        self._busy_until = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        #: physical state: a down direction drops every packet offered to
        #: it (and, when in-flight tracking is enabled, drains packets
        #: already on the wire — their bits are lost mid-link).
        self.up = True
        #: additional one-way delay (chaos latency spikes).
        self.extra_delay_ns = 0
        #: ``on_drop(packet, reason)`` for link-level losses.
        self.on_drop: Optional[Callable[[Any, str], None]] = None
        self.dropped_link_down = 0
        self._track_inflight = False
        self._inflight: Dict[int, Any] = {}  # token -> (event, packet)
        self._inflight_next = 0
        #: wire_size -> serialization_ns.  Traffic uses a handful of
        #: distinct wire sizes (header-only, header+RETH, MTU chunks),
        #: so the hot transmit loop reduces to one dict hit.
        self._ser_cache: Dict[int, int] = {}

    def serialization_ns(self, wire_size: int) -> int:
        """Time the transmitter is occupied by a ``wire_size``-byte packet.

        The result is quantized to the 8 ns tick of the serializer
        clock (the PHY hands off 64-bit words); sub-tick packets still
        occupy the transmitter for at least 1 ns so that back-to-back
        zero-length packets cannot collapse onto one timestamp.
        """
        cached = self._ser_cache.get(wire_size)
        if cached is not None:
            return cached
        # 8 ns quantization: round the tick count, scale back to ns.
        ns = round(wire_size / self.bandwidth_bytes_per_ns / 8) * 8 or 1
        self._ser_cache[wire_size] = ns
        return ns

    def transmit(self, packet: Any) -> int:
        """Queue ``packet`` for transmission; returns its arrival time.

        The arrival time is the wire arrival (last bit at the far end);
        ``deliver`` fires ``hop_ns`` later, as one engine event.  A down
        direction drops the packet immediately (no serialisation, no
        counters beyond ``dropped_link_down``) and returns ``-1``.
        """
        deliver = self.deliver
        if deliver is None:
            raise RuntimeError(f"link end {self.name!r} is not connected")
        if not self.up:
            self.dropped_link_down += 1
            if self.on_drop is not None:
                self.on_drop(packet, "link_down")
            return -1
        wire_size = packet.wire_size
        ser = self._ser_cache.get(wire_size)
        if ser is None:
            ser = self.serialization_ns(wire_size)
        sim = self.sim
        start = sim.now
        busy = self._busy_until
        if busy > start:
            start = busy
        busy = start + ser
        self._busy_until = busy
        arrival = busy + self.propagation_ns + self.extra_delay_ns
        self.tx_packets += 1
        self.tx_bytes += wire_size
        if self._track_inflight:
            token = self._inflight_next
            self._inflight_next = token + 1
            event = sim.timer_at(arrival, self._tracked_deliver, token,
                                 packet)
            self._inflight[token] = (event, packet)
        else:
            # ``Simulator.at`` inlined: one plain heap entry per packet.
            sim._seq = seq = sim._seq + 1  # noqa: SLF001
            sim._pending += 1  # noqa: SLF001
            heappush(sim._queue,  # noqa: SLF001
                     (arrival + self.hop_ns, seq, deliver, (packet,)))
        return arrival

    # ------------------------------------------------------------------
    # Link state (chaos: flaps and latency spikes)
    # ------------------------------------------------------------------

    def enable_inflight_tracking(self) -> None:
        """Track delivery events so :meth:`set_down` can drain the wire.

        Tracking changes no timing: the wire arrival becomes a
        cancellable timer at the arrival instant, and its trampoline
        hands the packet to ``deliver`` ``hop_ns`` later, so every
        packet reaches its receiver at the same nanosecond as on an
        untracked end.  Only the wire leg is cancellable: a packet that
        has already arrived (say, one inside the switch's forwarding
        hop) survives a later :meth:`set_down`.  Tracking is enabled up
        front for any link a chaos plan may flap, so whether the flap
        fires or not the instrumented timing is the same.
        """
        self._track_inflight = True

    def _tracked_deliver(self, token: int, packet: Any) -> None:
        self._inflight.pop(token, None)
        if self.hop_ns:
            self.sim.schedule(self.hop_ns, self.deliver, packet)
        else:
            self.deliver(packet)

    def set_down(self) -> None:
        """Take this direction down; tracked in-flight packets drain.

        Bits already on the wire are lost mid-link: every pending
        tracked delivery is cancelled and reported via ``on_drop`` with
        reason ``"link_down"`` (in transmission order).
        """
        self.up = False
        if not self._inflight:
            return
        drained = sorted(self._inflight.items())
        self._inflight.clear()
        for _token, (event, packet) in drained:
            if not event.pending:
                continue
            event.cancel()
            self.dropped_link_down += 1
            if self.on_drop is not None:
                self.on_drop(packet, "link_down")

    def set_up(self) -> None:
        """Bring this direction back up."""
        self.up = True

    def bulk_occupy(self, packets: int, nbytes: int, busy_until: int) -> None:
        """Account for a batch of transmissions applied in closed form.

        Storm coalescing computes the serialisation timeline of a whole
        retransmission round arithmetically (using this end's own
        :meth:`serialization_ns` values and running ``busy_until``) and
        then books the aggregate here: counters advance by the batch and
        the transmitter is occupied until the precomputed ``busy_until``
        — exactly the state a packet-by-packet replay would leave.
        """
        self.tx_packets += packets
        self.tx_bytes += nbytes
        if busy_until > self._busy_until:
            self._busy_until = busy_until

    @property
    def busy_until(self) -> int:
        """Timestamp until which the transmitter is occupied."""
        return self._busy_until


class Link:
    """A full-duplex link: two independent :class:`LinkEnd` directions.

    ``a_to_b`` carries traffic from side A to side B and vice versa.  The
    endpoints' ``deliver`` callbacks are wired by the owning
    :class:`repro.net.network.Network`.
    """

    def __init__(
        self,
        sim: Simulator,
        rate: str = "FDR",
        propagation_ns: int = DEFAULT_PROPAGATION_NS,
        name: str = "",
    ):
        if rate not in RATE_BYTES_PER_SEC:
            raise ValueError(f"unknown link rate {rate!r}; expected one of "
                             f"{sorted(RATE_BYTES_PER_SEC)}")
        bandwidth_bps = RATE_BYTES_PER_SEC[rate] * 8
        self.rate = rate
        self.name = name
        self.a_to_b = LinkEnd(sim, bandwidth_bps, propagation_ns, f"{name}:a->b")
        self.b_to_a = LinkEnd(sim, bandwidth_bps, propagation_ns, f"{name}:b->a")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.rate}>"
