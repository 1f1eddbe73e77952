"""The in-simulator ``ibdump``.

A :class:`Sniffer` registers a tap on the fabric and records one
:class:`CaptureRecord` per injected packet.  As with the real tool, the
capture can be restricted to the traffic of one HCA (LID) — the paper
could only run ibdump on the KNL nodes where it had sudo.

The hot path is allocation-free: each tap call stores one raw tuple into
a preallocated slot of a ring buffer (grown in fixed chunks, or wrapping
when a ``capacity`` is set), and :class:`CaptureRecord` objects are only
materialised when :attr:`Sniffer.records` is actually read.  A fabric
with no sniffer attached pays nothing at all — the network only walks
its tap list when it is non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.ib.opcodes import Opcode, Syndrome
from repro.ib.packets import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

#: Ring-buffer growth increment: slots are preallocated this many at a
#: time so steady-state capture never allocates per packet.
_CHUNK = 4096


@dataclass
class CaptureRecord:
    """One captured packet."""

    time_ns: int
    src_lid: int
    dst_lid: int
    src_qpn: int
    dst_qpn: int
    opcode: Opcode
    psn: int
    payload_size: int
    syndrome: Optional[Syndrome]
    retransmission: bool

    @property
    def is_rnr_nak(self) -> bool:
        """RNR NAK packet."""
        return self.syndrome is Syndrome.RNR_NAK

    @property
    def is_seq_nak(self) -> bool:
        """PSN sequence error NAK."""
        return self.syndrome is Syndrome.NAK_PSN_SEQ_ERR

    def describe(self) -> str:
        """One-line rendering, ibdump style."""
        parts = [f"{self.time_ns / 1e6:10.4f} ms",
                 f"lid{self.src_lid}->lid{self.dst_lid}",
                 f"qp{self.src_qpn}->qp{self.dst_qpn}",
                 self.opcode.value, f"psn={self.psn}"]
        if self.syndrome is not None and self.syndrome is not Syndrome.ACK:
            parts.append(self.syndrome.value)
        if self.retransmission:
            parts.append("(retx)")
        if self.payload_size:
            parts.append(f"{self.payload_size}B")
        return " ".join(parts)


class Sniffer:
    """Fabric tap collecting :class:`CaptureRecord` objects.

    ``capacity`` bounds the buffer: when set, the ring wraps and only the
    newest ``capacity`` packets are kept (``dropped`` counts the rest) —
    the way a fixed-size ibdump ring would behave on a long run.

    Storm rounds the simulator fast-forwards arrive as bulk-synthesised
    rows through :meth:`bulk_append`, identical to the records the
    per-packet tap would have produced, so attaching a sniffer never
    moves the traffic it watches onto the per-packet path.
    """

    def __init__(self, network: "Network", lid: Optional[int] = None,
                 capacity: Optional[int] = None):
        self.network = network
        self.lid = lid
        self.capacity = capacity
        #: Packets that fell off the front of a bounded ring.
        self.dropped = 0
        self._slots: List[Optional[Tuple]] = []
        self._count = 0       # logical records currently held
        self._start = 0       # ring read position (bounded mode only)
        self._version = 0     # bumped on every mutation
        self._cache: Optional[List[CaptureRecord]] = None
        self._cache_version = -1
        self._attached = False
        self.attach()

    def attach(self) -> None:
        """Start capturing."""
        if not self._attached:
            self.network.add_tap(
                self._tap,
                lids=None if self.lid is None else (self.lid,),
                synthetic_sink=self.bulk_append)
            self._attached = True

    def detach(self) -> None:
        """Stop capturing."""
        if self._attached:
            self.network.remove_tap(self._tap)
            self._attached = False

    def clear(self) -> None:
        """Drop the records collected so far."""
        self._count = 0
        self._start = 0
        self.dropped = 0
        self._version += 1

    def _tap(self, time_ns: int, src_lid: int, packet: Packet) -> None:
        if self.lid is not None and self.lid not in (packet.src_lid,
                                                     packet.dst_lid):
            return
        aeth = packet.aeth
        row = (time_ns, packet.src_lid, packet.dst_lid, packet.src_qpn,
               packet.dst_qpn, packet.opcode, packet.psn,
               packet.payload_size, aeth.syndrome if aeth else None,
               packet.retransmission)
        capacity = self.capacity
        if capacity is not None and self._count >= capacity:
            # Bounded ring: overwrite the oldest slot.
            slots = self._slots
            if len(slots) < capacity:
                slots.extend([None] * (capacity - len(slots)))
            slots[self._start] = row
            self._start = (self._start + 1) % capacity
            self.dropped += 1
        else:
            index = self._count
            slots = self._slots
            if index >= len(slots):
                grow = _CHUNK if capacity is None else min(_CHUNK, capacity)
                slots.extend([None] * max(grow, 1))
            slots[index] = row
            self._count = index + 1
        self._version += 1

    def bulk_append(self, rows: List[Tuple]) -> None:
        """Record a batch of synthesised capture rows in one call.

        Rows use the same tuple layout the per-packet tap stores and
        must already be in time order.  This is the sink the network
        feeds for coalesced storm rounds; bounded rings wrap exactly as
        they would have packet by packet, and the lazy record cache is
        invalidated once for the whole batch.
        """
        capacity = self.capacity
        lid = self.lid
        for row in rows:
            if lid is not None and lid not in (row[1], row[2]):
                continue
            if capacity is not None and self._count >= capacity:
                slots = self._slots
                if len(slots) < capacity:
                    slots.extend([None] * (capacity - len(slots)))
                slots[self._start] = row
                self._start = (self._start + 1) % capacity
                self.dropped += 1
            else:
                index = self._count
                slots = self._slots
                if index >= len(slots):
                    grow = _CHUNK if capacity is None else min(_CHUNK,
                                                               capacity)
                    slots.extend([None] * max(grow, 1))
                slots[index] = row
                self._count = index + 1
        self._version += 1

    def _rows(self) -> List[Tuple]:
        """The held raw rows, oldest first."""
        count = self._count
        if self.capacity is not None and self.dropped:
            start = self._start
            ring = self._slots[:self.capacity]
            return ring[start:count] + ring[:start]
        return self._slots[:count]

    @property
    def records(self) -> List[CaptureRecord]:
        """Captured packets as :class:`CaptureRecord` objects.

        Materialised lazily and cached until the next captured packet;
        the tap itself never builds record objects.
        """
        if self._cache is None or self._cache_version != self._version:
            self._cache = [CaptureRecord(*row) for row in self._rows()]
            self._cache_version = self._version
        return self._cache

    # ------------------------------------------------------------------

    def for_qp(self, qpn: int) -> List[CaptureRecord]:
        """Records involving one QP (either direction)."""
        return [r for r in self.records if qpn in (r.src_qpn, r.dst_qpn)]

    def count(self, opcode: Optional[Opcode] = None) -> int:
        """Total records, optionally filtered by opcode.

        Works off the raw rows — no record materialisation.
        """
        if opcode is None:
            return self._count
        return sum(1 for row in self._rows() if row[5] is opcode)

    def dump(self, limit: Optional[int] = None) -> str:
        """Multi-line textual dump (for examples and debugging)."""
        rows = self.records if limit is None else self.records[:limit]
        return "\n".join(r.describe() for r in rows)
