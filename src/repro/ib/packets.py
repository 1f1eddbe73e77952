"""Wire-level packet records — the zero-allocation data path.

A :class:`Packet` mirrors the headers relevant to the paper's analysis:
the routing fields of the LRH (LIDs), the BTH (opcode, destination QP,
PSN, ack-request bit), the RETH for RDMA operations (remote address,
rkey, DMA length) and the AETH for acknowledgements (syndrome, RNR
timer).

The flood experiments push millions of packets through the fabric per
sweep point, so the per-packet cost is engineered down:

* ``Packet``/``Reth``/``Aeth`` are ``__slots__`` classes; ``wire_size``
  and ``payload_size`` are computed **once at construction** (header
  fields are fixed for the life of a packet — pass ``payload``/``reth``/
  ``aeth`` to the constructor, do not mutate them afterwards unless the
  replacement has the same wire footprint);
* ACK/NAK headers are interned flyweights (:meth:`Aeth.of`): a
  retransmit storm re-sends the same (syndrome, MSN, timer) triple
  thousands of times and shares one immutable instance;
* payloads are either real ``bytes`` (integrity mode, the default — so
  tests can assert end-to-end data integrity) or a :class:`PayloadRef`
  ``(pattern, length)`` descriptor (lazy mode, used by the big flood
  sweeps) that materialises bytes only on demand.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple, Union

from repro.ib.opcodes import (Opcode, Syndrome, is_read_response,
                              is_request)

# Header byte counts (LRH 8, BTH 12, ICRC 4, VCRC 2).
BASE_HEADER_BYTES = 26
RETH_BYTES = 16
AETH_BYTES = 4
ATOMIC_ETH_BYTES = 28

_packet_serial = itertools.count(1)


def reset_packet_serials(start: int = 1) -> None:
    """Restart the packet serial counter.

    Called by :class:`repro.host.cluster.Cluster` at construction so
    every experiment run numbers its packets from ``start`` — back-to-
    back runs in one process produce the same serials as fresh sweep
    worker processes (serial-vs-parallel determinism).
    """
    global _packet_serial
    _packet_serial = itertools.count(start)


def advance_packet_serials(count: int) -> None:
    """Skip ``count`` serial numbers without building packets.

    Storm coalescing synthesises whole retransmission rounds without
    constructing :class:`Packet` objects; advancing the counter by the
    round's packet count keeps the serials of every later *real* packet
    identical to an uncoalesced run.
    """
    global _packet_serial
    if count > 0:
        _packet_serial = itertools.count(next(_packet_serial) + count - 1)


class PayloadRef:
    """A lazy payload: ``(pattern, length)`` instead of real bytes.

    Big sweeps do not need payload *contents*, only payload *sizes*
    (which determine wire occupancy); a descriptor skips the
    memory-image read/write and the bytes allocation on every hop.
    ``to_bytes`` materialises a real buffer when something (debugging,
    an integrity check) insists on bytes.
    """

    __slots__ = ("pattern", "length")

    def __init__(self, pattern: int, length: int):
        self.pattern = pattern & 0xFF
        self.length = length

    def __len__(self) -> int:
        return self.length

    def to_bytes(self) -> bytes:
        """Materialise the described payload."""
        return bytes([self.pattern]) * self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PayloadRef {self.pattern:#04x}x{self.length}>"


#: A packet payload: real bytes, a lazy descriptor, or absent.
Payload = Union[bytes, PayloadRef]


def payload_bytes(payload: Optional[Payload]) -> bytes:
    """Real bytes of a payload, materialising descriptors."""
    if payload is None:
        return b""
    if type(payload) is PayloadRef:
        return payload.to_bytes()
    return payload


class Reth:
    """RDMA Extended Transport Header: where the operation targets."""

    __slots__ = ("vaddr", "rkey", "dma_length")

    def __init__(self, vaddr: int, rkey: int, dma_length: int):
        self.vaddr = vaddr
        self.rkey = rkey
        self.dma_length = dma_length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Reth {self.vaddr:#x}+{self.dma_length} rkey={self.rkey:#x}>"


class Aeth:
    """ACK Extended Transport Header: syndrome + message sequence number.

    Instances obtained through :meth:`of` are interned flyweights and
    MUST be treated as immutable (the transport only ever reads them).
    """

    __slots__ = ("syndrome", "msn", "rnr_timer_ns")

    _interned: Dict[Tuple[Syndrome, int, int], "Aeth"] = {}

    def __init__(self, syndrome: Syndrome, msn: int = 0,
                 rnr_timer_ns: int = 0):
        self.syndrome = syndrome
        self.msn = msn
        self.rnr_timer_ns = rnr_timer_ns

    @classmethod
    def of(cls, syndrome: Syndrome, msn: int = 0,
           rnr_timer_ns: int = 0) -> "Aeth":
        """Interned flyweight lookup — the retransmit-storm fast path."""
        key = (syndrome, msn, rnr_timer_ns)
        cached = cls._interned.get(key)
        if cached is None:
            cached = cls(syndrome, msn, rnr_timer_ns)
            cls._interned[key] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Aeth {self.syndrome.value} msn={self.msn}>"


# Per-opcode wire traits, precomputed once and attached to each member
# as ``opcode.wire_traits``:
# (is_request, is_read_response, is_ack, atomic_eth_bytes).
# ``Packet.__init__`` reads the attribute; a dict keyed by the member
# would run the Python-level ``Enum.__hash__`` once per packet.
for _op in Opcode:
    _op.wire_traits = (
        is_request(_op), is_read_response(_op),
        _op in (Opcode.ACKNOWLEDGE, Opcode.ATOMIC_ACKNOWLEDGE),
        ATOMIC_ETH_BYTES if _op in (Opcode.COMPARE_SWAP,
                                    Opcode.FETCH_ADD) else 0)
del _op


class Packet:
    """One InfiniBand packet on the simulated wire.

    All header-derived quantities (``wire_size``, ``payload_size``, the
    direction predicates) are plain attributes fixed at construction —
    the link/switch/NIC hot loops read them without recomputation.
    """

    __slots__ = ("src_lid", "dst_lid", "src_qpn", "dst_qpn", "opcode",
                 "psn", "ack_req", "payload", "reth", "aeth",
                 "retransmission", "serial", "payload_size", "wire_size",
                 "is_request", "is_read_response", "is_ack", "corrupted")

    def __init__(self, src_lid: int, dst_lid: int, src_qpn: int,
                 dst_qpn: int, opcode: Opcode, psn: int,
                 ack_req: bool = False,
                 payload: Optional[Payload] = None,
                 reth: Optional[Reth] = None,
                 aeth: Optional[Aeth] = None,
                 retransmission: bool = False,
                 serial: Optional[int] = None):
        self.src_lid = src_lid
        self.dst_lid = dst_lid
        self.src_qpn = src_qpn
        self.dst_qpn = dst_qpn
        self.opcode = opcode
        self.psn = psn
        self.ack_req = ack_req
        self.payload = payload
        self.reth = reth
        self.aeth = aeth
        #: Set on retransmitted request packets (observability only; real
        #: BTHs have no such flag, but ibdump analysis infers it from PSN
        #: reuse).
        self.retransmission = retransmission
        self.serial = serial if serial is not None else next(_packet_serial)
        #: Set by chaos corruption faults; the receiving port's ICRC
        #: check silently discards marked packets (wire footprint is
        #: unchanged — corruption flips bits, not lengths).
        self.corrupted = False
        is_req, is_rresp, is_ack, atomic_bytes = opcode.wire_traits
        self.is_request = is_req
        self.is_read_response = is_rresp
        self.is_ack = is_ack
        if payload is None:
            size = 0
        elif type(payload) is PayloadRef:
            # the descriptor's field, not the Python-level __len__
            size = payload.length
        else:
            size = len(payload)
        self.payload_size = size
        size += BASE_HEADER_BYTES + atomic_bytes
        if reth is not None:
            size += RETH_BYTES
        if aeth is not None:
            size += AETH_BYTES
        self.wire_size = size

    @property
    def is_nak(self) -> bool:
        """True when this is a negative acknowledgement of any kind."""
        return self.aeth is not None and self.aeth.syndrome is not Syndrome.ACK

    def describe(self) -> str:
        """Terse human-readable form used by the capture layer."""
        parts = [self.opcode.value, f"psn={self.psn}"]
        if self.retransmission:
            parts.append("retx")
        if self.aeth is not None and self.aeth.syndrome is not Syndrome.ACK:
            parts.append(self.aeth.syndrome.value)
        if self.payload_size:
            parts.append(f"{self.payload_size}B")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet #{self.serial} {self.describe()} "
                f"{self.src_lid}/{self.src_qpn}->{self.dst_lid}/{self.dst_qpn}>")
