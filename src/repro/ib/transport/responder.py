"""The RC responder (receive-side) state machine.

Implements ePSN tracking, execution of READ/WRITE/SEND/ATOMIC requests,
duplicate-request replay, PSN-sequence-error NAKs, and the two ODP
behaviours of Section IV:

* **server-side ODP** — an arriving request whose target pages are not in
  the NIC translation table raises a (coalesced) network page fault and
  is answered with an RNR NAK; the responder keeps *no* per-packet state
  ("the server is stateless", Section VI-C) and the requester's
  retransmission eventually finds the page mapped;
* **the ConnectX-4 damming flaw** — after servicing a *replayed* request
  (either a duplicate or a request previously RNR-NAKed because of a
  fault), new requests arriving back-to-back within a tiny window are
  silently discarded without a NAK and without advancing the ePSN.  This
  single defect makes every damming observation of Section V emerge:
  the lost second READ (Fig. 5), the interval ranges tracking the RNR
  delay and the 0.5 ms client retransmission period (Fig. 6), and the
  NAK(PSN sequence error) fast-recovery with 3+ operations (Fig. 8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, Dict, Optional, Set

from collections import deque

from repro.ib.opcodes import Opcode, Syndrome
from repro.ib.packets import Aeth, Packet, PayloadRef
from repro.ib.transport.psn import PSN_BITS, PSN_MASK, psn_add, psn_diff
from repro.ib.verbs.enums import Access, QpState, WcOpcode, WcStatus
from repro.ib.verbs.wr import RecvRequest, WorkCompletion

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.verbs.mr import MemoryRegion
    from repro.ib.verbs.qp import QueuePair

_PSN_SPACE = 1 << PSN_BITS
_PSN_HALF = _PSN_SPACE >> 1

# Hot-path enum members as module constants: on CPython 3.11 a
# ``Enum.MEMBER`` attribute load costs ~100 ns, a global ~10 ns.
_QP_ERROR = QpState.ERROR
_READ_REQUEST = Opcode.RDMA_READ_REQUEST
_REMOTE_READ = Access.REMOTE_READ.value
_REMOTE_WRITE = Access.REMOTE_WRITE.value
_REMOTE_ATOMIC = Access.REMOTE_ATOMIC.value
_READ_ONLY = Opcode.RDMA_READ_RESPONSE_ONLY
_READ_FIRST = Opcode.RDMA_READ_RESPONSE_FIRST
_READ_MIDDLE = Opcode.RDMA_READ_RESPONSE_MIDDLE
_READ_LAST = Opcode.RDMA_READ_RESPONSE_LAST

_WRITE_OPS = {Opcode.RDMA_WRITE_FIRST, Opcode.RDMA_WRITE_MIDDLE,
              Opcode.RDMA_WRITE_LAST, Opcode.RDMA_WRITE_ONLY}
_SEND_OPS = {Opcode.SEND_FIRST, Opcode.SEND_MIDDLE,
             Opcode.SEND_LAST, Opcode.SEND_ONLY}


class _MessageAssembly:
    """Reassembly state for an in-progress multi-packet WRITE/SEND."""

    __slots__ = ("mr", "addr", "offset", "recv_wr_id", "is_send")

    def __init__(self, mr: "MemoryRegion", addr: int,
                 recv_wr_id: Optional[int], is_send: bool):
        self.mr = mr
        self.addr = addr
        self.offset = 0
        self.recv_wr_id = recv_wr_id
        self.is_send = is_send


class Responder:
    """Receive-side transport logic for one QP."""

    def __init__(self, qp: "QueuePair"):
        self.qp = qp
        self.sim = qp.rnic.sim
        self.epsn = 0  # set by QueuePair.connect
        self.msn = 0
        self.recv_queue: Deque[RecvRequest] = deque()
        self._faulted_psns: Set[int] = set()
        self._highest_seen_psn: Optional[int] = None
        self._flaw_drop_until = -1
        self._seq_nak_outstanding = False
        self._assembly: Optional[_MessageAssembly] = None
        self._atomic_cache: Dict[int, bytes] = {}
        # statistics
        self.requests_executed = 0
        self.duplicates_serviced = 0
        self.flaw_drops = 0
        self.rnr_naks_sent = 0
        self.seq_naks_sent = 0

    # ------------------------------------------------------------------

    def post_recv(self, rr: RecvRequest) -> None:
        """Post a receive buffer for inbound SENDs."""
        self.recv_queue.append(rr)

    def flush_on_error(self) -> None:
        """ERROR-state entry: flush posted receives with WR_FLUSH_ERR
        and abandon any half-assembled inbound message."""
        self._assembly = None
        while self.recv_queue:
            rr = self.recv_queue.popleft()
            self.qp.recv_cq.push(WorkCompletion(
                wr_id=rr.wr_id,
                status=WcStatus.WR_FLUSH_ERR,
                opcode=WcOpcode.RECV,
                byte_len=0,
                qp_num=self.qp.qpn,
                completed_at=self.sim.now,
            ))

    def on_packet(self, packet: Packet) -> None:
        """Entry point for requester->responder packets."""
        qp = self.qp
        if qp.state is _QP_ERROR:
            return
        psn = packet.psn
        # ``psn_diff(psn, epsn)`` and the seen-PSN tracking, inline.
        diff = (psn - self.epsn) & PSN_MASK
        if diff >= _PSN_HALF:
            diff -= _PSN_SPACE
        highest = self._highest_seen_psn
        unseen = highest is None or 0 < (psn - highest) & PSN_MASK < _PSN_HALF
        if unseen and diff >= 0 and self.sim.now < self._flaw_drop_until \
                and qp.rnic.profile.damming_flaw:
            # The ConnectX-4 defect: a never-before-seen request
            # tailgating a replayed one inside the same burst vanishes
            # without a trace (dropped before PSN tracking, so it stays
            # "unseen" for later bursts and the dam holds).
            self.flaw_drops += 1
            qp.rnic.stats["flaw_drops"] += 1
            # ``b`` carries the victim's (client's) QPN so the diagnosis
            # engine can corroborate a stall without fabric knowledge.
            tel = qp.rnic.telemetry
            if tel is not None:
                tel.instant(self.sim.now, "damming.flaw_drop",
                            qp.rnic.lid, qp.qpn, psn, qp.remote_qpn)
            return
        if unseen:
            self._highest_seen_psn = psn
        if diff > 0:
            if self._seq_nak_outstanding:
                m = qp.mitigation
                if m is None or not m.eager_seq_nak:
                    return  # squelched behind the outstanding NAK
            self._send_seq_nak()
        elif packet.opcode is _READ_REQUEST:
            # The spec permits re-execution of duplicate READs; the
            # replayed service arms the flaw window (client-side damming).
            self._execute_read(packet, diff < 0)
        elif diff == 0:
            self._execute_new(packet)
        else:
            self._handle_duplicate(packet)

    # ------------------------------------------------------------------
    # New requests
    # ------------------------------------------------------------------

    def _execute_new(self, packet: Packet) -> None:
        opcode = packet.opcode
        if opcode in _WRITE_OPS:
            self._execute_write(packet)
        elif opcode in _SEND_OPS:
            self._execute_send(packet)
        elif opcode in (Opcode.COMPARE_SWAP, Opcode.FETCH_ADD):
            self._execute_atomic(packet)

    def _execute_read(self, packet: Packet, duplicate: bool) -> None:
        reth = packet.reth
        mr = self._validate(reth.rkey, reth.vaddr, reth.dma_length,
                            _REMOTE_READ)
        psn = packet.psn
        if mr is None:
            self._send_fatal_nak(Syndrome.NAK_REMOTE_ACCESS_ERR, psn)
            return
        qp = self.qp
        rnic = qp.rnic
        odp = rnic.odp
        if mr.mode.is_odp and not odp.responder_range_ready(
                mr, reth.vaddr, reth.dma_length):
            odp.responder_raise_faults(mr, reth.vaddr, reth.dma_length)
            self._faulted_psns.add(psn)
            self._send_rnr_nak(psn)
            return
        faulted = self._faulted_psns
        replay = duplicate or psn in faulted
        faulted.discard(psn)
        mtu = rnic.profile.mtu
        length = reth.dma_length
        count = (length + mtu - 1) // mtu or 1
        lazy = rnic.lazy_payloads
        if lazy:
            # Zero-copy mode: response payloads are (pattern, length)
            # descriptors — the wire model only consumes sizes, so the
            # DMA read and byte slicing are skipped entirely.
            pattern = reth.vaddr & 0xFF if length else 0
        else:
            data = mr.vm.read(reth.vaddr, length)
        src_lid, dst_lid = rnic.lid, qp.remote_lid
        src_qpn, dst_qpn = qp.qpn, qp.remote_qpn
        tail = count - 1
        tx_enqueue = rnic.tx_enqueue
        for index in range(count):
            offset = index * mtu
            if lazy:
                chunk = PayloadRef(pattern, min(mtu, length - offset))
            else:
                chunk = data[offset:offset + mtu]
            if index == tail:
                opcode = _READ_ONLY if index == 0 else _READ_LAST
            else:
                opcode = _READ_FIRST if index == 0 else _READ_MIDDLE
            tx_enqueue(Packet(src_lid, dst_lid, src_qpn, dst_qpn, opcode,
                              (psn + index) & PSN_MASK, False, chunk))
        if not duplicate:
            self.epsn = (psn + count) & PSN_MASK
            self.msn += 1
            self.requests_executed += 1
            self._seq_nak_outstanding = False
        else:
            self.duplicates_serviced += 1
        if replay:
            self._arm_flaw_window()

    @staticmethod
    def _read_opcode(index: int, total: int) -> Opcode:
        if total == 1:
            return _READ_ONLY
        if index == 0:
            return _READ_FIRST
        if index == total - 1:
            return _READ_LAST
        return _READ_MIDDLE

    def _execute_write(self, packet: Packet) -> None:
        opcode = packet.opcode
        starting = opcode in (Opcode.RDMA_WRITE_FIRST, Opcode.RDMA_WRITE_ONLY)
        if starting:
            reth = packet.reth
            mr = self._validate(reth.rkey, reth.vaddr, reth.dma_length,
                                _REMOTE_WRITE)
            if mr is None:
                self._send_fatal_nak(Syndrome.NAK_REMOTE_ACCESS_ERR, packet.psn)
                return
            assembly = _MessageAssembly(mr, reth.vaddr, None, is_send=False)
        else:
            assembly = self._assembly
            if assembly is None or assembly.is_send:
                self._send_fatal_nak(Syndrome.NAK_INVALID_REQUEST, packet.psn)
                return
        self._continue_message(packet, assembly, starting)

    def _execute_send(self, packet: Packet) -> None:
        opcode = packet.opcode
        starting = opcode in (Opcode.SEND_FIRST, Opcode.SEND_ONLY)
        if starting:
            if not self.recv_queue:
                # The classic Receiver-Not-Ready condition.
                self._faulted_psns.add(packet.psn)
                self._send_rnr_nak(packet.psn, fault=False)
                return
            rr = self.recv_queue[0]
            assembly = _MessageAssembly(rr.local.mr, rr.local.addr,
                                        rr.wr_id, is_send=True)
        else:
            assembly = self._assembly
            if assembly is None or not assembly.is_send:
                self._send_fatal_nak(Syndrome.NAK_INVALID_REQUEST, packet.psn)
                return
        self._continue_message(packet, assembly, starting)

    def _continue_message(self, packet: Packet, assembly: _MessageAssembly,
                          starting: bool) -> None:
        payload = packet.payload
        size = packet.payload_size
        target_addr = assembly.addr + assembly.offset
        mr = assembly.mr
        odp = self.qp.rnic.odp
        if mr.mode.is_odp and size and not odp.responder_range_ready(
                mr, target_addr, size):
            odp.responder_raise_faults(mr, target_addr, size)
            self._faulted_psns.add(packet.psn)
            self._send_rnr_nak(packet.psn)
            return
        replay = packet.psn in self._faulted_psns
        self._faulted_psns.discard(packet.psn)
        if size and not isinstance(payload, PayloadRef):
            mr.vm.write(target_addr, payload)
        last = packet.opcode in (Opcode.RDMA_WRITE_LAST, Opcode.RDMA_WRITE_ONLY,
                                 Opcode.SEND_LAST, Opcode.SEND_ONLY)
        if starting and assembly.is_send:
            self.recv_queue.popleft()
        assembly.offset += size
        self._assembly = None if last else assembly
        self.epsn = psn_add(packet.psn, 1)
        self.requests_executed += 1
        self._seq_nak_outstanding = False
        if last:
            self.msn += 1
            self._send_ack(packet.psn)
            if assembly.is_send:
                self.qp.recv_cq.push(WorkCompletion(
                    wr_id=assembly.recv_wr_id,
                    status=WcStatus.SUCCESS,
                    opcode=WcOpcode.RECV,
                    byte_len=assembly.offset,
                    qp_num=self.qp.qpn,
                    completed_at=self.sim.now,
                ))
        if replay:
            self._arm_flaw_window()

    def _execute_atomic(self, packet: Packet) -> None:
        reth = packet.reth
        mr = self._validate(reth.rkey, reth.vaddr, 8, _REMOTE_ATOMIC)
        if mr is None:
            self._send_fatal_nak(Syndrome.NAK_REMOTE_ACCESS_ERR, packet.psn)
            return
        odp = self.qp.rnic.odp
        if mr.mode.is_odp and not odp.responder_range_ready(mr, reth.vaddr, 8):
            odp.responder_raise_faults(mr, reth.vaddr, 8)
            self._faulted_psns.add(packet.psn)
            self._send_rnr_nak(packet.psn)
            return
        replay = packet.psn in self._faulted_psns
        self._faulted_psns.discard(packet.psn)
        original = mr.vm.read(reth.vaddr, 8)
        value = int.from_bytes(original, "little")
        operand = int.from_bytes(packet.payload[:8], "little")
        if packet.opcode is Opcode.FETCH_ADD:
            new_value = (value + operand) & (2 ** 64 - 1)
        else:  # COMPARE_SWAP
            swap = int.from_bytes(packet.payload[8:16], "little")
            new_value = swap if value == operand else value
        mr.vm.write(reth.vaddr, new_value.to_bytes(8, "little"))
        self._atomic_cache[packet.psn] = original
        self._send_response(Opcode.ATOMIC_ACKNOWLEDGE, packet.psn, original,
                            aeth=Aeth.of(Syndrome.ACK, self.msn))
        self.epsn = psn_add(packet.psn, 1)
        self.msn += 1
        self.requests_executed += 1
        self._seq_nak_outstanding = False
        if replay:
            self._arm_flaw_window()

    # ------------------------------------------------------------------
    # Duplicates and sequence errors
    # ------------------------------------------------------------------

    def _handle_duplicate(self, packet: Packet) -> None:
        opcode = packet.opcode
        if opcode in (Opcode.COMPARE_SWAP, Opcode.FETCH_ADD):
            cached = self._atomic_cache.get(packet.psn)
            if cached is not None:
                self.duplicates_serviced += 1
                self._send_response(Opcode.ATOMIC_ACKNOWLEDGE, packet.psn,
                                    cached,
                                    aeth=Aeth.of(Syndrome.ACK, self.msn))
                self._arm_flaw_window()
            return
        # Duplicate WRITE/SEND segment: confirm progress with an ACK on
        # the last/only packet, ignore the payload.
        if opcode in (Opcode.RDMA_WRITE_LAST, Opcode.RDMA_WRITE_ONLY,
                      Opcode.SEND_LAST, Opcode.SEND_ONLY):
            self.duplicates_serviced += 1
            self._send_ack(psn_add(self.epsn, -1))
            self._arm_flaw_window()

    def _send_seq_nak(self) -> None:
        """NAK an out-of-sequence request.

        The caller squelches repeats: while one NAK is outstanding, a
        further gap is NAKed only under IRN-style eager loss feedback
        (``mitigation.eager_seq_nak``), which NAKs every out-of-sequence
        arrival so the selective requester learns about a hole as soon
        as any later packet lands.
        """
        self._seq_nak_outstanding = True
        self.seq_naks_sent += 1
        self.qp.rnic.stats["seq_naks"] += 1
        tel = self.qp.rnic.telemetry
        if tel is not None:
            tel.instant(self.sim.now, "nak.out_of_sequence",
                        self.qp.rnic.lid, self.qp.qpn, self.epsn)
        self._send_response(Opcode.ACKNOWLEDGE, self.epsn, None,
                            aeth=Aeth.of(Syndrome.NAK_PSN_SEQ_ERR, self.msn))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _note_seen(self, psn: int) -> None:
        if self._highest_seen_psn is None \
                or psn_diff(psn, self._highest_seen_psn) > 0:
            self._highest_seen_psn = psn

    def _arm_flaw_window(self) -> None:
        if self.qp.rnic.profile.damming_flaw:
            window = self.qp.rnic.profile.damming_window_ns
            self._flaw_drop_until = self.sim.now + window

    def _validate(self, rkey: int, addr: int, size: int,
                  needed: int) -> Optional["MemoryRegion"]:
        """The live MR ``rkey`` names if it covers the range and grants
        ``needed`` (an ``Access`` value mask), else None."""
        mr = self.qp.rnic._mrs_by_rkey.get(rkey)  # noqa: SLF001
        if mr is None or mr.deregistered:
            return None
        span = mr.span
        if span is None:
            if not mr.vm.is_mapped(addr, size):
                return None
        elif addr < span[0] or addr + size > span[1]:
            return None
        if mr.access_bits & needed != needed:
            return None
        return mr

    def _send_rnr_nak(self, psn: int, fault: bool = True) -> None:
        self.rnr_naks_sent += 1
        self.qp.rnic.stats["rnr_naks"] += 1
        tel = self.qp.rnic.telemetry
        if tel is not None:
            tel.instant(self.sim.now, "rnr.nak_sent", self.qp.rnic.lid,
                        self.qp.qpn, psn)
        aeth = Aeth.of(Syndrome.RNR_NAK, self.msn,
                       rnr_timer_ns=self.qp.attrs.min_rnr_timer_ns)
        if fault:
            # Fault detection + firmware NAK generation take time; this
            # latency bounds the damming interval range from below.
            delay = self.qp.rnic.profile.odp_fault_nak_delay_ns
            self.sim.schedule(delay, self._send_response,
                              Opcode.ACKNOWLEDGE, psn, None, aeth)
        else:
            self._send_response(Opcode.ACKNOWLEDGE, psn, None, aeth=aeth)

    def _send_ack(self, psn: int) -> None:
        self._send_response(Opcode.ACKNOWLEDGE, psn, None,
                            aeth=Aeth.of(Syndrome.ACK, self.msn))

    def _send_fatal_nak(self, syndrome: Syndrome, psn: int) -> None:
        self._send_response(Opcode.ACKNOWLEDGE, psn, None,
                            aeth=Aeth.of(syndrome, self.msn))

    def _send_response(self, opcode: Opcode, psn: int,
                       payload: Optional[bytes],
                       aeth: Optional[Aeth] = None) -> None:
        qp = self.qp
        rnic = qp.rnic
        rnic.tx_enqueue(Packet(rnic.lid, qp.remote_lid, qp.qpn, qp.remote_qpn,
                               opcode, psn, False, payload, None, aeth))
