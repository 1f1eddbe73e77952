"""Unreliable Datagram queue pairs.

Section VIII-C of the paper surveys the alternative to hardware
reliability: MPI and RPC systems built on the UD transport (Koop et
al. [33, 34], FaSST [8], HERD [10]) that "detect packet loss with
coarse-grained timeouts" in software, because on a healthy fabric loss
is practically absent — and so the RC pitfalls (including the paper's
500 ms+ timeouts) are sidestepped entirely.

A :class:`UdQueuePair` is connectionless: every send names its
destination (LID, QPN); there are no ACKs, no retransmission and no
RNR — a datagram arriving at a QP with an empty receive queue is
silently dropped.  Messages are limited to one MTU, as in real UD.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.ib.opcodes import Opcode
from repro.ib.packets import Packet
from repro.ib.transport.psn import PSN_MASK
from repro.ib.verbs.enums import QpState, WcOpcode, WcStatus
from repro.ib.verbs.wr import RecvRequest, Sge, WorkCompletion

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.verbs.cq import CompletionQueue
    from repro.ib.verbs.pd import ProtectionDomain
    from repro.ib.rnic import Rnic


class UdQueuePair:
    """A UD endpoint: fire-and-forget datagrams."""

    def __init__(self, pd: "ProtectionDomain", send_cq: "CompletionQueue",
                 recv_cq: Optional["CompletionQueue"] = None):
        self.pd = pd
        self.rnic: "Rnic" = pd.rnic
        self.send_cq = send_cq
        self.recv_cq = recv_cq or send_cq
        self.qpn = self.rnic.alloc_qpn(self)
        self.state = QpState.RTS  # UD QPs are usable immediately
        self._recv_queue: Deque[RecvRequest] = deque()
        self._psn = (self.qpn * 131) & PSN_MASK
        self.sends = 0
        self.receives = 0
        self.dropped_no_recv = 0
        self.dropped_too_big = 0

    # ------------------------------------------------------------------

    def post_recv(self, wr_id: int, sge: Sge) -> None:
        """Post a receive buffer."""
        self._recv_queue.append(RecvRequest(wr_id, sge))

    def post_send(self, wr_id: int, dst_lid: int, dst_qpn: int,
                  payload: bytes, signaled: bool = False) -> None:
        """Send one datagram (must fit in the path MTU)."""
        if self.state is not QpState.RTS:
            raise RuntimeError(f"UD QP{self.qpn} not in RTS")
        if len(payload) > self.rnic.profile.mtu:
            raise ValueError(
                f"UD message of {len(payload)} bytes exceeds the "
                f"{self.rnic.profile.mtu}-byte MTU")
        self._psn = (self._psn + 1) & PSN_MASK
        self.sends += 1
        self.rnic.tx_enqueue(Packet(
            src_lid=self.rnic.lid,
            dst_lid=dst_lid,
            src_qpn=self.qpn,
            dst_qpn=dst_qpn,
            opcode=Opcode.SEND_ONLY,
            psn=self._psn,
            payload=payload,
        ))
        if signaled:
            # local completion: the datagram left the NIC; nothing more
            # is ever known about its fate
            self.send_cq.push(WorkCompletion(
                wr_id=wr_id, status=WcStatus.SUCCESS, opcode=WcOpcode.SEND,
                byte_len=len(payload), qp_num=self.qpn,
                completed_at=self.rnic.sim.now))

    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """RNIC dispatch entry: deliver into a posted receive or drop."""
        if packet.opcode is not Opcode.SEND_ONLY:
            return  # UD QPs understand nothing else
        if not self._recv_queue:
            self.dropped_no_recv += 1
            return
        rr = self._recv_queue.popleft()
        payload = packet.payload or b""
        if len(payload) > rr.local.length:
            self.dropped_too_big += 1
            return
        rr.local.mr.vm.write(rr.local.addr, payload)
        self.receives += 1
        self.recv_cq.push(WorkCompletion(
            wr_id=rr.wr_id, status=WcStatus.SUCCESS, opcode=WcOpcode.RECV,
            byte_len=len(payload), qp_num=self.qpn,
            completed_at=self.rnic.sim.now,
        ))

    def release(self) -> None:
        """Drop the RNIC and PD back-references (end of run)."""
        self.rnic = None
        self.pd = None

    @property
    def recv_queue_depth(self) -> int:
        """Posted receive buffers."""
        return len(self._recv_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UdQP{self.qpn}>"
