"""The RC requester (send-queue) state machine.

Implements, per Section II-C and the reverse-engineered behaviours of
Section IV:

* PSN assignment (READ requests consume one PSN per *response* packet),
* go-back-N retransmission from the oldest unacknowledged request,
* the Local ACK Timeout / Retry Count machinery
  (``IBV_WC_RETRY_EXC_ERR`` after ``C_retry`` failed retries),
* RNR NAK handling: suspend the send queue for the *actual* RNR delay
  (device-dependent, ~3.5x the configured minimum on ConnectX-4) while
  **discarding responses** that arrive meanwhile (Figure 1, left),
* client-side ODP: discard a response whose local page status is stale,
  raise the fault, and blindly retransmit every ~0.5 ms until the per-QP
  page status is refreshed (Figure 1, right),
* NAK (PSN sequence error): immediate retransmission of everything from
  the NAKed PSN (the Figure 8 fast recovery).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from repro.ib.opcodes import Opcode, Syndrome
from repro.ib.packets import Aeth, Packet, PayloadRef, Reth
from repro.ib.transport.psn import psn_add, psn_diff
from repro.ib.verbs.enums import OdpMode, QpState, WcOpcode, WcStatus
from repro.ib.verbs.wr import WorkCompletion, WorkRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.verbs.qp import QueuePair

#: Requester states.
STATE_NORMAL = "normal"
STATE_RNR_WAIT = "rnr_wait"
STATE_ODP_WAIT = "odp_wait"


class Wqe:
    """A send-queue element: one work request plus transport bookkeeping."""

    __slots__ = ("wr", "first_psn", "req_packets", "psn_span", "resp_needed",
                 "resp_received", "completed", "posted_at", "transmitted",
                 "fault_wait_registered")

    def __init__(self, wr: WorkRequest, first_psn: int, req_packets: int,
                 psn_span: int, resp_needed: int, posted_at: int):
        self.wr = wr
        self.first_psn = first_psn
        self.req_packets = req_packets
        self.psn_span = psn_span
        self.resp_needed = resp_needed
        self.resp_received = 0
        self.completed = False
        self.posted_at = posted_at
        self.transmitted = False
        self.fault_wait_registered = False

    @property
    def last_psn(self) -> int:
        """Last PSN consumed by this WQE."""
        return psn_add(self.first_psn, self.psn_span - 1)

    @property
    def is_read(self) -> bool:
        """True for RDMA READ."""
        return self.wr.opcode is WcOpcode.RDMA_READ

    @property
    def is_atomic(self) -> bool:
        """True for atomic operations."""
        return self.wr.opcode in (WcOpcode.COMP_SWAP, WcOpcode.FETCH_ADD)


class Requester:
    """Send-side transport logic for one QP."""

    def __init__(self, qp: "QueuePair"):
        self.qp = qp
        self.sim = qp.rnic.sim
        self.wqes: List[Wqe] = []
        self.next_psn = qp.initial_psn
        self.state = STATE_NORMAL
        self.retry_used = 0
        self.rnr_retries_used = 0
        self._timer = None
        self._rnr_timer = None
        self._blind_timer = None
        self._fault_raise_timer = None
        self._progress_stamp = 0
        self._timer_armed_at = 0
        # statistics
        self.timeouts = 0
        self.retransmitted_packets = 0
        self.rnr_naks_received = 0
        self.seq_naks_received = 0
        self.responses_discarded_rnr = 0
        self.responses_discarded_odp = 0
        self.blind_retransmit_rounds = 0
        self.local_faults = 0

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------

    def post(self, wr: WorkRequest) -> None:
        """Post a work request to the send queue."""
        if self.qp.state is not QpState.RTS:
            raise RuntimeError(f"QP{self.qp.qpn} not in RTS (is {self.qp.state})")
        if len(self.wqes) >= self.qp.max_send_wr:
            raise RuntimeError(f"QP{self.qp.qpn} send queue full")
        mtu = self.qp.rnic.profile.mtu
        length = wr.length
        if wr.opcode is WcOpcode.RDMA_READ:
            resp = max(1, math.ceil(length / mtu))
            wqe = Wqe(wr, self.next_psn, 1, resp, resp, self.sim.now)
        elif wr.opcode in (WcOpcode.COMP_SWAP, WcOpcode.FETCH_ADD):
            wqe = Wqe(wr, self.next_psn, 1, 1, 1, self.sim.now)
        else:  # WRITE / SEND
            packets = max(1, math.ceil(length / mtu))
            wqe = Wqe(wr, self.next_psn, packets, packets, 0, self.sim.now)
        self.next_psn = psn_add(self.next_psn, wqe.psn_span)
        self.wqes.append(wqe)
        tel = self.qp.rnic.telemetry
        if tel is not None:
            tel.instant(self.sim.now, "wr.post", self.qp.rnic.lid,
                        self.qp.qpn, wr.wr_id)
        self.qp.rnic.note_qp_active(self.qp)
        self._pump()
        self._ensure_timer()

    @property
    def outstanding(self) -> int:
        """Number of incomplete WQEs."""
        return len(self.wqes)

    def _pump(self) -> None:
        """Emit untransmitted WQEs in order, honouring the initiator
        depth (``max_rd_atomic``) for READ/atomic requests."""
        if self.state != STATE_NORMAL:
            return
        window = self.qp.send_window()
        in_flight = sum(1 for w in self.wqes
                        if w.transmitted and w.resp_needed > 0)
        for wqe in self.wqes:
            if wqe.transmitted:
                continue
            if wqe.resp_needed > 0 and in_flight >= window:
                break  # initiator depth exhausted; preserve order
            if not self._emit_wqe(wqe, retransmission=False):
                break  # send-side fault stalled the queue
            if wqe.resp_needed > 0:
                in_flight += 1

    # ------------------------------------------------------------------
    # Packet emission
    # ------------------------------------------------------------------

    def _emit_wqe(self, wqe: Wqe, retransmission: bool) -> bool:
        """Emit the request packets of ``wqe``.

        Returns False when a send-side ODP fault stalls the queue (the
        WQE's packets were not emitted).
        """
        wr = wqe.wr
        if wqe.is_read:
            wqe.transmitted = True
            if retransmission:
                wqe.resp_received = 0
            packet = self._make_packet(
                Opcode.RDMA_READ_REQUEST, wqe.first_psn, ack_req=True,
                reth=Reth(wr.remote.addr, wr.remote.rkey, wr.local.length),
                retransmission=retransmission)
            self._send(packet, retransmission)
            return True
        if wqe.is_atomic:
            wqe.transmitted = True
            opcode = (Opcode.COMPARE_SWAP if wr.opcode is WcOpcode.COMP_SWAP
                      else Opcode.FETCH_ADD)
            # Atomics always carry real operand bytes: they are semantic,
            # not bulk data, and feed the responder's compare/add.
            packet = self._make_packet(
                opcode, wqe.first_psn, ack_req=True,
                payload=wr.compare_add.to_bytes(8, "little")
                + wr.swap.to_bytes(8, "little"),
                reth=Reth(wr.remote.addr, wr.remote.rkey, 8),
                retransmission=retransmission)
            self._send(packet, retransmission)
            return True
        # WRITE / SEND: local pages must be readable by the NIC first.
        if not self._local_pages_ready(wqe):
            self._enter_odp_wait(wqe, from_send_side=True)
            return False
        wqe.transmitted = True
        mtu = self.qp.rnic.profile.mtu
        chunks, total_len = self._gather_chunks(wr, mtu)
        is_write = wr.opcode is WcOpcode.RDMA_WRITE
        for index, chunk in enumerate(chunks):
            opcode = self._segment_opcode(is_write, index, len(chunks))
            packet = self._make_packet(
                opcode, psn_add(wqe.first_psn, index),
                ack_req=(index == len(chunks) - 1),
                payload=chunk,
                reth=(Reth(wr.remote.addr, wr.remote.rkey, total_len)
                      if is_write and index == 0 else None),
                retransmission=retransmission)
            self._send(packet, retransmission)
        return True

    @staticmethod
    def _segment_opcode(is_write: bool, index: int, total: int) -> Opcode:
        if total == 1:
            return Opcode.RDMA_WRITE_ONLY if is_write else Opcode.SEND_ONLY
        if index == 0:
            return Opcode.RDMA_WRITE_FIRST if is_write else Opcode.SEND_FIRST
        if index == total - 1:
            return Opcode.RDMA_WRITE_LAST if is_write else Opcode.SEND_LAST
        return Opcode.RDMA_WRITE_MIDDLE if is_write else Opcode.SEND_MIDDLE

    def _gather_chunks(self, wr: WorkRequest, mtu: int):
        """MTU-sized payload chunks plus the total byte length.

        In lazy mode (``rnic.lazy_payloads``) the chunks are
        :class:`PayloadRef` descriptors — same sizes, no DMA read and no
        byte copies — so the wire/timing model sees an identical stream.
        Inline data stays real: it is tiny and already gathered.
        """
        if wr.inline_data is not None:
            payload = wr.inline_data
        elif self.qp.rnic.lazy_payloads:
            length = wr.local.length
            pattern = wr.local.addr & 0xFF
            chunks = [PayloadRef(pattern, min(mtu, length - off))
                      for off in range(0, length, mtu)] or [PayloadRef(0, 0)]
            return chunks, length
        else:
            payload = wr.local.mr.vm.read(wr.local.addr, wr.local.length)
        chunks = [payload[i:i + mtu]
                  for i in range(0, len(payload), mtu)] or [b""]
        return chunks, len(payload)

    def _make_packet(self, opcode: Opcode, psn: int, ack_req: bool = False,
                     payload=None, reth: Optional[Reth] = None,
                     retransmission: bool = False) -> Packet:
        return Packet(
            src_lid=self.qp.rnic.lid,
            dst_lid=self.qp.remote_lid,
            src_qpn=self.qp.qpn,
            dst_qpn=self.qp.remote_qpn,
            opcode=opcode,
            psn=psn,
            ack_req=ack_req,
            payload=payload,
            reth=reth,
            retransmission=retransmission,
        )

    def _send(self, packet: Packet, retransmission: bool) -> None:
        if retransmission:
            self.retransmitted_packets += 1
        self.qp.rnic.tx_enqueue(packet)

    def _retransmit_from_oldest(self) -> None:
        """Go-back-N: re-emit every incomplete WQE, oldest first,
        honouring the initiator depth."""
        m = self.qp.mitigation
        if m is not None and m.selective:
            self._retransmit_selective()
            return
        window = self.qp.attrs.max_rd_atomic
        in_flight = 0
        for wqe in self.wqes:
            if wqe.resp_needed > 0 and in_flight >= window:
                break  # initiator depth exhausted
            if not self._emit_wqe(wqe, retransmission=wqe.transmitted):
                break  # send-side fault stalled the queue mid-burst
            if wqe.resp_needed > 0:
                in_flight += 1

    def _retransmit_selective(self) -> None:
        """IRN-style selective repeat at WQE granularity.

        Only operations with no acknowledged progress are re-emitted,
        under the BDP-bounded window; a non-head WQE with responses
        already landed keeps them (go-back-N would reset and replay it).
        The head is always re-emitted — in-order response acceptance
        means a stalled head blocks everything behind it, so its tail
        is the one provably-lost range a timeout identifies.
        """
        window = self.qp.send_window()
        in_flight = 0
        for index, wqe in enumerate(self.wqes):
            if wqe.resp_needed > 0 and in_flight >= window:
                break  # BDP window exhausted
            if index > 0 and wqe.transmitted and wqe.resp_received > 0:
                # Progress since the last emit: its remaining responses
                # are not provably lost, so selective repeat skips it.
                in_flight += 1
                continue
            if not self._emit_wqe(wqe, retransmission=wqe.transmitted):
                break  # send-side fault stalled the queue mid-burst
            if wqe.resp_needed > 0:
                in_flight += 1

    # ------------------------------------------------------------------
    # Inbound packets (responses and ACK/NAK)
    # ------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Entry point for responder->requester packets."""
        if packet.opcode is Opcode.ATOMIC_ACKNOWLEDGE:
            self._on_atomic_response(packet)
            return
        if packet.is_ack:
            self._on_aeth(packet)
            return
        if packet.is_read_response:
            self._on_read_response(packet)

    def _on_aeth(self, packet: Packet) -> None:
        syndrome = packet.aeth.syndrome
        if syndrome is Syndrome.ACK:
            self._ack_through(packet.psn)
            return
        if syndrome is Syndrome.RNR_NAK:
            self._on_rnr_nak(packet)
            return
        if syndrome is Syndrome.NAK_PSN_SEQ_ERR:
            self.seq_naks_received += 1
            self._note_progress()
            if self.state == STATE_NORMAL:
                self._retransmit_from_oldest()
                self._ensure_timer(rearm=True)
            return
        # Fatal NAKs.
        status = {
            Syndrome.NAK_REMOTE_ACCESS_ERR: WcStatus.REM_ACCESS_ERR,
            Syndrome.NAK_REMOTE_OP_ERR: WcStatus.REM_OP_ERR,
            Syndrome.NAK_INVALID_REQUEST: WcStatus.REM_OP_ERR,
        }.get(syndrome, WcStatus.REM_OP_ERR)
        self._fatal(status)

    def _on_read_response(self, packet: Packet) -> None:
        if self.state == STATE_RNR_WAIT:
            # Figure 1 (left): responses arriving during the RNR delay
            # are discarded.
            self.responses_discarded_rnr += 1
            return
        head = self.wqes[0] if self.wqes else None
        if head is not None and head.resp_needed == 0 \
                and psn_diff(packet.psn, head.last_psn) > 0:
            # A READ response implicitly acknowledges preceding WRITE/SEND
            # requests whose explicit ACK may have been lost.
            self._ack_through(psn_add(packet.psn, -1))
        wqe = self._oldest_expecting_response()
        if wqe is None:
            return
        expected = psn_add(wqe.first_psn, wqe.resp_received)
        if packet.psn != expected:
            return  # stale duplicate / out-of-order: silently dropped
        wr = wqe.wr
        mtu = self.qp.rnic.profile.mtu
        chunk_addr = wr.local.addr + wqe.resp_received * mtu
        chunk_len = min(mtu, wr.local.length - wqe.resp_received * mtu)
        mr = wr.local.mr
        if mr.mode.is_odp and not self.qp.rnic.odp.requester_range_ready(
                self.qp.qpn, mr, chunk_addr, chunk_len):
            # Client-side ODP: page status stale -> discard and re-pull.
            self.responses_discarded_odp += 1
            self._note_progress(timer_only=True)
            if self.state == STATE_ODP_WAIT:
                self._enter_odp_wait(wqe, from_send_side=False)
            else:
                # Raising the fault and blocking the send queue takes
                # firmware time; posts keep transmitting until then.
                self._schedule_fault_raise()
            return
        if not isinstance(packet.payload, PayloadRef):
            mr.vm.write(chunk_addr, packet.payload or b"")
        wqe.resp_received += 1
        self._note_progress()
        if wqe.resp_received >= wqe.resp_needed:
            self._complete_head_through(wqe)
        self._ensure_timer(rearm=True)

    def _on_atomic_response(self, packet: Packet) -> None:
        wqe = self._oldest_expecting_response()
        if wqe is None or not wqe.is_atomic:
            return
        if packet.psn != wqe.first_psn:
            return
        wr = wqe.wr
        wr.local.mr.vm.write(wr.local.addr, packet.payload or bytes(8))
        wqe.resp_received = 1
        self._note_progress()
        self._complete_head_through(wqe)
        self._ensure_timer(rearm=True)

    def _oldest_expecting_response(self) -> Optional[Wqe]:
        if not self.wqes:
            return None
        head = self.wqes[0]
        if head.resp_needed > 0:
            return head
        return None

    def _ack_through(self, psn: int) -> None:
        """Cumulative ACK: complete leading non-response WQEs up to psn."""
        progressed = False
        while self.wqes:
            head = self.wqes[0]
            if head.resp_needed > 0:
                break  # READ/atomic completes via response data
            if psn_diff(psn, head.last_psn) < 0:
                break
            self._complete_wqe(head, WcStatus.SUCCESS)
            self.wqes.pop(0)
            progressed = True
        if progressed:
            self._note_progress()
            self.retry_used = 0
            self._pump()
        self._ensure_timer(rearm=progressed)
        self._maybe_idle()

    def _complete_head_through(self, wqe: Wqe) -> None:
        """Complete the head WQE (it must be ``wqe``) and update state."""
        assert self.wqes and self.wqes[0] is wqe
        self.wqes.pop(0)
        self._complete_wqe(wqe, WcStatus.SUCCESS)
        self.retry_used = 0
        self._pump()
        self._maybe_idle()

    def _complete_wqe(self, wqe: Wqe, status: WcStatus) -> None:
        wqe.completed = True
        tel = self.qp.rnic.telemetry
        if tel is not None:
            tel.complete(wqe.posted_at, self.sim.now - wqe.posted_at, "wr",
                         self.qp.rnic.lid, self.qp.qpn, wqe.wr.wr_id,
                         status.name)
        if wqe.wr.signaled or status.is_error:
            self.qp.send_cq.push(WorkCompletion(
                wr_id=wqe.wr.wr_id,
                status=status,
                opcode=wqe.wr.opcode,
                byte_len=wqe.wr.length,
                qp_num=self.qp.qpn,
                completed_at=self.sim.now,
            ))

    def _maybe_idle(self) -> None:
        if not self.wqes:
            self._cancel_timer()
            self.qp.rnic.note_qp_idle(self.qp)

    # ------------------------------------------------------------------
    # RNR NAK handling
    # ------------------------------------------------------------------

    def _on_rnr_nak(self, packet: Packet) -> None:
        self.rnr_naks_received += 1
        tel = self.qp.rnic.telemetry
        if tel is not None:
            tel.instant(self.sim.now, "rnr.nak_recv", self.qp.rnic.lid,
                        self.qp.qpn, packet.psn)
        if self.state == STATE_RNR_WAIT:
            return  # already waiting
        rnr_retry = self.qp.attrs.rnr_retry
        if rnr_retry != 7:  # 7 = retry forever (IB spec 9.7.5.2.8)
            self.rnr_retries_used += 1
            if self.rnr_retries_used > rnr_retry:
                self._fatal(WcStatus.RNR_RETRY_EXC_ERR)
                return
        self.state = STATE_RNR_WAIT
        self._cancel_timer()
        profile = self.qp.rnic.profile
        configured = packet.aeth.rnr_timer_ns or self.qp.attrs.min_rnr_timer_ns
        base = profile.actual_rnr_delay_ns(configured)
        delay = self.sim.jitter(base, profile.rnr_delay_jitter)
        self._rnr_timer = self.sim.schedule_timer(delay, self._rnr_recover)

    def _rnr_recover(self) -> None:
        if self.state != STATE_RNR_WAIT:
            return
        self.state = STATE_NORMAL
        # Traced before the coalesce decision: this tick fires at the
        # same timestamp whether the round is replayed or synthesised.
        tel = self.qp.rnic.telemetry
        if tel is not None:
            tel.instant(self.sim.now, "storm.rnr_round", self.qp.rnic.lid,
                        self.qp.qpn, self.rnr_naks_received)
        if self.qp.coalescer.coalesce_rnr_round():
            return  # the whole replay->NAK->RNR_WAIT cycle was synthesised
        self._retransmit_from_oldest()
        self._ensure_timer(rearm=True)

    # ------------------------------------------------------------------
    # Client-side ODP wait
    # ------------------------------------------------------------------

    def _schedule_fault_raise(self) -> None:
        if self._fault_raise_timer is not None \
                and self._fault_raise_timer.pending:
            return
        delay = self.qp.rnic.profile.odp_fault_raise_ns
        self._fault_raise_timer = self.sim.schedule_timer(delay,
                                                          self._do_fault_raise)

    def _do_fault_raise(self) -> None:
        self._fault_raise_timer = None
        if self.state != STATE_NORMAL or not self.wqes:
            return
        head = self.wqes[0]
        if head.resp_needed > 0 and not self._local_pages_ready(head):
            self._enter_odp_wait(head, from_send_side=False)
            return
        if head.resp_needed > head.resp_received \
                and self.qp.mitigation is not None:
            # A mitigation made the pages ready underneath the discard
            # (dynamic-pin install, prewarmed view) without this QP ever
            # registering a fault wait, so no freshness callback will
            # fire and the discarded response is gone for good: re-pull
            # now instead of waiting out the transport timer.  Unreachable
            # without a strategy installed — baseline views only turn
            # fresh through this QP's own wait registration.
            self._retransmit_from_oldest()
            self._ensure_timer(rearm=True)

    def _enter_odp_wait(self, wqe: Wqe, from_send_side: bool) -> None:
        if self.state == STATE_NORMAL:
            self.state = STATE_ODP_WAIT
        if not wqe.fault_wait_registered:
            wqe.fault_wait_registered = True
            self.local_faults += 1
            wr = wqe.wr
            fresh = self.qp.rnic.odp.requester_wait_fresh(
                self.qp.qpn, wr.local.mr, wr.local.addr, wr.local.length)
            fresh.add_callback(lambda _f: self._on_pages_fresh(wqe))
        if self._blind_timer is None or not self._blind_timer.pending:
            period = self._blind_period_ns()
            self._blind_timer = self.sim.schedule_timer(
                period, self._blind_retransmit)

    def _blind_period_ns(self) -> int:
        """Blind retransmission period: ~0.5 ms when lightly loaded,
        stretching to tens of milliseconds when many QPs are stale
        (Sections VI-C / VII-B)."""
        profile = self.qp.rnic.profile
        stale_qps = self.qp.rnic.odp.stale_qp_count()
        base = max(profile.odp_client_retransmit_ns,
                   stale_qps * profile.odp_retransmit_per_qp_ns)
        return self.sim.jitter(base, 0.1)

    def _blind_retransmit(self) -> None:
        """Figure 1 (right): retransmit every ~0.5 ms regardless of the
        fault's resolution."""
        if self.state != STATE_ODP_WAIT:
            return
        self.blind_retransmit_rounds += 1
        # Traced before the coalesce decision (see _rnr_recover).
        tel = self.qp.rnic.telemetry
        if tel is not None:
            tel.instant(self.sim.now, "storm.blind_round", self.qp.rnic.lid,
                        self.qp.qpn, self.blind_retransmit_rounds)
        coalescer = self.qp.coalescer
        if not coalescer.coalesce_blind_round():
            self._retransmit_from_oldest()
        elif coalescer._self_swept:  # noqa: SLF001
            # A seeded fleet sweep replayed this whole tail already —
            # round, period draw (same stream position), re-arm,
            # deadline write-through — and absorbed the horizon with it.
            coalescer._self_swept = False  # noqa: SLF001
            return
        period = self._blind_period_ns()
        self._blind_timer = self.sim.schedule_timer(period,
                                                    self._blind_retransmit)
        # After the re-arm (and its RNG draw, in real order): sweep the
        # upcoming horizon of sibling ticks through the batched path.
        coalescer.maybe_fleet()

    def _on_pages_fresh(self, wqe: Wqe) -> None:
        wqe.fault_wait_registered = False
        if self.qp.state is not QpState.RTS:
            return
        if self.state != STATE_ODP_WAIT:
            return
        # Only resume when the *head* WQE became serviceable; freshness of
        # a later WQE cannot unblock in-order response acceptance.
        if self.wqes and self.wqes[0] is not wqe and not self._head_ready():
            return
        self.state = STATE_NORMAL
        if self._blind_timer is not None:
            self._blind_timer.cancel()
            self._blind_timer = None
        self._retransmit_from_oldest()
        self._ensure_timer(rearm=True)

    def _head_ready(self) -> bool:
        if not self.wqes:
            return True
        head = self.wqes[0]
        wr = head.wr
        if wr.local is None:
            return True
        mr = wr.local.mr
        if not mr.mode.is_odp:
            return True
        return self.qp.rnic.odp.requester_range_ready(
            self.qp.qpn, mr, wr.local.addr, wr.local.length)

    def _local_pages_ready(self, wqe: Wqe) -> bool:
        wr = wqe.wr
        if wr.local is None:
            return True
        mr = wr.local.mr
        if not mr.mode.is_odp:
            return True
        return self.qp.rnic.odp.requester_range_ready(
            self.qp.qpn, mr, wr.local.addr, wr.local.length)

    # ------------------------------------------------------------------
    # Transport timeout / retry
    # ------------------------------------------------------------------

    def _note_progress(self, timer_only: bool = False) -> None:
        self._progress_stamp += 1
        if not timer_only:
            self.retry_used = 0
            # Forward progress also refills the finite RNR budget: the
            # spec counts *consecutive* RNR NAKs per operation.
            self.rnr_retries_used = 0

    def _ensure_timer(self, rearm: bool = False) -> None:
        if self.qp.attrs.cack == 0 or not self.wqes:
            if not self.wqes:
                self._cancel_timer()
            return
        if self._timer is not None and self._timer.pending and not rearm:
            return
        self._cancel_timer()
        duration = self._sample_timeout()
        self._timer_armed_at = self.sim.now
        self._timer = self.sim.schedule_timer(duration, self._on_timer,
                                              self._progress_stamp)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _sample_timeout(self) -> int:
        profile = self.qp.rnic.profile
        base = profile.detection_timeout_ns(self.qp.attrs.cack)
        m = self.qp.mitigation
        if m is not None and m.rto_low_ns:
            # IRN: selective repeat makes a spurious retransmission
            # cheap, so the conservative C_ACK detection timeout
            # collapses to a short RTO_low — the lever that turns a
            # hundreds-of-ms damming stall into a sub-ms hiccup.
            base = min(base, m.rto_low_ns)
        base = round(base * self.qp.rnic.load_stretch())
        return self.sim.jitter(base, profile.timeout_jitter)

    def _on_timer(self, stamp_at_arm: int) -> None:
        self._timer = None
        if not self.wqes or self.state != STATE_NORMAL:
            return
        if self._progress_stamp != stamp_at_arm:
            self._ensure_timer()
            return
        # Transport timeout detected: the whole armed window passed with
        # zero progress — a pure damming stall the event engine already
        # fast-forwarded (one pending timer, one clock jump).  Classify
        # it so the benchmarks can attribute the skipped simulated time.
        self.qp.coalescer.note_stall(self.sim.now - self._timer_armed_at)
        self.timeouts += 1
        tel = self.qp.rnic.telemetry
        if tel is not None:
            tel.instant(self.sim.now, "timeout.local_ack", self.qp.rnic.lid,
                        self.qp.qpn, self.sim.now - self._timer_armed_at)
        self.retry_used += 1
        if self.retry_used > self.qp.attrs.retry_count:
            self._fatal(WcStatus.RETRY_EXC_ERR)
            return
        self._retransmit_from_oldest()
        self._ensure_timer(rearm=True)

    # ------------------------------------------------------------------
    # Errors
    # ------------------------------------------------------------------

    def quiesce(self) -> None:
        """Cancel every armed timer (error entry / QP reset)."""
        self._cancel_timer()
        if self._rnr_timer is not None:
            self._rnr_timer.cancel()
            self._rnr_timer = None
        if self._blind_timer is not None:
            self._blind_timer.cancel()
            self._blind_timer = None
        if self._fault_raise_timer is not None:
            self._fault_raise_timer.cancel()
            self._fault_raise_timer = None

    def flush_on_error(self) -> None:
        """ERROR-state entry: flush the send queue with WR_FLUSH_ERR.

        The fatal path empties ``wqes`` before moving the QP to ERROR
        (its head CQE keeps the causal status), so this only flushes
        work that was still queued when the error arrived from
        elsewhere (peer failure, explicit ``enter_error``).
        """
        self.quiesce()
        wqes, self.wqes = self.wqes, []
        for wqe in wqes:
            self._complete_wqe(wqe, WcStatus.WR_FLUSH_ERR)

    def _fatal(self, status: WcStatus) -> None:
        """Abort: error CQE for the head, flush the rest, QP to ERROR."""
        self.quiesce()
        wqes, self.wqes = self.wqes, []
        if wqes:
            self._complete_wqe(wqes[0], status)
            for wqe in wqes[1:]:
                self._complete_wqe(wqe, WcStatus.WR_FLUSH_ERR)
        self.qp.enter_error()
        self.qp.rnic.note_qp_idle(self.qp)
