"""Queue pairs: the endpoints of RC connections."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.ib.transport.coalesce import StormCoalescer
from repro.ib.transport.requester import Requester
from repro.ib.transport.responder import Responder
from repro.ib.transport.psn import PSN_MASK
from repro.ib.verbs.enums import QpState
from repro.ib.verbs.wr import RecvRequest, Sge, WorkRequest
from repro.sim.timebase import US

#: Bound once: ``handle_packet`` tests them on every inbound packet.
_RTS = QpState.RTS
_RTR = QpState.RTR

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ib.verbs.cq import CompletionQueue
    from repro.ib.verbs.pd import ProtectionDomain
    from repro.ib.rnic import Rnic


@dataclass
class QpAttrs:
    """Connection attributes (the knobs of Sections II-C and V).

    ``cack`` is the 5-bit Local ACK Timeout exponent (0 disables the
    timeout; the effective value is clamped to the device's vendor
    minimum).  ``retry_count`` is the 3-bit Retry Count; exceeding it
    aborts with ``IBV_WC_RETRY_EXC_ERR``.  ``min_rnr_timer_ns`` is the
    advertised minimal RNR NAK delay.
    """

    cack: int = 14
    retry_count: int = 7
    #: 3-bit RNR Retry Count: 7 = retry forever (the usual setting); any
    #: other value is a finite budget of consecutive RNR NAKs, exhausted
    #: with ``IBV_WC_RNR_RETRY_EXC_ERR``.
    rnr_retry: int = 7
    min_rnr_timer_ns: int = 10 * US
    #: Initiator depth: maximum outstanding READ/atomic requests.
    max_rd_atomic: int = 16

    def __post_init__(self) -> None:
        if not 0 <= self.cack <= 31:
            raise ValueError("cack is a 5-bit field")
        if not 0 <= self.retry_count <= 7:
            raise ValueError("retry_count is a 3-bit field")
        if not 0 <= self.rnr_retry <= 7:
            raise ValueError("rnr_retry is a 3-bit field")
        if self.max_rd_atomic < 1:
            raise ValueError("max_rd_atomic must be at least 1")


@dataclass
class QpInfo:
    """What peers exchange out of band to connect (LID, QPN, start PSN)."""

    lid: int
    qpn: int
    psn: int


class QueuePair:
    """An RC queue pair."""

    def __init__(self, pd: "ProtectionDomain", send_cq: "CompletionQueue",
                 recv_cq: "CompletionQueue", max_send_wr: int = 1024):
        self.pd = pd
        self.rnic: "Rnic" = pd.rnic
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_send_wr = max_send_wr
        self.qpn = self.rnic.alloc_qpn(self)
        self.initial_psn = (self.qpn * 7919) & PSN_MASK  # deterministic
        self.state = QpState.INIT
        self.attrs = QpAttrs()
        self.remote_lid: Optional[int] = None
        self.remote_qpn: Optional[int] = None
        #: passive observers: ``hook(qp, old_state, new_state)`` on every
        #: state transition and ``hook(qp, wr)`` on every post (invariant
        #: monitor wiring).  Guarded; empty lists cost nothing.
        self.transition_hooks: List[Callable[["QueuePair", QpState,
                                              QpState], None]] = []
        self.post_hooks: List[Callable[["QueuePair", object], None]] = []
        #: bumped by :meth:`to_reset` so each incarnation starts from a
        #: fresh deterministic PSN (a reused PSN space would make the
        #: monitor's per-flow monotonicity check meaningless).
        self.incarnation = 0
        #: countermeasure strategy for this QP (tenant-selectable):
        #: snapshots the device default at creation; None = baseline.
        self.mitigation = self.rnic.mitigation
        self.requester = Requester(self)
        self.responder = Responder(self)
        self.coalescer = StormCoalescer(self)
        self.rnic.note_qp_created(self)

    # ------------------------------------------------------------------

    def info(self) -> QpInfo:
        """Connection info to hand to the peer."""
        return QpInfo(self.rnic.lid, self.qpn, self.initial_psn)

    def send_window(self) -> int:
        """Effective initiator depth for READ/atomic requests.

        ``max_rd_atomic``, optionally tightened to the mitigation
        strategy's BDP-bounded window (IRN caps in-flight data at the
        bandwidth-delay product instead of the verbs maximum).
        """
        window = self.attrs.max_rd_atomic
        m = self.mitigation
        if m is not None and m.bdp_packets:
            return min(window, m.bdp_packets)
        return window

    def connect(self, remote: QpInfo, attrs: Optional[QpAttrs] = None) -> None:
        """Transition INIT -> RTR -> RTS against ``remote``.

        Passing a ``remote`` with a wrong LID reproduces the paper's
        Figure 2 methodology (every request is dropped by the fabric and
        the QP eventually aborts with ``IBV_WC_RETRY_EXC_ERR``).
        """
        if self.state is not QpState.INIT:
            raise RuntimeError(f"QP{self.qpn}: connect from state {self.state}")
        if attrs is not None:
            self.attrs = attrs
        self.remote_lid = remote.lid
        self.remote_qpn = remote.qpn
        self.responder.epsn = remote.psn
        self._transition(QpState.RTR)
        self._transition(QpState.RTS)

    # ------------------------------------------------------------------
    # Failure lifecycle: ERROR -> RESET -> INIT -> RTR -> RTS
    # ------------------------------------------------------------------

    def _transition(self, new_state: QpState) -> None:
        old_state, self.state = self.state, new_state
        if self.transition_hooks:
            for hook in list(self.transition_hooks):
                hook(self, old_state, new_state)

    def to_reset(self) -> None:
        """``ibv_modify_qp`` to RESET: legal from any state.

        Everything transient dies: timers are cancelled, the transport
        machines and the coalescer are rebuilt from scratch, and the next
        incarnation gets a fresh deterministic initial PSN.  CQEs already
        pushed stay in their CQs (the spec leaves flushing them to the
        application; ``cluster.reconnect`` drains them).
        """
        self.requester.quiesce()
        self.incarnation += 1
        self.initial_psn = ((self.qpn * 7919)
                            + self.incarnation * 104729) & PSN_MASK
        self.remote_lid = None
        self.remote_qpn = None
        self.requester = Requester(self)
        self.responder = Responder(self)
        self.coalescer = StormCoalescer(self)
        self.rnic.note_qp_idle(self)
        self._transition(QpState.RESET)

    def to_init(self) -> None:
        """RESET -> INIT."""
        if self.state is not QpState.RESET:
            raise RuntimeError(f"QP{self.qpn}: to_init from {self.state}")
        self._transition(QpState.INIT)

    def to_rtr(self, remote: QpInfo, attrs: Optional[QpAttrs] = None) -> None:
        """INIT -> RTR against ``remote`` (the receive side goes live)."""
        if self.state is not QpState.INIT:
            raise RuntimeError(f"QP{self.qpn}: to_rtr from {self.state}")
        if attrs is not None:
            self.attrs = attrs
        self.remote_lid = remote.lid
        self.remote_qpn = remote.qpn
        self.responder.epsn = remote.psn
        self._transition(QpState.RTR)

    def to_rts(self) -> None:
        """RTR -> RTS (the send side goes live)."""
        if self.state is not QpState.RTR:
            raise RuntimeError(f"QP{self.qpn}: to_rts from {self.state}")
        self._transition(QpState.RTS)

    # ------------------------------------------------------------------

    def handle_packet(self, packet) -> None:
        """RNIC dispatch: requests go to the responder, responses and
        acknowledgements to the requester."""
        state = self.state
        if state is not _RTS and state is not _RTR:
            # A RESET/INIT/ERROR QP silently discards inbound packets
            # (real HCAs answer nothing for a QP that is not at least
            # RTR; the peer recovers via timeout).
            self.rnic.stats["rx_dropped_qp_state"] += 1
            return
        if packet.is_request:
            self.responder.on_packet(packet)
        else:
            self.requester.on_packet(packet)

    def post_send(self, wr: WorkRequest) -> None:
        """Post to the send queue (``ibv_post_send``)."""
        if self.post_hooks:
            for hook in list(self.post_hooks):
                hook(self, wr)
        self.requester.post(wr)

    def post_recv(self, wr_id: int, sge: Sge) -> None:
        """Post a receive buffer (``ibv_post_recv``)."""
        rr = RecvRequest(wr_id, sge)
        if self.post_hooks:
            for hook in list(self.post_hooks):
                hook(self, rr)
        self.responder.post_recv(rr)

    def enter_error(self) -> None:
        """Move to ERROR: flush outstanding work and stop processing.

        Both transport machines flush with ``IBV_WC_WR_FLUSH_ERR`` (the
        requester's fatal path completes the failing WQE with its real
        error status *before* calling here, so the head CQE keeps its
        cause).  Idempotent.
        """
        if self.state is QpState.ERROR:
            return
        self._transition(QpState.ERROR)
        self.requester.flush_on_error()
        self.responder.flush_on_error()
        self.rnic.note_qp_idle(self)

    def release(self) -> None:
        """Cut every reference that points back up the cell (end of
        run; see :meth:`repro.host.cluster.Cluster.release`).  The
        transport machines and their tallies stay readable."""
        self.requester.qp = None
        self.responder.qp = None
        self.coalescer.release()
        self.rnic = None
        self.pd = None
        self.transition_hooks.clear()
        self.post_hooks.clear()

    @property
    def outstanding(self) -> int:
        """Incomplete send-queue WQEs."""
        return self.requester.outstanding

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<QP{self.qpn} {self.state.value} "
                f"-> lid {self.remote_lid} qpn {self.remote_qpn}>")


def connect_pair(qp_a: QueuePair, qp_b: QueuePair,
                 attrs: Optional[QpAttrs] = None) -> None:
    """Wire two QPs together (the out-of-band exchange in one call)."""
    info_a, info_b = qp_a.info(), qp_b.info()
    qp_a.connect(info_b, attrs)
    qp_b.connect(info_a, attrs)
