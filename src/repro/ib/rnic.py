"""The RNIC: packet processing pipeline, QP/MR tables, ODP engines.

The NIC's send path is a serial pipeline with a per-packet processing
cost; under packet flood hundreds of QPs retransmitting every ~0.5 ms
share it, which (as the paper observes in Section VI-C) also slows the
NIC's own timer bookkeeping — modelled by :meth:`load_stretch`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Set

from repro.ib.device import DeviceProfile
from repro.ib.odp.coordinator import OdpCoordinator
from repro.ib.odp.status_engine import PageStatusEngine
from repro.ib.odp.translation import NicTranslationTable
from repro.ib.packets import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.host.driver import Driver
    from repro.ib.verbs.mr import MemoryRegion
    from repro.ib.verbs.qp import QueuePair
    from repro.net.network import Network


class Rnic:
    """One simulated RDMA NIC attached to the fabric at ``lid``."""

    def __init__(self, sim: Simulator, profile: DeviceProfile, lid: int,
                 driver: "Driver", network: "Network"):
        self.sim = sim
        self.profile = profile
        self.lid = lid
        self.driver = driver
        self.network = network
        network.attach(lid, self._on_wire_rx)
        network.devices[lid] = self
        self.translation = NicTranslationTable()
        self.status_engine = PageStatusEngine(sim, profile)
        self.odp = OdpCoordinator(sim, self)
        #: When True, DMA payloads ride as (pattern, length) descriptors
        #: instead of real bytes — the big sweeps' zero-allocation mode.
        #: Timing/packet metrics are bit-identical either way (payload
        #: *sizes* are what the wire model consumes); integrity checks
        #: need real bytes, so tests leave this False.
        self.lazy_payloads = False
        #: Steady-state storm coalescing, the one fast-path knob: allow
        #: this device's QPs to fast-forward provably-periodic
        #: retransmission rounds as macro-events — single-QP blind
        #: rounds and joint multi-QP rounds (both ends must allow
        #: it).  Exact by construction — a round
        #: is synthesised only when every one of its packets takes a
        #: known path and nothing can interleave — so metrics are
        #: bit-identical either way.
        self.coalesce = True
        #: Active ODP-pitfall countermeasure
        #: (:class:`repro.mitigate.MitigationStrategy`) or None for the
        #: baseline.  QPs snapshot it at creation; None keeps every hot
        #: path a single ``is None`` check (the telemetry idiom), which
        #: is the ``strategy=none`` bit-identity story.
        self.mitigation = None
        self._qps: Dict[int, "QueuePair"] = {}
        self._next_qpn = 0x40
        self._mrs_by_rkey: Dict[int, "MemoryRegion"] = {}
        # Per-QP transmit queues, served round-robin: the send engine
        # arbitrates across QPs with pending work, so bursts from
        # different QPs interleave on the wire (this matters for the
        # damming flaw's back-to-back window).
        self._tx_queues: Dict[int, Deque[Packet]] = {}
        self._tx_ring: Deque[int] = deque()
        self._tx_busy = False
        self._active_qps: Set[int] = set()
        self.stats: Dict[str, int] = defaultdict(int)
        #: observers called with every freshly constructed RC QP / CQ
        #: (the invariant monitor instruments transition/post/push hooks
        #: through these).  Guarded: empty lists cost nothing.
        self.qp_watchers: List[Callable[[Any], None]] = []
        self.cq_watchers: List[Callable[[Any], None]] = []
        #: CQs created on this device (registry for late-attaching
        #: observers), appended by :meth:`note_cq_created`.
        self.cqs: List[Any] = []
        # Firmware pause (chaos): while paused, inbound packets buffer
        # instead of dispatching; resume replays the backlog in order.
        self._rx_paused = False
        self._rx_backlog: List[Packet] = []
        #: Event tracer handed over by ``Telemetry.attach`` (None = off).
        #: Transport hooks reach it via ``qp.rnic.telemetry``, so a
        #: single None check is the entire disabled-mode cost and QPs
        #: rebuilt by ``to_reset`` stay instrumented.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def alloc_qpn(self, qp: "QueuePair") -> int:
        """Assign a QP number and register the QP."""
        qpn = self._next_qpn
        self._next_qpn += 1
        self._qps[qpn] = qp
        return qpn

    def register_mr(self, mr: "MemoryRegion") -> None:
        """Make an MR reachable by its rkey."""
        self._mrs_by_rkey[mr.rkey] = mr

    def unregister_mr(self, mr: "MemoryRegion") -> None:
        """Drop an MR from the rkey table."""
        self._mrs_by_rkey.pop(mr.rkey, None)

    def mr_by_rkey(self, rkey: int) -> Optional["MemoryRegion"]:
        """Look up the MR protecting ``rkey``."""
        return self._mrs_by_rkey.get(rkey)

    # ------------------------------------------------------------------
    # Load tracking
    # ------------------------------------------------------------------

    def note_qp_active(self, qp: "QueuePair") -> None:
        """A QP gained outstanding work."""
        self._active_qps.add(qp.qpn)

    def note_qp_idle(self, qp: "QueuePair") -> None:
        """A QP drained its send queue."""
        self._active_qps.discard(qp.qpn)

    @property
    def active_qps(self) -> int:
        """QPs with outstanding send work."""
        return len(self._active_qps)

    def load_stretch(self) -> float:
        """Multiplier on the effective transport timeout under QP load
        (Section VI-C: timeouts lengthen with many QPs)."""
        extra = len(self._active_qps) - 1
        if extra <= 0:
            return 1.0
        return 1.0 + self.profile.timeout_stretch_per_qp * extra

    # ------------------------------------------------------------------
    # Transmit pipeline
    # ------------------------------------------------------------------
    #
    # Both pipelines push their per-packet events onto the engine's heap
    # inline (``Simulator.schedule`` without its argument checks: the
    # profile's processing costs are non-negative ints).

    def tx_enqueue(self, packet: Packet) -> None:
        """Queue a packet for transmission (round-robin across QPs,
        serial per-packet processing cost)."""
        qpn = packet.src_qpn
        queue = self._tx_queues.get(qpn)
        if queue is None:
            queue = deque()
            self._tx_queues[qpn] = queue
        if not queue:
            self._tx_ring.append(qpn)
        queue.append(packet)
        stats = self.stats
        stats["tx_packets"] += 1
        if packet.retransmission:
            stats["tx_retransmissions"] += 1
        if not self._tx_busy:
            self._tx_busy = True
            sim = self.sim
            sim._seq = seq = sim._seq + 1  # noqa: SLF001
            sim._pending += 1  # noqa: SLF001
            heappush(sim._queue,  # noqa: SLF001
                     (sim.now + self.profile.tx_proc_ns, seq,
                      self._tx_drain, ()))

    def _tx_drain(self) -> None:
        ring = self._tx_ring
        if not ring:
            self._tx_busy = False
            return
        qpn = ring.popleft()
        queue = self._tx_queues[qpn]
        packet = queue.popleft()
        if queue:
            ring.append(qpn)
        self.network.inject(self.lid, packet)
        if ring:
            sim = self.sim
            sim._seq = seq = sim._seq + 1  # noqa: SLF001
            sim._pending += 1  # noqa: SLF001
            heappush(sim._queue,  # noqa: SLF001
                     (sim.now + self.profile.tx_proc_ns, seq,
                      self._tx_drain, ()))
        else:
            self._tx_busy = False

    # ------------------------------------------------------------------
    # Receive pipeline
    # ------------------------------------------------------------------

    def _on_wire_rx(self, packet: Packet) -> None:
        self.stats["rx_packets"] += 1
        if self._rx_paused:
            self._rx_backlog.append(packet)
            return
        sim = self.sim
        sim._seq = seq = sim._seq + 1  # noqa: SLF001
        sim._pending += 1  # noqa: SLF001
        heappush(sim._queue,  # noqa: SLF001
                 (sim.now + self.profile.rx_proc_ns, seq, self._dispatch,
                  (packet,)))

    def _dispatch(self, packet: Packet) -> None:
        qp = self._qps.get(packet.dst_qpn)
        if qp is None:
            self.stats["rx_unknown_qp"] += 1
            return
        qp.handle_packet(packet)

    def pause_rx(self) -> None:
        """Freeze the receive pipeline (chaos firmware-pause fault)."""
        self._rx_paused = True

    def resume_rx(self) -> None:
        """Thaw the receive pipeline, replaying the backlog in order."""
        self._rx_paused = False
        backlog, self._rx_backlog = self._rx_backlog, []
        for packet in backlog:
            self.sim.schedule(self.profile.rx_proc_ns, self._dispatch, packet)

    def release(self) -> None:
        """Cut the back-references of everything this device owns (end
        of run; see :meth:`repro.host.cluster.Cluster.release`).

        The QP, MR and CQ tables, ``stats`` and the ODP tallies stay,
        so every top-down read of the finished run still works.
        """
        for qp in self._qps.values():
            qp.release()
        for mr in self._mrs_by_rkey.values():
            mr.release()
        for cq in self.cqs:
            cq.release()
        self.odp.release()
        self.qp_watchers.clear()
        self.cq_watchers.clear()

    # ------------------------------------------------------------------
    # Object-creation observers (invariant monitor wiring)
    # ------------------------------------------------------------------

    def note_qp_created(self, qp: "QueuePair") -> None:
        """Called by RC QPs once fully constructed."""
        if self.qp_watchers:
            for watcher in list(self.qp_watchers):
                watcher(qp)

    def note_cq_created(self, cq: Any) -> None:
        """Called by the verbs context for every new CQ."""
        self.cqs.append(cq)
        if self.cq_watchers:
            for watcher in list(self.cq_watchers):
                watcher(cq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rnic {self.profile.model} lid={self.lid}>"
