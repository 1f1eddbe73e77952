"""Trace analysis: workflow extraction and pitfall detection.

``extract_workflow`` reconstructs the per-QP message sequence the paper
draws in Figures 1, 5 and 8 from a capture.  ``detect_damming`` and
``detect_flood`` implement the signatures the paper derived:

* damming — a transport-timeout-sized silence between a request and its
  eventual retransmission on one QP,
* flood — the same READ request observed many times (massive PSN reuse)
  paired with responses that keep being re-sent.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.capture.sniffer import CaptureRecord
from repro.ib.opcodes import Opcode, Syndrome
from repro.sim.timebase import MS


@dataclass
class WorkflowStep:
    """One arrow of a Figure 1/5/8-style workflow diagram."""

    time_ns: int
    direction: str  # "client->server" or "server->client"
    label: str
    psn: int
    retransmission: bool

    def render(self, t0: int = 0) -> str:
        """One printable line with a relative timestamp."""
        arrow = "-->" if self.direction == "client->server" else "<--"
        retx = " (retx)" if self.retransmission else ""
        return (f"{(self.time_ns - t0) / 1e6:9.3f} ms  {arrow}  "
                f"{self.label}{retx} [psn {self.psn}]")


def extract_workflow(records: Sequence[CaptureRecord], client_lid: int,
                     qpn: Optional[int] = None) -> List[WorkflowStep]:
    """Rebuild the message sequence between a client and its peer."""
    steps: List[WorkflowStep] = []
    for record in records:
        if qpn is not None and qpn not in (record.src_qpn, record.dst_qpn):
            continue
        direction = ("client->server" if record.src_lid == client_lid
                     else "server->client")
        label = record.opcode.value
        if record.syndrome is Syndrome.RNR_NAK:
            label = "RNR NAK"
        elif record.syndrome is Syndrome.NAK_PSN_SEQ_ERR:
            label = "NAK (PSN Sequence Error)"
        steps.append(WorkflowStep(record.time_ns, direction, label,
                                  record.psn, record.retransmission))
    return steps


@dataclass
class DammingReport:
    """Outcome of the damming detector."""

    detected: bool
    stall_ns: int = 0
    stalled_qpn: Optional[int] = None
    stall_started_ns: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.detected


def detect_damming(records: Sequence[CaptureRecord],
                   min_stall_ns: int = 20 * MS) -> DammingReport:
    """Find a timeout-scale silence on a QP that ends in activity.

    Packet damming's on-wire signature is a gap of hundreds of
    milliseconds on one QP between consecutive packets, terminated by a
    retransmission (Figure 5).
    """
    by_qp: Dict[int, List[CaptureRecord]] = defaultdict(list)
    for record in records:
        by_qp[min(record.src_qpn, record.dst_qpn)].append(record)
    best = DammingReport(False)
    for qpn, recs in by_qp.items():
        for prev, cur in zip(recs, recs[1:]):
            gap = cur.time_ns - prev.time_ns
            if gap >= min_stall_ns and gap > best.stall_ns:
                best = DammingReport(True, gap, qpn, prev.time_ns)
    return best


@dataclass
class FloodReport:
    """Outcome of the flood detector."""

    detected: bool
    total_packets: int = 0
    retransmitted_requests: int = 0
    max_psn_repeats: int = 0
    qps_involved: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.detected


def detect_flood(records: Sequence[CaptureRecord],
                 min_repeats: int = 8,
                 min_qps: int = 2) -> FloodReport:
    """Find massive repeated retransmission of the same READ requests.

    Packet flood's signature is the same request PSN appearing tens to
    hundreds of times across many QPs (Section VI-A: packet counts
    hundreds of times greater than without ODP).
    """
    repeats: Counter = Counter()
    retx = 0
    for record in records:
        if record.opcode is Opcode.RDMA_READ_REQUEST:
            repeats[(record.src_qpn, record.psn)] += 1
            if record.retransmission:
                retx += 1
    if not repeats:
        return FloodReport(False, len(records), 0, 0, 0)
    max_repeats = max(repeats.values())
    flooded_qps = {qpn for (qpn, _psn), count in repeats.items()
                   if count >= min_repeats}
    detected = max_repeats >= min_repeats and len(flooded_qps) >= min_qps
    return FloodReport(detected, len(records), retx, max_repeats,
                       len(flooded_qps))


@dataclass
class CaptureSummary:
    """Everything worth knowing about one capture, in one report.

    ``dropped`` carries the sniffer's bounded-ring wrap count: a
    summary computed over a wrapped capture says so explicitly instead
    of silently presenting the surviving suffix as the whole story.
    """

    total_packets: int
    #: records that fell off the front of a bounded sniffer ring (0 for
    #: unbounded captures or raw record lists).
    dropped: int
    first_ns: int
    last_ns: int
    by_opcode: Dict[str, int] = field(default_factory=dict)
    retransmissions: int = 0
    rnr_naks: int = 0
    seq_naks: int = 0
    damming: Optional[DammingReport] = None
    flood: Optional[FloodReport] = None

    @property
    def span_ns(self) -> int:
        """Capture duration (first to last record)."""
        return self.last_ns - self.first_ns

    @property
    def truncated(self) -> bool:
        """True when the ring wrapped and history was lost."""
        return self.dropped > 0

    def render(self) -> str:
        lines = [f"capture: {self.total_packets} packets over "
                 f"{self.span_ns / 1e6:.3f} ms"]
        if self.truncated:
            lines.append(f"  WARNING: ring wrapped, oldest {self.dropped} "
                         f"record(s) overwritten — totals below cover the "
                         f"surviving window only")
        lines.append(f"  retransmissions: {self.retransmissions}  "
                     f"rnr_naks: {self.rnr_naks}  seq_naks: {self.seq_naks}")
        for opcode, count in sorted(self.by_opcode.items()):
            lines.append(f"  {opcode}: {count}")
        if self.damming is not None and self.damming.detected:
            lines.append(f"  damming: qp{self.damming.stalled_qpn} stalled "
                         f"{self.damming.stall_ns / 1e6:.2f} ms from "
                         f"{self.damming.stall_started_ns / 1e6:.2f} ms")
        if self.flood is not None and self.flood.detected:
            lines.append(f"  flood: {self.flood.qps_involved} QP(s), max "
                         f"{self.flood.max_psn_repeats} repeats of one PSN, "
                         f"{self.flood.retransmitted_requests} retransmitted "
                         f"requests")
        return "\n".join(lines)


def summarize_capture(source, min_stall_ns: int = 20 * MS,
                      min_repeats: int = 8,
                      min_qps: int = 2) -> CaptureSummary:
    """Summarise a capture: counts, per-opcode mix, pitfall detections.

    ``source`` is a :class:`~repro.capture.sniffer.Sniffer` (its
    ``dropped`` wrap counter is surfaced) or a plain record sequence.
    """
    dropped = getattr(source, "dropped", 0)
    records = source.records if hasattr(source, "records") else list(source)
    by_opcode: Counter = Counter()
    retx = rnr = seq = 0
    for record in records:
        by_opcode[record.opcode.value] += 1
        if record.retransmission:
            retx += 1
        if record.syndrome is Syndrome.RNR_NAK:
            rnr += 1
        elif record.syndrome is Syndrome.NAK_PSN_SEQ_ERR:
            seq += 1
    return CaptureSummary(
        total_packets=len(records),
        dropped=dropped,
        first_ns=records[0].time_ns if records else 0,
        last_ns=records[-1].time_ns if records else 0,
        by_opcode=dict(by_opcode),
        retransmissions=retx,
        rnr_naks=rnr,
        seq_naks=seq,
        damming=detect_damming(records, min_stall_ns=min_stall_ns),
        flood=detect_flood(records, min_repeats=min_repeats,
                           min_qps=min_qps),
    )


def packets_per_ms(records: Sequence[CaptureRecord],
                   bucket_ms: float = 1.0) -> List[Tuple[float, int]]:
    """Time series of packet counts (for flood visualisation)."""
    if not records:
        return []
    bucket_ns = round(bucket_ms * MS)
    counts: Counter = Counter()
    for record in records:
        counts[record.time_ns // bucket_ns] += 1
    return [(bucket * bucket_ms, counts[bucket])
            for bucket in sorted(counts)]
