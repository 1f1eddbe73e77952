"""The paper's micro-benchmark (Figure 3) as a simulator workload.

Simplified C shape from the paper::

    init(local_buf, remote_buf, QP[num_QPs], ...);
    for (i = 0; i < num_ops; i++) {
        local  = &local_buf[size * i];
        remote = &remote_buf[size * i];
        QP     = QPs[i % num_QPs];
        post_rdma_read(local, remote, QP, size);
        usleep(interval);
    }
    wait();

Knobs: ``size`` (message size), ``num_ops``, ``num_qps``,
``interval_us``, which sides enable ODP, the minimal RNR NAK delay and
``C_ACK``.  The communication buffers are 4096-byte aligned, as in the
paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry

from repro.host.cluster import build_pair
from repro.host.memory import PAGE_SIZE
from repro.ib.device import DeviceProfile
from repro.ib.verbs.enums import Access, OdpMode, WcStatus
from repro.ib.verbs.qp import QpAttrs
from repro.ib.verbs.wr import RemoteAddr, Sge, WorkRequest
from repro.sim.future import all_of
from repro.sim.process import Process
from repro.sim.timebase import MS, US


class OdpSetup(enum.Enum):
    """Which side(s) take network page faults (Section IV-A terms)."""

    NONE = "none"          # pinned memory on both sides
    SERVER = "server"      # server-side ODP
    CLIENT = "client"      # client-side ODP
    BOTH = "both"          # both-side ODP

    @property
    def client_odp(self) -> bool:
        """Client buffer is ODP-backed."""
        return self in (OdpSetup.CLIENT, OdpSetup.BOTH)

    @property
    def server_odp(self) -> bool:
        """Server buffer is ODP-backed."""
        return self in (OdpSetup.SERVER, OdpSetup.BOTH)


def page_of_op(op_index: int, size: int) -> int:
    """Figure 10's memory layout: which buffer page op ``i`` touches."""
    return (size * op_index) // PAGE_SIZE


@dataclass
class MicrobenchConfig:
    """All knobs of the Figure 3 benchmark."""

    size: int = 100
    num_ops: int = 2
    num_qps: int = 1
    interval_us: float = 0.0
    odp: OdpSetup = OdpSetup.BOTH
    min_rnr_timer_ns: int = round(1.28 * MS)
    cack: int = 1
    retry_count: int = 7
    #: initiator depth (``max_rd_atomic``): outstanding READs per QP.
    #: Figure 3 uses the mlx5 default of 16; scale benchmarks pin 1 to
    #: model the window-1 flood that Section VI-B's retransmission
    #: analysis reasons about.
    max_rd_atomic: int = 16
    device: str = "ConnectX-4"
    profile: Optional[DeviceProfile] = None
    seed: int = 0
    #: data byte written at the start of each server-side message
    fill_server_data: bool = True
    #: when True (the default, and what the tests use), payloads carry
    #: real bytes end to end and completed READs are verified against the
    #: server-side fill pattern.  When False the NICs run in lazy-payload
    #: mode: payloads are (pattern, length) descriptors, no buffer bytes
    #: are read or written, and big sweeps drop the per-packet byte
    #: copies — timing and packet metrics are bit-identical either way.
    integrity: bool = True
    #: CPU cost of one ``ibv_post_send`` call; even with interval=0 the
    #: posting loop spaces operations by this much, which determines how
    #: far apart two posts to the *same* QP land when many QPs are used.
    post_overhead_ns: int = 300
    #: Steady-state storm coalescing, the one fast-path knob:
    #: fast-forward provably-periodic retransmission rounds as
    #: macro-events (blind rounds, memoised when ``integrity`` is off,
    #: and joint multi-QP rounds).  Exact by construction
    #: — every reported metric is bit-identical with it off, which is
    #: the per-packet reference path — so it defaults on; it
    #: self-disables per QP pair whenever a raw packet tap (one without
    #: a synthetic-row sink) or a loss rule is armed for that traffic.
    #: A :class:`~repro.capture.sniffer.Sniffer` does not: it takes
    #: synthetic rows for coalesced rounds.
    coalesce: bool = True
    #: ODP-pitfall countermeasure strategy, by registry name (see
    #: :mod:`repro.mitigate`).  ``"none"`` (the default) resolves to no
    #: strategy object at all and is bit-identical to the baseline.  A
    #: strategy incompatible with the coalescer's fast paths declines
    #: them to the per-packet path with a tally in the result's
    #: ``mitigation_fallbacks`` — never a silent behaviour change.
    mitigation: str = "none"
    #: Observability session to attach to the run's cluster (see
    #: :mod:`repro.telemetry`).  None (the default) records nothing and
    #: costs nothing; attaching never changes reported metrics.  Not a
    #: reported field itself: results must stay ``asdict``-comparable.
    telemetry: Optional["Telemetry"] = field(default=None, repr=False,
                                             compare=False)

    @property
    def interval_ns(self) -> int:
        """Interval between posts in ns."""
        return round(self.interval_us * US)

    @property
    def buffer_bytes(self) -> int:
        """Per-side communication buffer size."""
        return max(self.size * self.num_ops, PAGE_SIZE)

    @property
    def pages_involved(self) -> int:
        """Number of buffer pages the operations touch."""
        return page_of_op(self.num_ops - 1, self.size) + 1


@dataclass
class MicrobenchResult:
    """Everything the paper's figures need from one run."""

    config: MicrobenchConfig
    execution_time_ns: int
    completions: List[Tuple[int, int, WcStatus]]  # (wr_id, time_ns, status)
    total_packets: int
    timeouts: int
    rnr_naks: int
    seq_naks: int
    flaw_drops: int
    responses_discarded_odp: int
    responses_discarded_rnr: int
    blind_retransmit_rounds: int
    client_page_faults: int
    server_page_faults: int
    errors: int
    #: completed READs whose landed bytes did not match the server-side
    #: fill pattern (only checked when ``config.integrity`` is on and the
    #: server buffer was filled; always 0 in lazy-payload mode).
    integrity_errors: int = 0
    #: Storm rounds applied in closed form and the per-packet events
    #: they stood in for.  *Not* reported metrics: they describe how the
    #: run was executed, not what it measured, and legitimately differ
    #: between ``coalesce`` settings while everything above is
    #: bit-identical.
    coalesced_rounds: int = 0
    events_coalesced: int = 0
    #: Fast paths the mitigation strategy declined (``"coalesce"``:
    #: rounds the coalescer declined for the strategy).
    #: Execution-shape bookkeeping like ``coalesced_rounds`` — not a
    #: reported metric, and legitimately differs across fast-path knobs
    #: while everything above is bit-identical.
    mitigation_fallbacks: Dict[str, int] = field(default_factory=dict)

    @property
    def execution_time_s(self) -> float:
        """Execution time in seconds (the unit of Figures 4 and 9a)."""
        return self.execution_time_ns / 1e9

    @property
    def timed_out(self) -> bool:
        """True when at least one transport timeout fired (Figures 6/7)."""
        return self.timeouts > 0

    def completion_times_by_page(self) -> Dict[int, List[int]]:
        """Completion timestamps grouped by buffer page (Figure 11)."""
        grouped: Dict[int, List[int]] = {}
        for wr_id, time_ns, status in self.completions:
            if status is not WcStatus.SUCCESS:
                continue
            grouped.setdefault(page_of_op(wr_id, self.config.size),
                               []).append(time_ns)
        return grouped


def run_microbench(config: MicrobenchConfig,
                   on_cluster=None) -> MicrobenchResult:
    """Execute one micro-benchmark run and collect its metrics.

    ``on_cluster``, when given, is called with the freshly built
    :class:`~repro.host.cluster.Cluster` before any traffic — the hook
    the capture layer uses to attach a sniffer.
    """
    cluster = build_pair(device=config.device, seed=config.seed,
                         profile=config.profile)
    if on_cluster is not None:
        on_cluster(cluster)
    if config.telemetry is not None:
        config.telemetry.attach(cluster)
    sim = cluster.sim
    client_node, server_node = cluster.nodes
    if not config.integrity:
        for node in cluster.nodes:
            node.rnic.lazy_payloads = True
    for node in cluster.nodes:
        node.rnic.coalesce = config.coalesce
    from repro.mitigate import resolve_strategy
    strategy = resolve_strategy(config.mitigation)
    if strategy is not None:
        # Installed before QP creation: QPs snapshot the device default.
        for node in cluster.nodes:
            node.rnic.mitigation = strategy

    client_rnic = client_node.rnic
    server_rnic = server_node.rnic
    client_ctx = client_node.open_device()
    server_ctx = server_node.open_device()
    client_pd = client_ctx.alloc_pd()
    server_pd = server_ctx.alloc_pd()
    client_cq = client_ctx.create_cq()
    server_cq = server_ctx.create_cq()

    client_mode = OdpMode.EXPLICIT if config.odp.client_odp else OdpMode.PINNED
    server_mode = OdpMode.EXPLICIT if config.odp.server_odp else OdpMode.PINNED

    local_buf = client_node.mmap(config.buffer_bytes)
    remote_buf = server_node.mmap(config.buffer_bytes)
    if config.integrity and config.fill_server_data \
            and not config.odp.server_odp:
        # Mark each message so data integrity is checkable; touching an
        # ODP buffer would spoil the first-touch fault pattern, so only
        # pinned server buffers get filled.
        for i in range(config.num_ops):
            remote_buf.write(i * config.size, bytes([i % 256]))

    client_mr = client_pd.reg_mr(local_buf, Access.all(), odp=client_mode)
    server_mr = server_pd.reg_mr(remote_buf, Access.all(), odp=server_mode)

    attrs = QpAttrs(cack=config.cack, retry_count=config.retry_count,
                    min_rnr_timer_ns=config.min_rnr_timer_ns,
                    max_rd_atomic=config.max_rd_atomic)
    client_qps = []
    for _ in range(config.num_qps):
        cqp = client_pd.create_qp(send_cq=client_cq,
                                  max_send_wr=max(1024, config.num_ops))
        sqp = server_pd.create_qp(send_cq=server_cq,
                                  max_send_wr=max(1024, config.num_ops))
        cqp.connect(sqp.info(), attrs)
        sqp.connect(cqp.info(), attrs)
        client_qps.append(cqp)

    completions: List[Tuple[int, int, WcStatus]] = []
    client_cq.on_completion = lambda wc: completions.append(
        (wc.wr_id, wc.completed_at, wc.status))

    timing: Dict[str, int] = {}
    ahead = strategy.advise_ahead_pages if strategy is not None else 0
    qpns = [qp.qpn for qp in client_qps]

    def advise_pages(first: int, last: int) -> None:
        """Prefetch buffer pages [first, last): ``ibv_advise_mr`` on the
        server side (translations), first-touch prewarm on the stateful
        client side (translations + per-QP views)."""
        start = first * PAGE_SIZE
        span = min(last * PAGE_SIZE, config.buffer_bytes) - start
        if span <= 0:
            return
        if config.odp.server_odp:
            server_rnic.odp.advise_range(server_mr, remote_buf.addr(start),
                                         span)
        if config.odp.client_odp:
            client_rnic.odp.prewarm_views(qpns, client_mr,
                                          local_buf.addr(start), span)

    def benchmark():
        yield all_of([client_mr.ready, server_mr.ready])
        advised = 0
        if ahead and strategy.prewarm_first_touch:
            # Warm-up phase: the initial window is pre-faulted before the
            # timed loop, waiting out the server-side driver faults the
            # way an application warm-up stage would.
            advised = min(ahead, config.pages_involved)
            if config.odp.server_odp:
                warm = server_rnic.odp.advise_range(
                    server_mr, remote_buf.addr(0),
                    min(advised * PAGE_SIZE, config.buffer_bytes))
                if warm is not None and not warm.done:
                    yield warm
            if config.odp.client_odp:
                client_rnic.odp.prewarm_views(
                    qpns, client_mr, local_buf.addr(0),
                    min(advised * PAGE_SIZE, config.buffer_bytes))
        timing["start"] = sim.now
        for i in range(config.num_ops):
            if ahead:
                want = min(page_of_op(i, config.size) + ahead,
                           config.pages_involved)
                if advised < want:
                    advise_pages(advised, want)
                    advised = want
            local = Sge(client_mr, local_buf.addr(i * config.size),
                        config.size)
            remote = RemoteAddr(remote_buf.addr(i * config.size),
                                server_mr.rkey)
            qp = client_qps[i % config.num_qps]
            qp.post_send(WorkRequest.read(wr_id=i, local=local, remote=remote))
            delay = config.interval_ns + config.post_overhead_ns
            if delay and i != config.num_ops - 1:
                yield delay
        yield client_cq.wait(config.num_ops)
        timing["end"] = sim.now

    proc = Process(sim, benchmark(), name="microbench")
    sim.run_until_idle()
    if not proc.done:
        raise RuntimeError("micro-benchmark did not complete "
                           f"(pending events: {sim.pending_events()})")
    _ = proc.result  # surface exceptions

    declined = sum(qp.coalescer.decline_reasons.get("mitigation", 0)
                   for qp in client_qps)
    fallbacks = {"coalesce": declined} if declined else {}
    timeouts = sum(qp.requester.timeouts for qp in client_qps)
    errors = sum(1 for _wr, _t, status in completions if status.is_error)
    integrity_errors = 0
    if config.integrity and config.fill_server_data \
            and not config.odp.server_odp:
        for wr_id, _t, status in completions:
            if status is not WcStatus.SUCCESS:
                continue
            if local_buf.read(wr_id * config.size, 1) \
                    != bytes([wr_id % 256]):
                integrity_errors += 1
    result = MicrobenchResult(
        config=config,
        execution_time_ns=timing["end"] - timing["start"],
        completions=sorted(completions, key=lambda c: c[1]),
        total_packets=cluster.total_packets(),
        timeouts=timeouts,
        rnr_naks=server_rnic.stats["rnr_naks"] + client_rnic.stats["rnr_naks"],
        seq_naks=server_rnic.stats["seq_naks"] + client_rnic.stats["seq_naks"],
        flaw_drops=server_rnic.stats["flaw_drops"]
        + client_rnic.stats["flaw_drops"],
        responses_discarded_odp=sum(
            qp.requester.responses_discarded_odp for qp in client_qps),
        responses_discarded_rnr=sum(
            qp.requester.responses_discarded_rnr for qp in client_qps),
        blind_retransmit_rounds=sum(
            qp.requester.blind_retransmit_rounds for qp in client_qps),
        client_page_faults=client_rnic.odp.client_faults,
        server_page_faults=server_rnic.odp.server_faults,
        errors=errors,
        integrity_errors=integrity_errors,
        coalesced_rounds=sum(
            qp.coalescer.rounds_coalesced for qp in client_qps),
        events_coalesced=sim.events_coalesced,
        mitigation_fallbacks=fallbacks,
    )
    cluster.release()
    return result
