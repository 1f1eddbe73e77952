"""The service cell: one shared RNIC pair multiplexing many tenants.

A :class:`ServiceCell` realises the multi-tenant picture the paper
never measures: every tenant gets private verbs resources (PD, CQs,
MRs, QPs — with the tenant's own MR mode and mitigation strategy), but
all tenants share the two RNICs, their links, and — the key cross-
tenant coupling — the per-RNIC serializing page-status engine and
responder.  One open-loop process per tenant posts that tenant's
workload plan against its private arrival schedule; per-logical-op
latencies are measured against the *scheduled* arrival time, so a
tenant stalled behind a neighbour's storm accumulates the queueing
delay an open-loop service actually sees.

Tenant labels flow outward from here: every QP gets ``qp.tenant`` (the
counter harvest namespaces on it), every MR gets ``mr.mitigation``
(the responder's fault path resolves per-MR strategies), and
``cluster.tenant_scopes`` is populated so chaos plans can target one
tenant's QPs and pages (:mod:`repro.chaos`).

KV tenants open their QP fleet with a UD connection-setup handshake
(request datagrams client->server, one ack back), the natural consumer
of :mod:`repro.ib.verbs.ud` — connection management over UD is how the
RC-pitfall-avoiding designs in Section VIII-C bootstrap too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.host.cluster import build_pair
from repro.host.memory import PAGE_SIZE
from repro.ib.verbs.enums import Access, OdpMode, WcStatus
from repro.ib.verbs.qp import QpAttrs
from repro.ib.verbs.wr import RemoteAddr, Sge, WorkRequest
from repro.mitigate import resolve_strategy
from repro.service import workloads as wl
from repro.service.arrivals import arrival_times
from repro.service.tenant import TenantRegistry, TenantSpec
from repro.sim.future import all_of
from repro.sim.process import Process
from repro.sim.timebase import MS, US

#: Posted receives the UD handshake keeps armed per tenant.
_UD_SLOT = 64


@dataclass
class ServiceCellConfig:
    """One shared-RNIC cell: the tenants plus the device-level knobs."""

    tenants: Tuple[TenantSpec, ...]
    seed: int = 0
    device: str = "ConnectX-4"
    cack: int = 14
    retry_count: int = 7
    min_rnr_timer_ns: int = round(1.28 * MS)
    max_rd_atomic: int = 16
    post_overhead_ns: int = 300
    #: lazy payloads (no byte copies) — service metrics are timing and
    #: counter based, so the default skips the per-packet copies.
    integrity: bool = False
    #: optional chaos plan + seed, installed after tenant scopes are
    #: registered so tenant-targeted windows resolve.
    chaos_plan: object = None
    chaos_seed: int = 0

    def registry(self) -> TenantRegistry:
        return TenantRegistry(self.tenants)


@dataclass
class TenantResult:
    """One tenant's measured service quality in one cell run."""

    name: str
    workload: str
    mr_mode: str
    mitigation: str
    ops: int
    errors: int
    #: (scheduled arrival, completion) per successful logical op,
    #: absolute sim ns, in arrival order — the intervals stall
    #: attribution overlaps with episode windows.
    intervals: List[Tuple[int, int]] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0

    @property
    def latencies_ns(self) -> List[int]:
        return [done - arrival for arrival, done in self.intervals]

    def percentile_ns(self, q: float) -> int:
        """Nearest-rank percentile of the logical-op latencies."""
        lat = sorted(self.latencies_ns)
        if not lat:
            return 0
        rank = max(1, -(-int(q * 1000) * len(lat) // 1000))
        return lat[min(rank, len(lat)) - 1]

    @property
    def p50_ns(self) -> int:
        return self.percentile_ns(0.50)

    @property
    def p99_ns(self) -> int:
        return self.percentile_ns(0.99)

    @property
    def p999_ns(self) -> int:
        return self.percentile_ns(0.999)

    @property
    def throughput_ops_s(self) -> float:
        span = self.end_ns - self.start_ns
        return len(self.intervals) / (span / 1e9) if span > 0 else 0.0


@dataclass
class CellResult:
    """Everything one cell run produced, as picklable plain data."""

    tenants: Dict[str, TenantResult]
    #: diagnosis episodes (telemetry.diagnose dataclasses).
    damming: List[object] = field(default_factory=list)
    flood: List[object] = field(default_factory=list)
    #: (lid, qpn) -> owning tenant name, for episode attribution.
    qp_owner: Dict[Tuple[int, int], str] = field(default_factory=dict)
    #: victim tenant -> aggressor tenant -> overlapped stall ns
    #: (computed by :func:`repro.service.interference.attribute_stalls`).
    attribution: Dict[str, Dict[str, int]] = field(default_factory=dict)
    counters: Tuple = ()
    fingerprint: str = ""
    execution_ns: int = 0
    total_packets: int = 0

    def episode_stall_ns(self, tenant: str) -> int:
        """Total episode time attributable to ``tenant`` as aggressor."""
        total = 0
        for episode in self.damming:
            if self.qp_owner.get((episode.lid, episode.victim_qpn)) == tenant:
                total += episode.duration_ns
        for episode in self.flood:
            owners = [self.qp_owner.get(victim) for victim in episode.victims]
            if owners and _majority(owners) == tenant:
                total += episode.duration_ns
        return total


def _majority(owners: List[Optional[str]]) -> Optional[str]:
    """Most common non-None owner, ties broken by name (deterministic)."""
    counts: Dict[str, int] = {}
    for owner in owners:
        if owner is not None:
            counts[owner] = counts.get(owner, 0) + 1
    if not counts:
        return None
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


class _Binding:
    """One tenant's live verbs resources inside a cell."""

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.client_qps: List = []
        self.server_qps: List = []
        self.cq = None
        self.client_mr = None
        self.server_mr = None
        self.client_buf = None
        self.server_buf = None
        self.ud_client = None
        self.ud_server = None
        self.ud_cq = None
        self.ctrl_client_mr = None
        self.ctrl_server_mr = None
        self.ctrl_client_buf = None
        self.ctrl_server_buf = None
        self.plans: List[wl.OpPlan] = []
        self.arrivals: List[int] = []
        #: wr_id -> completion (time, status)
        self.completed: Dict[int, Tuple[int, WcStatus]] = {}
        #: op index -> wr_ids of its primitives
        self.op_wrs: List[List[int]] = []
        self.result: Optional[TenantResult] = None


class ServiceCell:
    """Build, run, and harvest one multi-tenant shared-RNIC cell."""

    def __init__(self, config: ServiceCellConfig):
        self.config = config
        self.registry = config.registry()
        if not len(self.registry):
            raise ValueError("a service cell needs at least one tenant")

    # ------------------------------------------------------------------

    def run(self) -> CellResult:
        from repro.telemetry import Telemetry

        config = self.config
        cluster = build_pair(device=config.device, seed=config.seed)
        telemetry = Telemetry()
        telemetry.attach(cluster)
        sim = cluster.sim
        client_node, server_node = cluster.nodes
        if not config.integrity:
            for node in cluster.nodes:
                node.rnic.lazy_payloads = True

        client_ctx = client_node.open_device()
        server_ctx = server_node.open_device()
        attrs = QpAttrs(cack=config.cack, retry_count=config.retry_count,
                        min_rnr_timer_ns=config.min_rnr_timer_ns,
                        max_rd_atomic=config.max_rd_atomic)

        bindings = [self._bind(spec, client_node, server_node,
                               client_ctx, server_ctx, attrs)
                    for spec in self.registry]
        qp_owner: Dict[Tuple[int, int], str] = {}
        for binding in bindings:
            for qp in binding.client_qps + binding.server_qps:
                qp_owner[(qp.rnic.lid, qp.qpn)] = binding.spec.name
        self._register_scopes(cluster, bindings)

        if config.chaos_plan is not None:
            from repro.chaos.engine import ChaosEngine
            ChaosEngine(cluster, config.chaos_plan,
                        seed=config.chaos_seed).install()

        procs = [Process(sim, self._tenant_proc(sim, binding),
                         name=f"tenant:{binding.spec.name}")
                 for binding in bindings]
        sim.run_until_idle()
        for proc, binding in zip(procs, bindings):
            if not proc.done:
                raise RuntimeError(
                    f"tenant {binding.spec.name!r} did not complete "
                    f"(pending events: {sim.pending_events()})")
            _ = proc.result  # surface exceptions

        diagnosis = telemetry.diagnose()
        result = CellResult(
            tenants={b.spec.name: b.result for b in bindings},
            damming=list(diagnosis.damming),
            flood=list(diagnosis.flood),
            qp_owner=qp_owner,
            counters=tuple(telemetry.counters().items()),
            fingerprint=telemetry.fingerprint(),
            execution_ns=sim.now,
            total_packets=cluster.total_packets(),
        )
        from repro.service.interference import attribute_stalls
        result.attribution = attribute_stalls(result)
        cluster.release()
        return result

    # ------------------------------------------------------------------

    def _bind(self, spec: TenantSpec, client_node, server_node,
              client_ctx, server_ctx, attrs) -> _Binding:
        config = self.config
        binding = _Binding(spec)
        client_pd = client_ctx.alloc_pd()
        server_pd = server_ctx.alloc_pd()
        binding.cq = client_ctx.create_cq()
        server_cq = server_ctx.create_cq()

        climit = wl.client_bytes(spec)
        slimit = wl.server_bytes(spec)
        binding.client_buf = client_node.mmap(climit)
        binding.server_buf = server_node.mmap(slimit)
        mode = spec.odp_mode
        if mode is OdpMode.IMPLICIT:
            binding.client_mr = client_pd.reg_implicit_odp(binding.client_buf)
            binding.server_mr = server_pd.reg_implicit_odp(binding.server_buf)
        else:
            binding.client_mr = client_pd.reg_mr(binding.client_buf,
                                                 Access.all(), odp=mode)
            binding.server_mr = server_pd.reg_mr(binding.server_buf,
                                                 Access.all(), odp=mode)

        strategy = resolve_strategy(spec.mitigation)
        for mr in (binding.client_mr, binding.server_mr):
            mr.mitigation = strategy
        total_wrs = 0
        rng = random.Random(spec.stream_seed(config.seed))
        binding.plans = wl.plan_ops(spec, climit, slimit, rng)
        binding.arrivals = arrival_times(spec.arrival, len(binding.plans),
                                         rng)
        total_wrs = sum(len(plan) for plan in binding.plans)
        for _ in range(spec.num_qps):
            cqp = client_pd.create_qp(send_cq=binding.cq,
                                      max_send_wr=max(1024, total_wrs))
            sqp = server_pd.create_qp(send_cq=server_cq,
                                      max_send_wr=max(1024, total_wrs))
            cqp.connect(sqp.info(), attrs)
            sqp.connect(cqp.info(), attrs)
            for qp in (cqp, sqp):
                qp.tenant = spec.name
                qp.mitigation = strategy
            binding.client_qps.append(cqp)
            binding.server_qps.append(sqp)

        if spec.workload == "kv":
            self._bind_ud(binding, spec, client_node, server_node,
                          client_pd, server_pd, client_ctx, server_ctx)

        completed = binding.completed

        def on_completion(wc, _completed=completed):
            _completed[wc.wr_id] = (wc.completed_at, wc.status)

        binding.cq.on_completion = on_completion
        return binding

    def _bind_ud(self, binding, spec, client_node, server_node,
                 client_pd, server_pd, client_ctx, server_ctx) -> None:
        """Connection-setup control path: one UD QP pair per KV tenant,
        pinned control buffers (control planes never page-fault)."""
        binding.ud_cq = client_ctx.create_cq()
        ud_server_cq = server_ctx.create_cq()
        binding.ud_client = client_pd.create_ud_qp(binding.ud_cq)
        binding.ud_server = server_pd.create_ud_qp(ud_server_cq)
        for qp in (binding.ud_client, binding.ud_server):
            qp.tenant = spec.name
        binding.ctrl_client_buf = client_node.mmap(PAGE_SIZE, populate=True)
        binding.ctrl_server_buf = server_node.mmap(PAGE_SIZE, populate=True)
        binding.ctrl_client_mr = client_pd.reg_mr(binding.ctrl_client_buf)
        binding.ctrl_server_mr = server_pd.reg_mr(binding.ctrl_server_buf)

    def _register_scopes(self, cluster, bindings: List[_Binding]) -> None:
        """Publish per-tenant fault-targeting scopes for chaos plans."""
        from repro.chaos.plan import TenantScope
        scopes = {}
        for binding in bindings:
            spec = binding.spec
            qpns = set()
            for qp in binding.client_qps + binding.server_qps:
                qpns.add((qp.rnic.lid, qp.qpn))
            for qp in (binding.ud_client, binding.ud_server):
                if qp is not None:
                    qpns.add((qp.rnic.lid, qp.qpn))
            pages: Dict[int, frozenset] = {}
            for mr, buf in ((binding.client_mr, binding.client_buf),
                            (binding.server_mr, binding.server_buf)):
                lid = mr.rnic.lid
                first = buf.base // PAGE_SIZE
                last = (buf.base + buf.size - 1) // PAGE_SIZE
                pages[lid] = pages.get(lid, frozenset()) \
                    | frozenset(range(first, last + 1))
            scopes[spec.name] = TenantScope(
                name=spec.name,
                lids=tuple(sorted({lid for lid, _q in qpns})),
                qpns=frozenset(qpns),
                pages=pages)
        cluster.tenant_scopes = scopes

    # ------------------------------------------------------------------

    def _tenant_proc(self, sim, binding: _Binding):
        """The tenant's open-loop posting process (a generator)."""
        config = self.config
        spec = binding.spec
        strategy = resolve_strategy(spec.mitigation)
        yield all_of([binding.client_mr.ready, binding.server_mr.ready])
        if binding.ud_client is not None:
            yield from self._ud_handshake(sim, binding)
        yield from self._prewarm(binding, strategy)

        qpns = [qp.qpn for qp in binding.client_qps]
        client_rnic = binding.client_qps[0].rnic
        client_odp = spec.odp_mode is not OdpMode.PINNED
        ahead = strategy.advise_ahead_pages if strategy is not None else 0
        advised_until = 0

        t0 = sim.now
        next_wr = 0
        rr = 0
        total = 0
        for plan, arrival in zip(binding.plans, binding.arrivals):
            target = t0 + arrival
            if sim.now < target:
                yield target - sim.now
            wr_ids = []
            for kind, size, client_off, server_off in plan:
                if ahead and client_odp:
                    last_page = (client_off + size - 1) // PAGE_SIZE
                    want = last_page + ahead
                    if want > advised_until:
                        start = advised_until * PAGE_SIZE
                        span = min(want * PAGE_SIZE,
                                   binding.client_buf.size) - start
                        if span > 0:
                            client_rnic.odp.prewarm_views(
                                qpns, binding.client_mr,
                                binding.client_buf.addr(start), span)
                        advised_until = want
                local = Sge(binding.client_mr,
                            binding.client_buf.addr(client_off), size)
                remote = RemoteAddr(binding.server_buf.addr(server_off),
                                    binding.server_mr.rkey)
                qp = binding.client_qps[rr % spec.num_qps]
                rr += 1
                wr_id = next_wr
                next_wr += 1
                maker = WorkRequest.read if kind == "read" \
                    else WorkRequest.write
                qp.post_send(maker(wr_id=wr_id, local=local, remote=remote))
                wr_ids.append(wr_id)
                total += 1
                if config.post_overhead_ns:
                    yield config.post_overhead_ns
            binding.op_wrs.append(wr_ids)
        if total:
            yield binding.cq.wait(total)

        intervals: List[Tuple[int, int]] = []
        errors = 0
        for arrival, wr_ids in zip(binding.arrivals, binding.op_wrs):
            times = [binding.completed.get(wr_id) for wr_id in wr_ids]
            if any(entry is None or entry[1] is not WcStatus.SUCCESS
                   for entry in times):
                errors += 1
                continue
            intervals.append((t0 + arrival,
                              max(entry[0] for entry in times)))
        binding.result = TenantResult(
            name=spec.name, workload=spec.workload, mr_mode=spec.mr_mode,
            mitigation=spec.mitigation, ops=len(binding.plans),
            errors=errors, intervals=intervals,
            start_ns=t0, end_ns=sim.now)

    def _ud_handshake(self, sim, binding: _Binding):
        """Connection setup over UD: one request datagram per QP, then
        a single ack datagram back — both directions of the UD path."""
        spec = binding.spec
        for j in range(spec.num_qps):
            offset = (j * _UD_SLOT) % (PAGE_SIZE - _UD_SLOT)
            binding.ud_server.post_recv(
                j, Sge(binding.ctrl_server_mr,
                       binding.ctrl_server_buf.addr(offset), _UD_SLOT))
        binding.ud_client.post_recv(
            0, Sge(binding.ctrl_client_mr,
                   binding.ctrl_client_buf.addr(0), _UD_SLOT))
        server_lid = binding.ud_server.rnic.lid
        for qp in binding.client_qps:
            binding.ud_client.post_send(
                qp.qpn, server_lid, binding.ud_server.qpn,
                f"connect:{spec.name}:{qp.qpn}".encode(), signaled=True)
        while binding.ud_server.receives < spec.num_qps:
            yield 2 * US
        binding.ud_server.post_send(
            0, binding.ud_client.rnic.lid, binding.ud_client.qpn,
            f"ready:{spec.name}".encode())
        while binding.ud_client.receives < 1:
            yield 2 * US

    def _prewarm(self, binding: _Binding, strategy):
        """Warm-up phase of a prefetch-advise tenant: the store resolves
        its translations and the client pre-faults the initial window,
        as a service's warm stage would before taking traffic."""
        spec = binding.spec
        if strategy is None or not strategy.prewarm_first_touch:
            return
        if spec.odp_mode is OdpMode.PINNED:
            return
        server_rnic = binding.server_qps[0].rnic
        warm = server_rnic.odp.advise_range(
            binding.server_mr, binding.server_buf.addr(0),
            binding.server_buf.size)
        if warm is not None and not warm.done:
            yield warm
        client_rnic = binding.client_qps[0].rnic
        span = min(strategy.advise_ahead_pages * PAGE_SIZE,
                   binding.client_buf.size)
        if span > 0:
            client_rnic.odp.prewarm_views(
                [qp.qpn for qp in binding.client_qps],
                binding.client_mr, binding.client_buf.addr(0), span)


def run_cell(config: ServiceCellConfig) -> CellResult:
    """Convenience wrapper: build and run one cell."""
    return ServiceCell(config).run()
