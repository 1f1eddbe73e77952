"""Hierarchical hardware-style counters, harvested — never pushed.

Real deployments diagnose ODP pathologies from mlx5 hardware counters
(``odp.page_faults``, ``local_ack_timeout_err``, ``rnr_nak_recv``, ...),
so the registry mirrors those names.  Rather than bumping shadow
counters on the hot path, :func:`collect_counters` *harvests* the
statistics the simulator's components already keep (requester/responder
tallies, ``Rnic.stats``, driver/status-engine/coordinator counts, port
and link counters, coalescer and chaos-engine tallies) into one
hierarchical snapshot.  Collection is therefore zero-cost until the
moment somebody asks — the literal meaning of "zero-cost when disabled".

Scopes form a dotted hierarchy::

    rnic1                  per-RNIC rollups (client node of build_pair)
    rnic1.qp64             per-QP counters
    tenant.kv-a.rnic1.qp64 per-QP counters of a tenant-labelled QP
    fabric                 switch + drop accounting
    chaos                  chaos-engine action tallies (when installed)

QPs carrying a ``tenant`` label (set by the service tier at creation)
harvest under ``tenant.<name>.`` instead of the bare RNIC scope, so one
shared RNIC's counters split per tenant while the per-RNIC rollups stay
whole-device.  Tenant names are dot-free by construction
(:mod:`repro.service.tenant` rejects dots), which keeps the scope
grammar unambiguous: the RNIC segment is everything from the last
``.rnic`` on.

Counter *names* prefixed ``exec.`` describe how the run was executed —
storm-coalescer round tallies, ready-cache hit rates — not what it
measured.  They legitimately differ between ``coalesce`` settings, so
:meth:`CounterRegistry.identity_surface` excludes them; everything else
must be bit-identical with coalescing on or off (tested).  The
exclusion rule is **by name prefix only** — a tenant-scoped
``exec.coalesce.*`` counter is excluded exactly like a bare one; scopes
(including ``tenant.*``) never affect identity membership.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Name prefix for execution-strategy counters (excluded from the
#: coalesce on/off identity surface).
EXEC_PREFIX = "exec."

#: Scope prefix for QPs carrying a tenant label (service-tier runs).
TENANT_PREFIX = "tenant."


class CounterRegistry:
    """A snapshot of hierarchical counters: ``(scope, name) -> int``."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------

    def add(self, scope: str, name: str, value: int) -> None:
        """Record (accumulating on repeat) one counter value."""
        key = (scope, name)
        self._counters[key] = self._counters.get(key, 0) + int(value)

    def get(self, scope: str, name: str) -> int:
        """One counter's value (0 when never recorded)."""
        return self._counters.get((scope, name), 0)

    def total(self, name: str) -> int:
        """Sum of ``name`` across every scope."""
        return sum(value for (_scope, n), value in self._counters.items()
                   if n == name)

    def scopes(self) -> List[str]:
        """All scopes, sorted."""
        return sorted({scope for scope, _name in self._counters})

    def items(self) -> List[Tuple[Tuple[str, str], int]]:
        """Canonical picklable snapshot: sorted ((scope, name), value)
        pairs — the exchange format shard workers ship to the merge."""
        return sorted(self._counters.items())

    def __len__(self) -> int:
        return len(self._counters)

    def as_dict(self, include_exec: bool = True) -> Dict[str, int]:
        """Flat ``"scope.name" -> value`` mapping, sorted by key."""
        flat = {f"{scope}.{name}": value
                for (scope, name), value in self._counters.items()
                if include_exec or not name.startswith(EXEC_PREFIX)}
        return dict(sorted(flat.items()))

    def identity_surface(self) -> Dict[str, int]:
        """The coalesce-invariant counters (``exec.*`` excluded)."""
        return self.as_dict(include_exec=False)

    def render(self, nonzero_only: bool = True) -> str:
        """Grouped, aligned table (ethtool-statistics style)."""
        lines: List[str] = []
        by_scope: Dict[str, List[Tuple[str, int]]] = {}
        for (scope, name), value in self._counters.items():
            if nonzero_only and value == 0:
                continue
            by_scope.setdefault(scope, []).append((name, value))
        for scope in sorted(by_scope):
            lines.append(f"{scope}:")
            entries = sorted(by_scope[scope])
            width = max(len(name) for name, _v in entries)
            lines.extend(f"  {name:<{width}}  {value}"
                         for name, value in entries)
        return "\n".join(lines) if lines else "(no non-zero counters)"


# ----------------------------------------------------------------------
# Harvest
# ----------------------------------------------------------------------

def _collect_ud_qp(reg: CounterRegistry, scope: str, qp) -> None:
    """UD QPs keep four fire-and-forget tallies and nothing else —
    no requester/responder state machines to harvest."""
    reg.add(scope, "ud.sends", qp.sends)
    reg.add(scope, "ud.receives", qp.receives)
    reg.add(scope, "ud.dropped_no_recv", qp.dropped_no_recv)
    reg.add(scope, "ud.dropped_too_big", qp.dropped_too_big)


def _collect_qp(reg: CounterRegistry, scope: str, qp) -> None:
    req, resp = qp.requester, qp.responder
    reg.add(scope, "local_ack_timeout_err", req.timeouts)
    reg.add(scope, "req_retransmitted_packets", req.retransmitted_packets)
    reg.add(scope, "rnr_nak_recv", req.rnr_naks_received)
    reg.add(scope, "out_of_sequence_nak_recv", req.seq_naks_received)
    reg.add(scope, "resp_discarded_odp", req.responses_discarded_odp)
    reg.add(scope, "resp_discarded_rnr", req.responses_discarded_rnr)
    reg.add(scope, "odp.blind_retransmit_rounds", req.blind_retransmit_rounds)
    reg.add(scope, "odp.local_faults", req.local_faults)
    reg.add(scope, "requests_executed", resp.requests_executed)
    reg.add(scope, "duplicate_request", resp.duplicates_serviced)
    reg.add(scope, "damming_flaw_drops", resp.flaw_drops)
    reg.add(scope, "rnr_nak_sent", resp.rnr_naks_sent)
    reg.add(scope, "out_of_sequence_nak_sent", resp.seq_naks_sent)
    co = qp.coalescer
    reg.add(scope, "exec.coalesce.blind_rounds", co.blind_rounds)
    reg.add(scope, "exec.coalesce.joint_rounds", co.joint_rounds)
    reg.add(scope, "exec.coalesce.declined_rounds", co.declined_rounds)
    # Damming stalls fast-forwarded by the event engine: the requester
    # classifies each timeout-terminated silence via the coalescer.
    reg.add(scope, "damming_stall_timeouts", co.stall_timeouts)
    reg.add(scope, "damming_stalled_ns", co.stalled_ns)


def _collect_rnic(reg: CounterRegistry, rnic, per_qp: bool) -> None:
    scope = f"rnic{rnic.lid}"
    stats = rnic.stats
    reg.add(scope, "tx_packets", stats["tx_packets"])
    reg.add(scope, "tx_retransmissions", stats["tx_retransmissions"])
    reg.add(scope, "rx_packets", stats["rx_packets"])
    reg.add(scope, "rx_unknown_qp", stats["rx_unknown_qp"])
    reg.add(scope, "rx_dropped_qp_state", stats["rx_dropped_qp_state"])
    reg.add(scope, "rnr_nak_sent", stats["rnr_naks"])
    reg.add(scope, "out_of_sequence_nak_sent", stats["seq_naks"])
    reg.add(scope, "damming_flaw_drops", stats["flaw_drops"])
    odp = rnic.odp
    reg.add(scope, "odp.client_faults", odp.client_faults)
    reg.add(scope, "odp.server_faults", odp.server_faults)
    reg.add(scope, "odp.stale_views", odp.stale_entries())
    reg.add(scope, "exec.odp.ready_cache_hits", odp.ready_cache_hits)
    reg.add(scope, "exec.odp.ready_cache_misses", odp.ready_cache_misses)
    engine = rnic.status_engine
    reg.add(scope, "odp.status_resumes_done", engine.resumes_done)
    reg.add(scope, "odp.status_max_backlog", engine.max_backlog)
    reg.add(scope, "odp.status_wait_ns", engine.total_wait_ns)
    driver = rnic.driver
    reg.add(scope, "odp.page_faults", driver.faults_served)
    reg.add(scope, "odp.invalidations", driver.invalidations)
    if per_qp:
        for qpn in sorted(rnic._qps):  # noqa: SLF001 - harvest privilege
            qp = rnic._qps[qpn]  # noqa: SLF001
            qp_scope = f"{scope}.qp{qpn}"
            tenant = getattr(qp, "tenant", None)
            if tenant is not None:
                qp_scope = f"{TENANT_PREFIX}{tenant}.{qp_scope}"
            if hasattr(qp, "requester"):
                _collect_qp(reg, qp_scope, qp)
            else:
                _collect_ud_qp(reg, qp_scope, qp)


def _collect_fabric(reg: CounterRegistry, network) -> None:
    for lid in network.lids():
        scope = f"rnic{lid}"
        port = network.stats[lid]
        reg.add(scope, "port.tx_packets", port.tx_packets)
        reg.add(scope, "port.tx_bytes", port.tx_bytes)
        reg.add(scope, "port.rx_packets", port.rx_packets)
        reg.add(scope, "port.rx_bytes", port.rx_bytes)
        reg.add(scope, "port.drops_injected", port.drops_injected)
        reg.add(scope, "port.icrc_drops", port.icrc_drops)
        up, down = network.link_ends(lid)
        reg.add(scope, "link.tx_packets", up.tx_packets + down.tx_packets)
        reg.add(scope, "link.tx_bytes", up.tx_bytes + down.tx_bytes)
        reg.add(scope, "link.dropped_link_down",
                up.dropped_link_down + down.dropped_link_down)
    reg.add("fabric", "switch_forwarded", network.switch.forwarded)
    reg.add("fabric", "drops", len(network.drops))
    chaos = network.chaos
    if chaos is not None:
        for action, count in chaos.stats.items():
            reg.add("chaos", action, count)


def merge_counter_items(
        shards: Iterable[Iterable[Tuple[Tuple[str, str], int]]]
        ) -> CounterRegistry:
    """Fold per-shard counter snapshots into one registry, exactly.

    Input is the :meth:`CounterRegistry.items` exchange format, one
    iterable per shard.  Values sum per ``(scope, name)`` key and the
    merged registry is rebuilt in canonical sorted key order, so the
    result is bit-identical whatever order the shards arrive in —
    integer addition is commutative, and insertion order (the one other
    observable) is forced canonical here.
    """
    totals: Dict[Tuple[str, str], int] = {}
    for items in shards:
        for key, value in items:
            totals[key] = totals.get(key, 0) + int(value)
    merged = CounterRegistry()
    for scope, name in sorted(totals):
        merged.add(scope, name, totals[(scope, name)])
    return merged


def collect_counters(clusters: Iterable, per_qp: bool = True,
                     registry: Optional[CounterRegistry] = None
                     ) -> CounterRegistry:
    """Harvest one counter snapshot from the given cluster(s).

    Accepts a single cluster or an iterable of clusters (a sweep may
    attach the same telemetry session to several).  Pass ``registry`` to
    accumulate across calls.
    """
    reg = registry if registry is not None else CounterRegistry()
    if hasattr(clusters, "nodes"):
        clusters = (clusters,)
    for cluster in clusters:
        for node in cluster.nodes:
            _collect_rnic(reg, node.rnic, per_qp)
        _collect_fabric(reg, cluster.network)
    return reg
