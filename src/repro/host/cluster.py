"""Clusters: the fabric plus a set of nodes, with Table II presets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.host.node import Node
from repro.ib.device import DeviceProfile, get_device, get_system
from repro.ib.packets import reset_packet_serials
from repro.ib.verbs.qp import QpAttrs, QueuePair
from repro.ib.verbs.wr import WorkCompletion
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.process import Process


@dataclass(frozen=True)
class HostSpec:
    """One row of the paper's Table II (experimental environment)."""

    name: str
    cpu: str
    logical_cores: int
    memory_gb: int


#: Table II of the paper.
TABLE2_HOSTS: Tuple[HostSpec, ...] = (
    HostSpec("KNL (Private servers B)", "Xeon Phi CPU 7250 @ 1.40GHz",
             272, 196 + 16),
    HostSpec("Reedbush-H", "Xeon CPU E5-2695 v4 @ 2.10GHz", 36, 256),
    HostSpec("ABCI", "Xeon Gold 6148 CPU @ 2.40GHz", 80, 384),
)

#: Map each Table II environment to its Table I system (RNIC).
HOST_TO_SYSTEM: Dict[str, str] = {
    "KNL (Private servers B)": "Private servers B",
    "Reedbush-H": "Reedbush-H",
    "ABCI": "ABCI",
}


@dataclass
class ReconnectResult:
    """Outcome of one :meth:`Cluster.reconnect` run."""

    #: reachability probes performed (1 = fabric healthy on first try).
    attempts: int
    #: simulated time from reconnect start to both QPs back in RTS.
    downtime_ns: int
    #: stale CQEs drained from the pair's CQs before the reset.
    flushed: List[WorkCompletion] = field(default_factory=list)


class ReconnectError(RuntimeError):
    """The fabric never became reachable within ``max_attempts``."""


def reset_verb_numbering() -> None:
    """Restart every process-global verb allocation counter."""
    # Imported lazily: verbs modules reach back into repro.host for
    # Region, so importing them at cluster-module load would cycle.
    from repro.ib.verbs.context import reset_cq_numbering
    from repro.ib.verbs.mr import reset_mr_numbering
    from repro.ib.verbs.pd import reset_pd_numbering
    reset_mr_numbering()
    reset_pd_numbering()
    reset_cq_numbering()


class Cluster:
    """A switch-connected set of nodes sharing one device model."""

    #: Optional process-wide hook called with every freshly built
    #: cluster (before any traffic) — how chaos smoke gates and the
    #: invariant-monitor tests instrument experiment entry points they
    #: do not construct themselves.  Worker subprocesses do not inherit
    #: it, so sweeps and fleets run serially in-process while it is
    #: armed (``runner.serial_forced``).
    instrument: ClassVar[Optional[Callable[["Cluster"], None]]] = None

    def __init__(self, sim: Optional[Simulator] = None,
                 device: str = "ConnectX-4", nodes: int = 2,
                 profile: Optional[DeviceProfile] = None,
                 seed: int = 0):
        # Every experiment builds a fresh cluster, so restarting the
        # packet serial numbering here makes traces from back-to-back
        # runs in one process byte-for-byte comparable.  Verb object
        # numbering (MR/PD handles, keys, CQ numbers) is process-global
        # for the same reason and restarts with it — traced MR handles
        # otherwise depend on how many runs preceded this one.
        reset_packet_serials()
        reset_verb_numbering()
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.profile = profile if profile is not None else get_device(device)
        self.network = Network(self.sim, rate=self.profile.rate)
        #: tenant name -> repro.chaos.plan.TenantScope, registered by
        #: the service tier so chaos plans can target one tenant.
        self.tenant_scopes: dict = {}
        self.nodes: List[Node] = []
        for index in range(nodes):
            self.add_node(f"node{index}")
        if Cluster.instrument is not None:
            Cluster.instrument(self)

    @classmethod
    def for_system(cls, system_name: str, nodes: int = 2,
                   sim: Optional[Simulator] = None, seed: int = 0) -> "Cluster":
        """Build a cluster matching a Table I system by name."""
        system = get_system(system_name)
        return cls(sim=sim, profile=system.device, nodes=nodes, seed=seed)

    def add_node(self, name: str) -> Node:
        """Attach one more node to the fabric."""
        lid = len(self.nodes) + 1
        node = Node(self.sim, name, lid, self.profile, self.network)
        self.nodes.append(node)
        return node

    @property
    def hosts(self) -> List[Node]:
        """Alias kept for readability at call sites."""
        return self.nodes

    def total_packets(self) -> int:
        """Packets injected into the fabric so far."""
        return self.network.total_packets()

    # ------------------------------------------------------------------
    # Failure recovery
    # ------------------------------------------------------------------

    def reconnect(self, qp_a: QueuePair, qp_b: QueuePair,
                  attrs: Optional[QpAttrs] = None,
                  base_backoff_ns: int = 1_000_000,
                  backoff_factor: int = 2,
                  max_attempts: int = 12) -> Process:
        """Recover a broken QP pair: drain, reset, back off, reconnect.

        Models what a resilient application does after
        ``IBV_WC_RETRY_EXC_ERR``: drain the stale CQEs of the old
        incarnation (returned in :class:`ReconnectResult.flushed`),
        drive both QPs through ``RESET -> INIT``, wait for the fabric
        to look healthy again (switch knows both LIDs and both links
        are up) under exponential backoff, then exchange fresh
        connection info and complete ``RTR -> RTS``.

        Returns a running :class:`~repro.sim.process.Process` whose
        result is a :class:`ReconnectResult`; raises
        :class:`ReconnectError` inside the process when the fabric
        stays unreachable for ``max_attempts`` probes.
        """
        sim = self.sim
        network = self.network

        def _run():
            started = sim.now
            flushed: List[WorkCompletion] = []
            cqs: List = []
            for cq in (qp_a.send_cq, qp_a.recv_cq,
                       qp_b.send_cq, qp_b.recv_cq):
                if cq not in cqs:
                    cqs.append(cq)
            for cq in cqs:
                flushed.extend(cq.poll(max_entries=1 << 30))
            for qp in (qp_a, qp_b):
                qp.to_reset()
                qp.to_init()
            attempts = 0
            backoff = base_backoff_ns
            while True:
                attempts += 1
                lid_a, lid_b = qp_a.rnic.lid, qp_b.rnic.lid
                reachable = (network.switch.knows(lid_a)
                             and network.switch.knows(lid_b)
                             and network.link_up(lid_a)
                             and network.link_up(lid_b))
                if reachable:
                    break
                if attempts >= max_attempts:
                    raise ReconnectError(
                        f"fabric unreachable after {attempts} probes "
                        f"(QP{qp_a.qpn} <-> QP{qp_b.qpn})")
                yield backoff
                backoff *= backoff_factor
            info_a, info_b = qp_a.info(), qp_b.info()
            qp_a.to_rtr(info_b, attrs)
            qp_b.to_rtr(info_a, attrs)
            qp_a.to_rts()
            qp_b.to_rts()
            return ReconnectResult(attempts=attempts,
                                   downtime_ns=sim.now - started,
                                   flushed=flushed)

        return Process(sim, _run(),
                       name=f"reconnect:qp{qp_a.qpn}-qp{qp_b.qpn}")


def build_pair(device: str = "ConnectX-4", seed: int = 0,
               profile: Optional[DeviceProfile] = None) -> Cluster:
    """The two-node setup used by most of the paper's experiments."""
    return Cluster(device=device, nodes=2, seed=seed, profile=profile)
