"""The miniature shuffle engine.

A :class:`SparkCluster` owns N worker nodes; every ordered worker pair
is connected by a configurable number of QPs (SparkUCX opens many —
Table 13 reports hundreds to thousands cluster-wide).  A job is a
sequence of :class:`ShuffleRound` objects: compute, then an all-to-all
block fetch with RDMA READ where each destination buffer is freshly
allocated (first touch — the ODP fault source).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.host.cluster import Cluster
from repro.host.memory import PAGE_SIZE
from repro.sim.future import Future, all_of
from repro.sim.process import Process
from repro.ucx.config import UcxConfig
from repro.ucx.context import UcxContext, connect_endpoints
from repro.ucx.endpoint import UcxEndpoint, UcxMemory, reset_wr_ids


@dataclass
class ShuffleRound:
    """One stage boundary: compute then an all-to-all fetch.

    ``fetches_per_qp`` fixes the structural traffic (every QP always
    moves blocks); ``cold_pages`` says how many of those fetches land in
    freshly allocated (never-touched) destination pages this round —
    the ODP fault volume.  Spark's executor memory churn determines that
    number on a real system; Table 13's per-cell fit supplies it here.
    """

    compute_ns: int
    #: page-sized blocks each reducer pulls per QP from each peer
    fetches_per_qp: int = 2
    #: cluster-wide count of fetches (per round) that hit cold pages
    cold_pages: int = 0
    block_bytes: int = PAGE_SIZE


class SparkWorker:
    """One executor."""

    def __init__(self, cluster: "SparkCluster", rank: int):
        self.cluster = cluster
        self.rank = rank
        self.node = cluster.fabric.nodes[rank]
        self.ucx = UcxContext(self.node, UcxConfig.from_env(cluster.env))
        #: rank -> list of endpoints to that peer
        self.endpoints: Dict[int, List[UcxEndpoint]] = {}
        self.shuffle_out: Optional[UcxMemory] = None
        self.warm_in: Optional[UcxMemory] = None
        self.blocks_fetched = 0

    def prepare_map_output(self, total_bytes: int) -> None:
        """Produce the map output region (reused across rounds; written
        by the host and warmed by earlier stages, so the NIC can
        translate it)."""
        if self.shuffle_out is None \
                or self.shuffle_out.region.size < total_bytes:
            region = self.node.mmap(max(total_bytes, PAGE_SIZE))
            self.shuffle_out = self.ucx.mem_map(region)
            self.node.rnic.odp.prewarm_views(
                [], self.shuffle_out.mr, self.shuffle_out.addr(0),
                self.shuffle_out.region.size)
        seed_byte = (self.rank * 37 + 1) % 256
        self.shuffle_out.region.fill(seed_byte)

    def warm_buffer(self, total_bytes: int) -> UcxMemory:
        """The reused fetch destination pool, warm for every QP
        (long-lived buffers already used by earlier job stages)."""
        if self.warm_in is None or self.warm_in.region.size < total_bytes:
            region = self.node.mmap(max(total_bytes, PAGE_SIZE))
            self.warm_in = self.ucx.mem_map(region)
            qpns = [ep.qp.qpn for eps in self.endpoints.values()
                    for ep in eps]
            self.node.rnic.odp.prewarm_views(
                qpns, self.warm_in.mr, self.warm_in.addr(0),
                self.warm_in.region.size)
        return self.warm_in


class SparkCluster:
    """Workers plus the fabric, QPs and the job driver.

    ``coalesce`` (None keeps the device default) routes storm rounds
    through the storm coalescer (:mod:`repro.ib.transport.coalesce`)
    under its exact-or-decline contract — simulated results are
    bit-identical either way (tested); only wall-clock changes.
    ``record_completions`` captures every work completion as
    ``(wr_id, completed_at, status)`` in :attr:`completions`, the
    surface the fleet merge contract globalises and k-way merges.
    """

    def __init__(self, workers: int = 2, total_qps: int = 64,
                 device: str = "ConnectX-4",
                 env: Optional[Dict[str, str]] = None, seed: int = 0,
                 coalesce: Optional[bool] = None,
                 record_completions: bool = False):
        if workers < 2:
            raise ValueError("shuffles need at least two workers")
        # Fresh wr_id stream per cluster, mirroring Cluster's packet
        # serial reset: back-to-back runs (and fleet groups run in any
        # process) record byte-identical completion wr_ids.
        reset_wr_ids()
        self.fabric = Cluster(device=device, nodes=workers, seed=seed)
        self.sim = self.fabric.sim
        self.env = dict(env or {})
        self.completions: List[Tuple[int, int, str]] = []
        self.workers = [SparkWorker(self, rank) for rank in range(workers)]
        pairs = [(a, b) for a in range(workers) for b in range(workers)
                 if a < b]
        qps_per_pair = max(1, total_qps // (2 * len(pairs)))
        self.qps_per_pair = qps_per_pair
        for a_rank, b_rank in pairs:
            a, b = self.workers[a_rank], self.workers[b_rank]
            a.endpoints[b_rank] = []
            b.endpoints[a_rank] = []
            for _ in range(qps_per_pair):
                ep_a = a.ucx.create_endpoint()
                ep_b = b.ucx.create_endpoint()
                connect_endpoints(ep_a, ep_b)
                a.endpoints[b_rank].append(ep_a)
                b.endpoints[a_rank].append(ep_b)
        if coalesce is not None:
            for node in self.fabric.nodes:
                node.rnic.coalesce = bool(coalesce)
        if record_completions:
            for worker in self.workers:
                self._record_cq(worker.ucx)

    def _record_cq(self, ucx: UcxContext) -> None:
        """Chain a recorder in front of a context's completion handler."""
        inner = ucx.cq.on_completion

        def record(wc) -> None:
            self.completions.append((wc.wr_id, wc.completed_at,
                                     wc.status.value))
            if inner is not None:
                inner(wc)

        ucx.cq.on_completion = record

    @property
    def total_qps(self) -> int:
        """Total QPs in the cluster (both ends counted, as Spark logs do)."""
        return sum(len(eps) for w in self.workers
                   for eps in w.endpoints.values())

    # ------------------------------------------------------------------

    def run_job(self, rounds: List[ShuffleRound]) -> Process:
        """Launch the job driver; returns its process."""
        return Process(self.sim, self._job(rounds), name="spark-driver")

    def _job(self, rounds: List[ShuffleRound]) -> Generator[Any, Any, None]:
        for round_index, round_spec in enumerate(rounds):
            if round_spec.compute_ns:
                yield round_spec.compute_ns
            yield from self._shuffle(round_spec)

    def _shuffle(self, spec: ShuffleRound) -> Generator[Any, Any, None]:
        """All-to-all fetch: every worker READs blocks from every peer.

        ``spec.cold_pages`` fetches (spread round-robin over QPs and
        reducers) land in a freshly mmapped region — first-touch pages,
        the ODP fault source; the rest reuse each worker's warm pool.
        """
        peers = len(self.workers) - 1
        per_reducer_bytes = spec.fetches_per_qp * spec.block_bytes \
            * self.qps_per_pair * peers
        for worker in self.workers:
            worker.prepare_map_output(per_reducer_bytes)
        yield all_of([w.shuffle_out.mr.ready for w in self.workers])

        cold_per_reducer = -(-spec.cold_pages // len(self.workers))
        futures: List[Future] = []
        readies: List[Future] = []
        plans = []
        for reducer in self.workers:
            warm = reducer.warm_buffer(per_reducer_bytes)
            cold: Optional[UcxMemory] = None
            if cold_per_reducer > 0:
                region = reducer.node.mmap(cold_per_reducer * spec.block_bytes)
                cold = reducer.ucx.mem_map(region)
                readies.append(cold.mr.ready)
            readies.append(warm.mr.ready)
            plans.append((reducer, warm, cold))
        yield all_of(readies)

        for reducer, warm, cold in plans:
            warm_offset = 0
            cold_used = 0
            fetch_index = 0
            for peer_rank, endpoints in reducer.endpoints.items():
                peer = self.workers[peer_rank]
                remote_base = peer.shuffle_out.addr(0)
                rkey = peer.shuffle_out.rkey
                remote_span = peer.shuffle_out.region.size - spec.block_bytes
                for endpoint in endpoints:
                    for block in range(spec.fetches_per_qp):
                        # all but the last fetch of each QP go cold while
                        # the budget lasts: simultaneous faults, many QPs
                        use_cold = (cold is not None
                                    and block < spec.fetches_per_qp - 1
                                    and cold_used < cold_per_reducer)
                        if use_cold:
                            buf, offset = cold, cold_used * spec.block_bytes
                            cold_used += 1
                        else:
                            buf, offset = warm, warm_offset
                            warm_offset = (warm_offset + spec.block_bytes) \
                                % max(spec.block_bytes,
                                      warm.region.size - spec.block_bytes)
                        remote_off = (fetch_index * spec.block_bytes) \
                            % max(spec.block_bytes, remote_span)
                        futures.append(endpoint.get(
                            buf, offset, spec.block_bytes,
                            remote_base + remote_off, rkey))
                        reducer.blocks_fetched += 1
                        fetch_index += 1
        yield all_of(futures)

    # ------------------------------------------------------------------

    def transport_timeouts(self) -> int:
        """Transport timeouts observed across all workers."""
        return sum(ep.qp.requester.timeouts
                   for w in self.workers
                   for eps in w.endpoints.values()
                   for ep in eps)

    def total_packets(self) -> int:
        """Packets on the fabric so far."""
        return self.fabric.total_packets()
