"""Focused tests of RC transport internals."""

import hashlib

import pytest

from repro.capture.sniffer import Sniffer
from repro.ib.opcodes import Opcode, Syndrome
from repro.ib.verbs.enums import OdpMode, WcStatus
from repro.ib.verbs.qp import QpAttrs
from repro.ib.verbs.wr import RemoteAddr, Sge, WorkRequest

from tests.helpers import make_connected_pair


def post_read(client, server, wr_id=1, offset=0, size=64, signaled=True):
    client.qp.post_send(WorkRequest.read(
        wr_id=wr_id, local=Sge(client.mr, client.buf.addr(offset), size),
        remote=RemoteAddr(server.buf.addr(offset), server.mr.rkey),
        signaled=signaled))


class TestInitiatorDepth:
    def test_read_window_limits_outstanding_requests(self):
        cluster, client, server = make_connected_pair(
            attrs=QpAttrs(max_rd_atomic=4))
        sniffer = Sniffer(cluster.network)
        for i in range(12):
            post_read(client, server, wr_id=i, offset=i * 64)
        # before anything completes, only 4 requests may be on the wire
        cluster.sim.run(until=cluster.sim.now + 2_000)
        requests = [r for r in sniffer.records
                    if r.opcode is Opcode.RDMA_READ_REQUEST]
        assert len(requests) <= 4
        cluster.sim.run_until_idle()
        assert len(client.cq.poll(100)) == 12

    def test_window_refills_as_reads_complete(self):
        cluster, client, server = make_connected_pair(
            attrs=QpAttrs(max_rd_atomic=2))
        for i in range(6):
            post_read(client, server, wr_id=i, offset=i * 64)
        cluster.sim.run_until_idle()
        wcs = client.cq.poll(10)
        assert [wc.wr_id for wc in wcs] == list(range(6))


class TestTxArbitration:
    def test_round_robin_interleaves_qps(self):
        cluster, client, server = make_connected_pair()
        # second QP pair on the same nodes
        qp2 = client.pd.create_qp(client.cq)
        sqp2 = server.pd.create_qp(server.cq)
        qp2.connect(sqp2.info())
        sqp2.connect(qp2.info())
        sniffer = Sniffer(cluster.network)
        # enqueue 3 packets on each QP in one burst each
        for i in range(3):
            post_read(client, server, wr_id=i, offset=i * 64)
            qp2.post_send(WorkRequest.read(
                wr_id=100 + i, local=Sge(client.mr,
                                         client.buf.addr(1024 + i * 64), 64),
                remote=RemoteAddr(server.buf.addr(1024 + i * 64),
                                  server.mr.rkey)))
        cluster.sim.run_until_idle()
        first_six = [r.src_qpn for r in sniffer.records
                     if r.opcode is Opcode.RDMA_READ_REQUEST][:6]
        # strict alternation between the two QPs
        assert first_six[0] != first_six[1]
        assert first_six[:2] * 3 == first_six

    def test_load_stretch_grows_with_active_qps(self):
        cluster, client, server = make_connected_pair()
        rnic = client.node.rnic
        assert rnic.load_stretch() == 1.0
        qps = []
        for _ in range(100):
            qp = client.pd.create_qp(client.cq)
            sqp = server.pd.create_qp(server.cq)
            qp.connect(sqp.info())
            sqp.connect(qp.info())
            qps.append(qp)
        for i, qp in enumerate(qps):
            qp.post_send(WorkRequest.read(
                wr_id=i, local=Sge(client.mr, client.buf.addr(i * 8), 8),
                remote=RemoteAddr(server.buf.addr(i * 8), server.mr.rkey)))
        stretch = rnic.load_stretch()
        assert stretch > 1.3
        cluster.sim.run_until_idle()
        assert rnic.load_stretch() == 1.0  # back to idle


class TestNakBehaviour:
    def test_seq_nak_sent_once_until_progress(self):
        cluster, client, server = make_connected_pair()
        sniffer = Sniffer(cluster.network)
        # inject an out-of-window request by dropping one request packet
        dropped = []

        def drop_first_request(pkt):
            if (pkt.opcode is Opcode.RDMA_READ_REQUEST and not dropped
                    and not pkt.retransmission):
                dropped.append(pkt)
                return True
            return False

        cluster.network.add_loss_rule(drop_first_request)
        post_read(client, server, wr_id=1, offset=0)
        post_read(client, server, wr_id=2, offset=64)
        cluster.sim.run_until_idle()
        seq_naks = [r for r in sniffer.records if r.is_seq_nak]
        assert len(seq_naks) == 1  # suppressed until ePSN advances
        assert len(client.cq.poll(10)) == 2  # both recovered

    def test_rnr_wait_discards_read_responses(self):
        # Figure 1 left: responses during the RNR delay are discarded
        cluster, client, server = make_connected_pair(
            server_odp=OdpMode.EXPLICIT, populate=False)
        post_read(client, server, wr_id=1, offset=0)
        post_read(client, server, wr_id=2, offset=64)  # same page
        cluster.sim.run_until_idle()
        assert len(client.cq.poll(10)) == 2

    def test_duplicate_read_request_is_reexecuted(self):
        cluster, client, server = make_connected_pair()
        sniffer = Sniffer(cluster.network)
        # drop the first response so the request is retransmitted
        dropped = []

        def drop_first_response(pkt):
            if pkt.is_read_response and not dropped:
                dropped.append(pkt)
                return True
            return False

        cluster.network.add_loss_rule(drop_first_response)
        post_read(client, server, wr_id=1)
        cluster.sim.run_until_idle()
        responses = [r for r in sniffer.records
                     if r.opcode is Opcode.RDMA_READ_RESPONSE_ONLY]
        assert len(responses) >= 2  # original (dropped) + replay
        wc, = client.cq.poll(10)
        assert wc.ok


class TestCompletionSemantics:
    def test_wr_ids_preserved_out_of_numeric_order(self):
        cluster, client, server = make_connected_pair()
        for wr_id in (42, 7, 1000):
            post_read(client, server, wr_id=wr_id, offset=wr_id % 512)
        cluster.sim.run_until_idle()
        assert [wc.wr_id for wc in client.cq.poll(10)] == [42, 7, 1000]

    def test_mixed_read_write_ordering(self):
        cluster, client, server = make_connected_pair()
        client.buf.write(0, b"w" * 32)
        client.qp.post_send(WorkRequest.write(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 32),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        post_read(client, server, wr_id=2, offset=64)
        client.qp.post_send(WorkRequest.write(
            wr_id=3, local=Sge(client.mr, client.buf.addr(128), 32),
            remote=RemoteAddr(server.buf.addr(128), server.mr.rkey)))
        cluster.sim.run_until_idle()
        assert [wc.wr_id for wc in client.cq.poll(10)] == [1, 2, 3]

    def test_cq_wait_future(self):
        cluster, client, server = make_connected_pair()
        waiter = client.cq.wait(2)
        post_read(client, server, wr_id=1)
        post_read(client, server, wr_id=2, offset=64)
        cluster.sim.run_until_idle()
        assert waiter.done
        assert [wc.wr_id for wc in waiter.result] == [1, 2]

    def test_cq_capacity_overflow_counted(self):
        from repro.ib.verbs.cq import CompletionQueue
        from repro.ib.verbs.wr import WorkCompletion
        from repro.ib.verbs.enums import WcOpcode
        from repro.sim.engine import Simulator

        cq = CompletionQueue(Simulator(), cqn=1, capacity=2)
        for i in range(4):
            cq.push(WorkCompletion(i, WcStatus.SUCCESS, WcOpcode.SEND,
                                   0, 1, 0))
        assert cq.depth == 2
        assert cq.overflows == 2


def _header_cell(lazy: bool) -> list:
    """Every packet header of a small mixed cell, in injection order.

    One RC QP pair carries a 3-MTU READ, a single-packet WRITE whose
    first copy is lost (so the multi-packet WRITE behind it arrives out
    of sequence and draws a PSN-sequence NAK), a SEND that meets an RNR
    NAK until its receive is posted, and a FETCH_ADD; a UD QP pair on
    the same nodes carries one datagram.
    """
    cluster, client, server = make_connected_pair()
    for node in cluster.nodes:
        node.rnic.lazy_payloads = lazy
    sim = cluster.sim
    rows = []

    def tap(now, src_lid, pkt):
        reth, aeth = pkt.reth, pkt.aeth
        rows.append((
            now, pkt.serial, pkt.src_lid, pkt.dst_lid, pkt.src_qpn,
            pkt.dst_qpn, pkt.opcode.name, pkt.psn, pkt.ack_req,
            pkt.retransmission, pkt.wire_size, pkt.payload_size,
            None if reth is None else (reth.vaddr, reth.rkey,
                                       reth.dma_length),
            None if aeth is None else (aeth.syndrome.name, aeth.msn)))

    cluster.network.add_tap(tap)
    lost = []

    def lose_first_short_write(pkt):
        if pkt.opcode is Opcode.RDMA_WRITE_ONLY and not lost:
            lost.append(pkt)
            return True
        return False

    cluster.network.add_loss_rule(lose_first_short_write)
    remote = server.mr.rkey
    post_read(client, server, wr_id=1, offset=0, size=5000)
    client.qp.post_send(WorkRequest.write(
        wr_id=2, local=Sge(client.mr, client.buf.addr(8192), 32),
        remote=RemoteAddr(server.buf.addr(8192), remote)))
    client.qp.post_send(WorkRequest.write(
        wr_id=3, local=Sge(client.mr, client.buf.addr(12288), 5000),
        remote=RemoteAddr(server.buf.addr(12288), remote)))
    client.qp.post_send(WorkRequest.send(
        wr_id=4, local=Sge(client.mr, client.buf.addr(20480), 64)))
    client.qp.post_send(WorkRequest.fetch_add(
        wr_id=5, local=Sge(client.mr, client.buf.addr(24576), 8),
        remote=RemoteAddr(server.buf.addr(24576), remote), add=3))
    sim.schedule(400_000, server.qp.post_recv, 40,
                 Sge(server.mr, server.buf.addr(32768), 4096))
    ud_client = client.pd.create_ud_qp(client.cq)
    ud_server = server.pd.create_ud_qp(server.cq)
    ud_server.post_recv(41, Sge(server.mr, server.buf.addr(40960), 4096))
    ud_client.post_send(6, server.node.rnic.lid, ud_server.qpn, b"ud" * 50)
    sim.run_until_idle()
    assert lost, "the loss rule never fired"
    assert any(row[4] == ud_client.qpn for row in rows)
    assert sorted(wc.wr_id for wc in client.cq.poll(100) if wc.ok) \
        == [1, 2, 3, 4, 5]
    assert sorted(wc.wr_id for wc in server.cq.poll(100) if wc.ok) \
        == [40, 41]
    return rows


class TestPacketHeaders:
    #: sha256 of the cell's header rows.  Pins the fields the capture
    #: goldens do not: LIDs, QPNs, ack-request and retransmission flags,
    #: wire and payload sizes, RETH and AETH contents, serials.
    GOLDEN = ("2b3649f95c1620804e027e1d72a15e8f"
              "43b1efc48ad5068231adf902395e9454")

    @pytest.mark.parametrize("lazy", [False, True],
                             ids=["real-payloads", "lazy-payloads"])
    def test_header_stream_pinned(self, lazy):
        rows = _header_cell(lazy)
        kinds = {row[6] for row in rows}
        # the cell reaches every header shape it claims to
        assert {"RDMA_READ_RESPONSE_FIRST", "RDMA_READ_RESPONSE_MIDDLE",
                "RDMA_READ_RESPONSE_LAST", "RDMA_WRITE_ONLY",
                "RDMA_WRITE_FIRST", "RDMA_WRITE_MIDDLE", "RDMA_WRITE_LAST",
                "SEND_ONLY", "FETCH_ADD", "ATOMIC_ACKNOWLEDGE"} <= kinds
        syndromes = {row[13][0] for row in rows if row[13] is not None}
        assert {"ACK", "RNR_NAK", "NAK_PSN_SEQ_ERR"} <= syndromes
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == self.GOLDEN


class TestNoStateSurvivesARun:
    def test_timeout_follows_each_runs_own_profile(self):
        """Three damming points in one process: the default ConnectX-4,
        the same point on a profile with a different ``timeout_factor``,
        then the default again.  Each point's stall must come from its
        own profile's ``detection_timeout_ns(C_ACK)`` (within its
        jitter), and the first and third runs must agree exactly — no
        cache or other state may carry over from one run to the next."""
        from dataclasses import replace

        from repro.bench.microbench import (MicrobenchConfig, OdpSetup,
                                            run_microbench)
        from repro.ib.device import CONNECTX4
        from repro.telemetry.counters import collect_counters

        slow = replace(CONNECTX4, timeout_factor=3.0)
        runs = []
        for profile in (CONNECTX4, slow, CONNECTX4):
            config = MicrobenchConfig(num_ops=2, odp=OdpSetup.SERVER,
                                      interval_us=1000, seed=7,
                                      profile=profile)
            clusters = []
            result = run_microbench(config, on_cluster=clusters.append)
            assert result.timeouts == 1
            counters = collect_counters(clusters)
            assert counters.total("damming_stall_timeouts") == 1
            stall = counters.total("damming_stalled_ns")
            mean = profile.detection_timeout_ns(config.cack)
            assert abs(stall - mean) <= profile.timeout_jitter * mean
            runs.append((result.execution_time_ns, result.completions,
                         result.total_packets, stall))
        assert runs[0] == runs[2]
        assert runs[1][3] > runs[0][3]
