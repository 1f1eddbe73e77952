"""End-to-end verbs tests with pinned memory (no ODP involved)."""

import pytest

from repro.ib.verbs.enums import Access, OdpMode, QpState, WcOpcode, WcStatus
from repro.ib.verbs.qp import QpAttrs
from repro.ib.verbs.wr import RemoteAddr, Sge, WorkRequest

from tests.helpers import make_connected_pair


class TestRead:
    def test_single_read_moves_data(self):
        cluster, client, server = make_connected_pair()
        server.buf.write(0, b"hello from the server" + bytes(43))
        client.qp.post_send(WorkRequest.read(
            wr_id=1,
            local=Sge(client.mr, client.buf.addr(0), 64),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        wcs = client.cq.poll(10)
        assert len(wcs) == 1
        assert wcs[0].status is WcStatus.SUCCESS
        assert wcs[0].opcode is WcOpcode.RDMA_READ
        assert client.buf.read(0, 21) == b"hello from the server"

    def test_read_latency_is_microseconds(self):
        cluster, client, server = make_connected_pair()
        start = cluster.sim.now
        client.qp.post_send(WorkRequest.read(
            wr_id=1,
            local=Sge(client.mr, client.buf.addr(0), 100),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        elapsed_us = (cluster.sim.now - start) / 1000
        assert 1 < elapsed_us < 50  # "usual round trip ... several us"

    def test_multi_packet_read_reassembles(self):
        cluster, client, server = make_connected_pair(buf_size=3 * 4096)
        pattern = bytes(range(256)) * 33  # 8448 bytes > 4 MTU-2048 packets
        server.buf.write(0, pattern)
        client.qp.post_send(WorkRequest.read(
            wr_id=7,
            local=Sge(client.mr, client.buf.addr(0), len(pattern)),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert client.buf.read(0, len(pattern)) == pattern

    def test_pipelined_reads_complete_in_order(self):
        cluster, client, server = make_connected_pair()
        for i in range(8):
            server.buf.write(i * 128, bytes([i]) * 128)
            client.qp.post_send(WorkRequest.read(
                wr_id=i,
                local=Sge(client.mr, client.buf.addr(i * 128), 128),
                remote=RemoteAddr(server.buf.addr(i * 128), server.mr.rkey)))
        cluster.sim.run_until_idle()
        wcs = client.cq.poll(20)
        assert [wc.wr_id for wc in wcs] == list(range(8))
        for i in range(8):
            assert client.buf.read(i * 128, 128) == bytes([i]) * 128


class TestWrite:
    def test_single_write_moves_data(self):
        cluster, client, server = make_connected_pair()
        client.buf.write(0, b"pushed data")
        client.qp.post_send(WorkRequest.write(
            wr_id=2,
            local=Sge(client.mr, client.buf.addr(0), 11),
            remote=RemoteAddr(server.buf.addr(100), server.mr.rkey)))
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok and wc.opcode is WcOpcode.RDMA_WRITE
        assert server.buf.read(100, 11) == b"pushed data"

    def test_multi_packet_write(self):
        cluster, client, server = make_connected_pair(buf_size=4 * 4096)
        payload = bytes((i * 7) % 256 for i in range(10_000))
        client.buf.write(0, payload)
        client.qp.post_send(WorkRequest.write(
            wr_id=3,
            local=Sge(client.mr, client.buf.addr(0), len(payload)),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert server.buf.read(0, len(payload)) == payload


class TestSendRecv:
    def test_send_consumes_recv(self):
        cluster, client, server = make_connected_pair()
        server.qp.post_recv(99, Sge(server.mr, server.buf.addr(0), 4096))
        client.buf.write(0, b"two-sided message")
        client.qp.post_send(WorkRequest.send(
            wr_id=4, local=Sge(client.mr, client.buf.addr(0), 17)))
        cluster.sim.run_until_idle()
        send_wc, = client.cq.poll(10)
        recv_wc, = server.cq.poll(10)
        assert send_wc.ok and send_wc.opcode is WcOpcode.SEND
        assert recv_wc.ok and recv_wc.opcode is WcOpcode.RECV
        assert recv_wc.wr_id == 99
        assert recv_wc.byte_len == 17
        assert server.buf.read(0, 17) == b"two-sided message"

    def test_send_without_recv_rnr_retries_until_recv_posted(self):
        cluster, client, server = make_connected_pair()
        client.buf.write(0, b"late")
        client.qp.post_send(WorkRequest.send(
            wr_id=5, local=Sge(client.mr, client.buf.addr(0), 4)))
        # Post the RECV 2 ms later: the SEND must survive via RNR NAK.
        cluster.sim.schedule(2_000_000, server.qp.post_recv, 1,
                             Sge(server.mr, server.buf.addr(0), 4096))
        cluster.sim.run_until_idle()
        send_wc, = client.cq.poll(10)
        assert send_wc.ok
        assert server.buf.read(0, 4) == b"late"
        assert client.qp.requester.rnr_naks_received >= 1

    def test_inline_send(self):
        cluster, client, server = make_connected_pair()
        server.qp.post_recv(1, Sge(server.mr, server.buf.addr(0), 4096))
        client.qp.post_send(WorkRequest.send(wr_id=6, inline_data=b"inline!"))
        cluster.sim.run_until_idle()
        assert server.buf.read(0, 7) == b"inline!"


class TestAtomics:
    def test_fetch_add(self):
        cluster, client, server = make_connected_pair()
        server.buf.write(0, (100).to_bytes(8, "little"))
        client.qp.post_send(WorkRequest.fetch_add(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 8),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey), add=5))
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert int.from_bytes(server.buf.read(0, 8), "little") == 105
        assert int.from_bytes(client.buf.read(0, 8), "little") == 100

    def test_compare_swap_success_and_failure(self):
        cluster, client, server = make_connected_pair()
        server.buf.write(0, (7).to_bytes(8, "little"))
        client.qp.post_send(WorkRequest.compare_swap(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 8),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey),
            compare=7, swap=11))
        cluster.sim.run_until_idle()
        assert int.from_bytes(server.buf.read(0, 8), "little") == 11
        # Second CAS with a stale compare value must not swap.
        client.qp.post_send(WorkRequest.compare_swap(
            wr_id=2, local=Sge(client.mr, client.buf.addr(8), 8),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey),
            compare=7, swap=99))
        cluster.sim.run_until_idle()
        assert int.from_bytes(server.buf.read(0, 8), "little") == 11
        assert int.from_bytes(client.buf.read(8, 8), "little") == 11


class TestErrors:
    def test_bad_rkey_fails_with_remote_access_error(self):
        cluster, client, server = make_connected_pair()
        client.qp.post_send(WorkRequest.read(
            wr_id=1,
            local=Sge(client.mr, client.buf.addr(0), 8),
            remote=RemoteAddr(server.buf.addr(0), 0xDEAD)))
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.status is WcStatus.REM_ACCESS_ERR
        assert client.qp.state is QpState.ERROR

    def test_out_of_bounds_remote_address_rejected(self):
        cluster, client, server = make_connected_pair()
        client.qp.post_send(WorkRequest.read(
            wr_id=1,
            local=Sge(client.mr, client.buf.addr(0), 8),
            remote=RemoteAddr(server.buf.end + 4096, server.mr.rkey)))
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.status is WcStatus.REM_ACCESS_ERR

    @pytest.mark.parametrize("access, offset, status", [
        (Access.all(), -8, WcStatus.SUCCESS),
        (Access.all(), -7, WcStatus.REM_ACCESS_ERR),  # one byte past
        (Access.LOCAL_WRITE | Access.REMOTE_WRITE, 0,
         WcStatus.REM_ACCESS_ERR),
        (Access.REMOTE_READ, -8, WcStatus.SUCCESS),
    ], ids=["last-word", "straddles-end", "no-remote-read", "read-only"])
    def test_read_checks_span_and_access(self, access, offset, status):
        """The responder admits a READ only inside the MR's span and
        with ``REMOTE_READ`` among its registered access flags."""
        cluster, client, server = make_connected_pair()
        mr = server.pd.reg_mr(server.buf, access=access, odp=OdpMode.PINNED)
        cluster.sim.run_until_idle()
        start = server.buf.end + offset if offset < 0 else server.buf.base
        client.qp.post_send(WorkRequest.read(
            wr_id=1,
            local=Sge(client.mr, client.buf.addr(0), 8),
            remote=RemoteAddr(start, mr.rkey)))
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.status is status

    def test_post_on_error_qp_rejected(self):
        cluster, client, server = make_connected_pair()
        client.qp.enter_error()
        with pytest.raises(RuntimeError):
            client.qp.post_send(WorkRequest.read(
                wr_id=1,
                local=Sge(client.mr, client.buf.addr(0), 8),
                remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))

    def test_sge_outside_mr_rejected(self):
        cluster, client, server = make_connected_pair()
        with pytest.raises(ValueError):
            Sge(client.mr, client.buf.end + 1, 8)

    def test_later_wrs_flush_after_fatal_error(self):
        cluster, client, server = make_connected_pair()
        client.qp.post_send(WorkRequest.read(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 8),
            remote=RemoteAddr(server.buf.addr(0), 0xBAD)))
        client.qp.post_send(WorkRequest.read(
            wr_id=2, local=Sge(client.mr, client.buf.addr(8), 8),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        wcs = client.cq.poll(10)
        assert [wc.status for wc in wcs] == [WcStatus.REM_ACCESS_ERR,
                                             WcStatus.WR_FLUSH_ERR]


class TestQpLifecycle:
    def test_connect_twice_rejected(self):
        cluster, client, server = make_connected_pair()
        with pytest.raises(RuntimeError):
            client.qp.connect(server.qp.info())

    def test_unsignaled_wr_produces_no_cqe(self):
        cluster, client, server = make_connected_pair()
        client.qp.post_send(WorkRequest.read(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 8),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey),
            signaled=False))
        cluster.sim.run_until_idle()
        assert client.cq.poll(10) == []
        assert client.qp.outstanding == 0

    def test_qp_attrs_validation(self):
        with pytest.raises(ValueError):
            QpAttrs(cack=32)
        with pytest.raises(ValueError):
            QpAttrs(retry_count=8)
