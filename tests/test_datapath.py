"""Tests for the zero-allocation packet data path.

Covers the slotted/flyweight packet records, the lazy-payload mode's
bit-identity contract, link serialisation quantization, packet-serial
determinism, the ODP translation/readiness caches, and the capture ring
buffer.
"""

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.capture.sniffer import Sniffer
from repro.host.memory import PAGE_SIZE, VirtualMemory
from repro.ib.odp.translation import NicTranslationTable
from repro.ib.opcodes import Opcode, Syndrome
from repro.ib.packets import (AETH_BYTES, ATOMIC_ETH_BYTES,
                              BASE_HEADER_BYTES, RETH_BYTES, Aeth, Packet,
                              PayloadRef, Reth, payload_bytes)
from repro.net.link import Link, RATE_BYTES_PER_SEC
from repro.sim.engine import Simulator


def _link_end(rate):
    sim = Simulator(seed=0)
    return Link(sim, rate=rate, name="t").a_to_b


class TestSerialization:
    """The 8 ns serializer-tick quantization of LinkEnd.serialization_ns."""

    # (rate, wire_size) -> expected occupancy, pinned so any change to
    # the rounding (including the order of the float divisions) fails.
    PINNED = {
        ("FDR", 26): 1, ("FDR", 30): 8, ("FDR", 42): 8,
        ("FDR", 126): 16, ("FDR", 4122): 608,
        ("EDR", 26): 1, ("EDR", 30): 1, ("EDR", 42): 1,
        ("EDR", 126): 8, ("EDR", 4122): 352,
        ("HDR", 26): 1, ("HDR", 30): 1, ("HDR", 42): 1,
        ("HDR", 126): 8, ("HDR", 4122): 168,
    }

    def test_pinned_quantized_values(self):
        for (rate, wire_size), expected in self.PINNED.items():
            end = _link_end(rate)
            assert end.serialization_ns(wire_size) == expected, \
                (rate, wire_size)

    def test_quantization_multiple_of_tick_or_floor(self):
        end = _link_end("FDR")
        for wire_size in range(0, 9000, 7):
            ns = end.serialization_ns(wire_size)
            assert ns == 1 or ns % 8 == 0
            assert ns >= 1

    def test_matches_pre_simplification_formula(self):
        # The retired max(1, ...) wrapper was redundant: `or 1` already
        # floors the result at 1 ns.
        for rate in RATE_BYTES_PER_SEC:
            end = _link_end(rate)
            per_ns = end.bandwidth_bytes_per_ns
            for wire_size in range(0, 5000, 13):
                old = max(1, round(wire_size / per_ns / 8) * 8 or 1)
                assert end.serialization_ns(wire_size) == old

    def test_cache_consistent_with_direct_computation(self):
        end = _link_end("FDR")
        first = end.serialization_ns(4122)
        assert end._ser_cache[4122] == first
        assert end.serialization_ns(4122) == first


class TestPacketRecords:
    """Slotted packets: wire_size fixed at construction."""

    def test_wire_size_components(self):
        base = Packet(1, 2, 3, 4, Opcode.SEND_ONLY, 0)
        assert base.wire_size == BASE_HEADER_BYTES
        with_payload = Packet(1, 2, 3, 4, Opcode.SEND_ONLY, 0,
                              payload=b"x" * 100)
        assert with_payload.wire_size == BASE_HEADER_BYTES + 100
        assert with_payload.payload_size == 100
        read = Packet(1, 2, 3, 4, Opcode.RDMA_READ_REQUEST, 0,
                      reth=Reth(0x1000, 0x42, 100))
        assert read.wire_size == BASE_HEADER_BYTES + RETH_BYTES
        ack = Packet(1, 2, 3, 4, Opcode.ACKNOWLEDGE, 0,
                     aeth=Aeth.of(Syndrome.ACK))
        assert ack.wire_size == BASE_HEADER_BYTES + AETH_BYTES
        atomic = Packet(1, 2, 3, 4, Opcode.FETCH_ADD, 0, payload=bytes(16),
                        reth=Reth(0x1000, 0x42, 8))
        assert atomic.wire_size == (BASE_HEADER_BYTES + 16 + RETH_BYTES
                                    + ATOMIC_ETH_BYTES)

    def test_direction_predicates(self):
        req = Packet(1, 2, 3, 4, Opcode.RDMA_READ_REQUEST, 0)
        assert req.is_request and not req.is_ack
        resp = Packet(1, 2, 3, 4, Opcode.RDMA_READ_RESPONSE_ONLY, 0)
        assert resp.is_read_response and not resp.is_request
        nak = Packet(1, 2, 3, 4, Opcode.ACKNOWLEDGE, 0,
                     aeth=Aeth.of(Syndrome.RNR_NAK))
        assert nak.is_ack and nak.is_nak

    def test_aeth_interning(self):
        a = Aeth.of(Syndrome.ACK, 7)
        b = Aeth.of(Syndrome.ACK, 7)
        assert a is b
        c = Aeth.of(Syndrome.ACK, 8)
        assert c is not a
        d = Aeth.of(Syndrome.RNR_NAK, 7, rnr_timer_ns=1_280_000)
        assert d is Aeth.of(Syndrome.RNR_NAK, 7, rnr_timer_ns=1_280_000)

    def test_payload_ref_semantics(self):
        ref = PayloadRef(0xAB, 100)
        assert len(ref) == 100
        assert ref.to_bytes() == bytes([0xAB]) * 100
        assert payload_bytes(ref) == ref.to_bytes()
        assert payload_bytes(b"hi") == b"hi"
        assert payload_bytes(None) == b""
        empty = PayloadRef(0, 0)
        assert not empty  # falsy via __len__, like b""
        lazy = Packet(1, 2, 3, 4, Opcode.RDMA_READ_RESPONSE_ONLY, 0,
                      payload=PayloadRef(0, 100))
        real = Packet(1, 2, 3, 4, Opcode.RDMA_READ_RESPONSE_ONLY, 0,
                      payload=bytes(100))
        assert lazy.wire_size == real.wire_size


class TestSerialDeterminism:
    """Back-to-back runs in one process number packets identically."""

    CONFIG = dict(num_ops=4, odp=OdpSetup.BOTH, seed=5)

    def _serials(self):
        serials = []
        run_microbench(
            MicrobenchConfig(**self.CONFIG),
            on_cluster=lambda c: c.network.add_tap(
                lambda _t, _lid, pkt: serials.append(pkt.serial)))
        return serials

    def test_serials_repeat_across_runs(self):
        first = self._serials()
        second = self._serials()
        assert first
        assert first == second
        assert min(first) == 1  # numbering restarts with each cluster


class _MrStub:
    """Just enough MR for the translation table: handle + page walk."""

    def __init__(self, handle=1):
        self.handle = handle

    @staticmethod
    def pages_of_range(addr, size):
        return VirtualMemory.pages_of_range(addr, size)


class TestTranslationRangeCache:
    """The MTT-style memoisation of NicTranslationTable.range_mapped."""

    def test_hit_and_generation_invalidation(self):
        table = NicTranslationTable()
        mr = _MrStub()
        addr, size = 0, 2 * PAGE_SIZE
        assert not table.range_mapped(mr, addr, size)
        assert not table.range_mapped(mr, addr, size)
        assert table.range_cache_hits == 1  # second ask is a dict hit
        table.map_range(mr, addr, size)
        # The mapping bumps the generation: the stale False cannot be
        # served again.
        assert table.range_mapped(mr, addr, size)
        table.unmap_page(mr, 1)
        assert not table.range_mapped(mr, addr, size)
        table.map_page(mr, 1)
        assert table.range_mapped(mr, addr, size)

    def test_unmap_all_invalidates(self):
        table = NicTranslationTable()
        mr = _MrStub()
        table.map_range(mr, 0, PAGE_SIZE)
        assert table.range_mapped(mr, 0, PAGE_SIZE)
        assert table.unmap_all(mr) == 1
        assert not table.range_mapped(mr, 0, PAGE_SIZE)

    def test_noop_changes_do_not_bump(self):
        table = NicTranslationTable()
        mr = _MrStub()
        table.map_page(mr, 0)
        gen = table.generation
        table.map_page(mr, 0)       # already mapped
        table.unmap_page(mr, 99)    # never mapped
        assert table.generation == gen

    def test_unmap_generation_counts_removals_only(self):
        """The storm memo's stamp: maps and sticky saves leave it, real
        removals (a flush or a deregistration) bump it."""
        table = NicTranslationTable()
        mr = _MrStub()
        table.map_range(mr, 0, 3 * PAGE_SIZE)
        assert table.generation == 3
        assert table.unmap_generation == 0
        table.unmap_page(mr, 0)
        assert table.unmap_generation == 1
        table.unmap_page(mr, 0)     # already gone
        table.pin_page(mr, 1)
        table.unmap_page(mr, 1)     # sticky save
        assert table.sticky_saves == 1
        assert table.unmap_generation == 1
        table.map_page(mr, 0)
        assert table.unmap_generation == 1
        assert table.unmap_all(mr) == 3
        assert table.unmap_generation == 2

    def test_ready_cache_exercised_under_flood(self):
        clusters = []
        run_microbench(
            MicrobenchConfig(size=100, num_ops=64, num_qps=8,
                             odp=OdpSetup.CLIENT, cack=18, seed=3),
            on_cluster=clusters.append)
        odp = clusters[0].nodes[0].rnic.odp
        # Repeated "is my local range fresh?" checks between two engine
        # transitions are served by the memo, not page walks.  (The
        # hit/miss ratio grows with flood size; this small shape only
        # proves the cache is live.)
        assert odp.ready_cache_hits > 0
        assert odp.ready_cache_misses > 0


class TestLazyPayloadBitIdentity:
    """Satellite 3: lazy and integrity modes produce identical figures."""

    @staticmethod
    def _metrics(result):
        return (result.execution_time_ns, result.total_packets,
                result.timeouts, result.rnr_naks, result.seq_naks,
                result.flaw_drops, result.responses_discarded_odp,
                result.responses_discarded_rnr,
                result.blind_retransmit_rounds,
                result.client_page_faults, result.server_page_faults,
                result.errors,
                tuple((w, t, s) for w, t, s in result.completions))

    def _compare(self, **kwargs):
        real = run_microbench(MicrobenchConfig(integrity=True, **kwargs))
        lazy = run_microbench(MicrobenchConfig(integrity=False, **kwargs))
        assert self._metrics(real) == self._metrics(lazy)
        assert real.integrity_errors == 0

    def test_fig04_damming_shape(self):
        self._compare(num_ops=2, odp=OdpSetup.BOTH, interval_us=2000.0,
                      min_rnr_timer_ns=1_280_000, seed=7)

    def test_fig09_flood_shape(self):
        self._compare(size=100, num_ops=128, num_qps=16,
                      odp=OdpSetup.CLIENT, cack=18,
                      min_rnr_timer_ns=1_280_000, seed=3)

    def test_corruption_detected_when_integrity_on(self):
        def corrupt_responses(cluster):
            def tap(_t, _lid, packet):
                if packet.is_read_response and packet.payload:
                    packet.payload = b"\xFF" * len(packet.payload)
            cluster.network.add_tap(tap)

        result = run_microbench(
            MicrobenchConfig(num_ops=4, odp=OdpSetup.NONE, seed=1),
            on_cluster=corrupt_responses)
        assert result.errors == 0  # transport-level success...
        assert result.integrity_errors == 4  # ...but every payload wrong


class _FakeNetwork:
    def __init__(self):
        self.taps = []

    def add_tap(self, tap, lids=None, synthetic_sink=None):
        self.taps.append(tap)

    def remove_tap(self, tap):
        self.taps.remove(tap)


def _packet(psn):
    return Packet(1, 2, 3, 4, Opcode.RDMA_READ_REQUEST, psn,
                  reth=Reth(0x1000, 0x42, 100))


class TestSnifferRing:
    """The preallocated ring buffer behind the capture layer."""

    def test_unbounded_capture_order(self):
        net = _FakeNetwork()
        sniffer = Sniffer(net)
        for psn in range(10):
            net.taps[0](psn * 100, 1, _packet(psn))
        assert sniffer.count() == 10
        assert [r.psn for r in sniffer.records] == list(range(10))
        assert sniffer.dropped == 0

    def test_bounded_ring_keeps_newest(self):
        net = _FakeNetwork()
        sniffer = Sniffer(net, capacity=4)
        for psn in range(10):
            net.taps[0](psn * 100, 1, _packet(psn))
        assert sniffer.count() == 4
        assert sniffer.dropped == 6
        assert [r.psn for r in sniffer.records] == [6, 7, 8, 9]

    def test_clear_resets_ring(self):
        net = _FakeNetwork()
        sniffer = Sniffer(net, capacity=3)
        for psn in range(5):
            net.taps[0](psn, 1, _packet(psn))
        sniffer.clear()
        assert sniffer.records == []
        assert sniffer.dropped == 0
        net.taps[0](7, 1, _packet(7))
        assert [r.psn for r in sniffer.records] == [7]

    def test_records_cache_invalidated_by_new_packets(self):
        net = _FakeNetwork()
        sniffer = Sniffer(net)
        net.taps[0](1, 1, _packet(1))
        first = sniffer.records
        assert first is sniffer.records  # cached between captures
        net.taps[0](2, 1, _packet(2))
        assert [r.psn for r in sniffer.records] == [1, 2]

    def test_count_by_opcode_without_materialisation(self):
        net = _FakeNetwork()
        sniffer = Sniffer(net)
        net.taps[0](1, 1, _packet(1))
        net.taps[0](2, 1, Packet(2, 1, 4, 3, Opcode.ACKNOWLEDGE, 1,
                                 aeth=Aeth.of(Syndrome.ACK)))
        assert sniffer.count(Opcode.RDMA_READ_REQUEST) == 1
        assert sniffer.count(Opcode.ACKNOWLEDGE) == 1
        assert sniffer._cache is None  # count() never built records
