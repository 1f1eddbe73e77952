"""Tests for the fabric layer: links, switch, routing, loss."""

import pytest

from repro.ib.opcodes import Opcode
from repro.ib.packets import Packet
from repro.net.link import Link, RATE_BYTES_PER_SEC
from repro.net.network import Network
from repro.net.switch import DEFAULT_FORWARD_NS
from repro.sim.engine import Simulator


def make_packet(dst_lid, payload=b"x" * 100, src_lid=1):
    return Packet(src_lid, dst_lid, 10, 20, Opcode.SEND_ONLY, 0,
                  payload=payload)


class TestLink:
    def test_serialization_and_propagation_delay(self):
        sim = Simulator()
        link = Link(sim, rate="FDR", propagation_ns=500)
        arrivals = []
        link.a_to_b.deliver = lambda pkt: arrivals.append(sim.now)
        link.a_to_b.transmit(make_packet(2))
        sim.run_until_idle()
        assert len(arrivals) == 1
        assert arrivals[0] > 500  # propagation plus serialization

    def test_back_to_back_packets_do_not_reorder(self):
        sim = Simulator()
        link = Link(sim, rate="FDR")
        seen = []
        link.a_to_b.deliver = lambda pkt: seen.append(pkt.psn)
        for psn in range(5):
            packet = make_packet(2)
            packet.psn = psn
            link.a_to_b.transmit(packet)
        sim.run_until_idle()
        assert seen == [0, 1, 2, 3, 4]

    def test_faster_rate_serializes_quicker(self):
        sim = Simulator()
        fdr = Link(sim, rate="FDR").a_to_b
        hdr = Link(sim, rate="HDR").a_to_b
        assert hdr.serialization_ns(4096) < fdr.serialization_ns(4096)

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValueError):
            Link(Simulator(), rate="XDR9000")

    def test_unconnected_end_rejects_transmit(self):
        link = Link(Simulator(), rate="FDR")
        with pytest.raises(RuntimeError):
            link.a_to_b.transmit(make_packet(2))


class TestNetwork:
    def test_routing_by_lid(self):
        sim = Simulator()
        net = Network(sim)
        received = {1: [], 2: []}
        net.attach(1, lambda pkt: received[1].append(pkt))
        net.attach(2, lambda pkt: received[2].append(pkt))
        net.inject(1, make_packet(2))
        sim.run_until_idle()
        assert len(received[2]) == 1
        assert received[1] == []

    def test_unknown_lid_dropped_at_switch(self):
        sim = Simulator()
        net = Network(sim)
        net.attach(1, lambda pkt: None)
        net.inject(1, make_packet(0x7FFF))
        sim.run_until_idle()
        assert net.switch.dropped_unknown_lid == 1
        assert len(net.drops) == 1

    def test_duplicate_lid_rejected(self):
        net = Network(Simulator())
        net.attach(1, lambda pkt: None)
        with pytest.raises(ValueError):
            net.attach(1, lambda pkt: None)

    def test_loss_rule_drops_matching_packets(self):
        sim = Simulator()
        net = Network(sim)
        got = []
        net.attach(1, lambda pkt: None)
        net.attach(2, got.append)
        net.add_loss_rule(lambda pkt: pkt.psn == 1)
        for psn in range(3):
            packet = make_packet(2)
            packet.psn = psn
            net.inject(1, packet)
        sim.run_until_idle()
        assert sorted(p.psn for p in got) == [0, 2]
        assert net.stats[1].drops_injected == 1

    def test_taps_see_everything_including_dropped(self):
        sim = Simulator()
        net = Network(sim)
        net.attach(1, lambda pkt: None)
        tapped = []
        net.add_tap(lambda t, src, pkt: tapped.append(pkt))
        net.add_loss_rule(lambda pkt: True)
        net.inject(1, make_packet(2))
        sim.run_until_idle()
        assert len(tapped) == 1

    def test_port_statistics(self):
        sim = Simulator()
        net = Network(sim)
        net.attach(1, lambda pkt: None)
        net.attach(2, lambda pkt: None)
        net.inject(1, make_packet(2))
        sim.run_until_idle()
        assert net.stats[1].tx_packets == 1
        assert net.stats[2].rx_packets == 1
        assert net.total_packets() == 1

    def test_round_trip_latency_is_microseconds(self):
        # sanity for "usual round trip latency ... several us"
        sim = Simulator()
        net = Network(sim)
        times = {}
        net.attach(1, lambda pkt: times.setdefault("back", sim.now))

        def bounce(pkt):
            net.inject(2, make_packet(1, src_lid=2))

        net.attach(2, bounce)
        net.inject(1, make_packet(2))
        sim.run_until_idle()
        assert 1_000 < times["back"] < 10_000  # 1-10 us

    def test_one_packet_costs_two_engine_events(self):
        # The switch hop rides the uplink delivery: one event forwards
        # at the switch, one delivers at the far port.
        sim = Simulator()
        net = Network(sim, propagation_ns=500)
        arrivals = []
        net.attach(1, lambda pkt: None)
        net.attach(2, lambda pkt: arrivals.append(sim.now))
        packet = make_packet(2)
        ser = net.link_ends(1)[0].serialization_ns(packet.wire_size)
        net.inject(1, packet)
        sim.run_until_idle()
        assert sim.events_fired == 2
        assert arrivals == [2 * ser + 2 * 500 + DEFAULT_FORWARD_NS]


def tracked_pair(track):
    """A two-LID fabric; ``track`` enables in-flight tracking on every
    link end.  Returns (sim, net, arrivals at LID 2)."""
    sim = Simulator()
    net = Network(sim, propagation_ns=500)
    arrivals = []
    net.attach(1, lambda pkt: None)
    net.attach(2, lambda pkt: arrivals.append((sim.now, pkt.psn)))
    if track:
        for lid in (1, 2):
            for end in net.link_ends(lid):
                end.enable_inflight_tracking()
    return sim, net, arrivals


class TestInflightTracking:
    """``enable_inflight_tracking`` changes no timing, and only the wire
    leg of a hop is cancellable."""

    def test_tracking_changes_no_arrival_time(self):
        timelines = []
        for track in (False, True):
            sim, net, arrivals = tracked_pair(track)
            for psn in range(3):
                packet = make_packet(2)
                packet.psn = psn
                net.inject(1, packet)
            sim.run_until_idle()
            timelines.append(arrivals)
        assert len(timelines[0]) == 3
        assert timelines[0] == timelines[1]

    @pytest.mark.parametrize("offset, delivered", [(-1, False), (1, True)])
    def test_set_down_drains_only_the_wire(self, offset, delivered):
        sim, net, arrivals = tracked_pair(track=True)
        uplink = net.link_ends(1)[0]
        packet = make_packet(2)
        wire_arrival = uplink.serialization_ns(packet.wire_size) + 500
        net.inject(1, packet)
        # One ns before the wire arrival the packet is still on the
        # wire; one ns after, it is inside the switch's forwarding hop.
        sim.at(wire_arrival + offset, uplink.set_down)
        sim.run_until_idle()
        assert uplink.dropped_link_down == (0 if delivered else 1)
        assert len(arrivals) == (1 if delivered else 0)
