"""Steady-state storm coalescing: exactness, gating, and probes.

The coalescer's contract is *exact or decline*: every reported metric of
a run with ``coalesce=True`` must be bit-identical to the same run with
``coalesce=False`` — the fast-forward only changes how long the wall
clock takes to get there.  These tests enforce that on Figure 4- and
Figure 9-shaped workloads, check that armed observers force the
per-packet path (per QP pair, not globally), and unit-test the engine
probes and the tx-ring replay the closed forms are built on.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.helpers import make_connected_pair  # noqa: F401 - import order
from repro.bench.microbench import (MicrobenchConfig, OdpSetup,
                                    run_microbench)
import repro
from repro.capture.sniffer import Sniffer
from repro.host.cluster import build_pair
from repro.ib.odp.status_engine import PageStatusEngine
from repro.ib.transport.coalesce import StormCoalescer
from repro.sim.engine import Simulator
from repro.sim.timebase import MS
from repro.telemetry import Telemetry


def _metrics(result):
    """Every reported metric (the bit-identity surface).

    ``coalesced_rounds`` and ``events_coalesced`` describe how the run
    was executed, not what it measured, and legitimately differ.
    """
    d = dataclasses.asdict(result)
    d.pop("config")
    d.pop("coalesced_rounds")
    d.pop("events_coalesced")
    return d


def _flood_config(coalesce, num_qps=50, num_ops=512, size=400,
                  odp=OdpSetup.CLIENT, seed=50, max_rd_atomic=16,
                  telemetry=None):
    """A Figure 9-shaped point (client-ODP packet flood)."""
    return MicrobenchConfig(size=size, num_ops=num_ops, num_qps=num_qps,
                            odp=odp, cack=14,
                            min_rnr_timer_ns=round(1.28 * MS),
                            integrity=False, seed=seed,
                            max_rd_atomic=max_rd_atomic, coalesce=coalesce,
                            telemetry=telemetry)


class TestBitIdentity:
    @pytest.mark.parametrize("odp", list(OdpSetup))
    def test_fig04_shape(self, odp):
        """The paper's damming experiment: 2 ops, every ODP mode."""
        def cfg(coalesce):
            return MicrobenchConfig(size=100, num_ops=2, num_qps=1,
                                    odp=odp,
                                    min_rnr_timer_ns=round(1.28 * MS),
                                    coalesce=coalesce)
        off = run_microbench(cfg(False))
        on = run_microbench(cfg(True))
        assert _metrics(off) == _metrics(on)

    def test_fig09_shape_client_flood(self):
        """A flood point deep enough to engage blind-round coalescing."""
        off = run_microbench(_flood_config(False))
        on = run_microbench(_flood_config(True))
        assert _metrics(off) == _metrics(on)
        assert on.coalesced_rounds > 0
        assert off.coalesced_rounds == 0

    def test_fig09_shape_both_sides(self):
        off = run_microbench(_flood_config(False, num_qps=25, num_ops=256,
                                           odp=OdpSetup.BOTH))
        on = run_microbench(_flood_config(True, num_qps=25, num_ops=256,
                                          odp=OdpSetup.BOTH))
        assert _metrics(off) == _metrics(on)

    def test_fig09_shape_server_damming(self):
        off = run_microbench(_flood_config(False, num_qps=10, num_ops=256,
                                           odp=OdpSetup.SERVER))
        on = run_microbench(_flood_config(True, num_qps=10, num_ops=256,
                                          odp=OdpSetup.SERVER))
        assert _metrics(off) == _metrics(on)

    def test_joint_rounds_engage_at_scale(self):
        """Many stale QPs ticking into one another's spans must merge
        into joint rounds, not fall back to the per-packet path."""
        clusters = []
        result = run_microbench(_flood_config(True),
                                on_cluster=clusters.append)
        client_node = clusters[0].nodes[0]
        joint = sum(qp.coalescer.joint_rounds
                    for qp in client_node.rnic._qps.values())
        assert result.coalesced_rounds > 0
        assert joint > 0

    def test_telemetry_counters_and_fingerprint_unchanged(self):
        """An attached telemetry session forces per-packet delivery;
        fingerprints and the counter identity surface must match the
        per-packet run exactly (the gate the telemetry smoke runs)."""
        streams = []
        for coalesce in (False, True):
            tel = Telemetry()
            result = run_microbench(
                _flood_config(coalesce, num_qps=10, num_ops=128,
                              max_rd_atomic=1, telemetry=tel))
            streams.append((_metrics(result), tel.fingerprint(),
                            tel.counters().identity_surface()))
        assert streams[0] == streams[1]

    def test_capped_load_matches_uncapped_walk(self):
        """The status engine's load walk stops at the backlog cap (and
        is skipped once the backlog alone reaches it).  On a Fig 9-shaped
        client-ODP flood deep enough for the cap to bind, a twin run
        whose load_fn returns the full uncapped walk must price every
        service identically and report identical metrics, with every
        storm fast path on."""
        services = []

        def uncapped(cluster):
            for node in cluster.nodes:
                engine = node.rnic.status_engine
                walk = node.rnic.odp.retransmit_load

                def load_fn(cap, engine=engine, walk=walk):
                    full = walk(1 << 62)
                    capped = walk(cap)
                    # _serve_next has popped the item in service but
                    # still counts it: backlog == len(stack) + 1.
                    base = engine.backlog
                    services.append((
                        engine.service_cost_ns(max(base, full)),
                        engine.service_cost_ns(max(base, capped)),
                        max(base, full) > cap))
                    return full

                engine.load_fn = load_fn

        config = _flood_config(True, num_qps=256, num_ops=2048,
                               max_rd_atomic=8)
        reference = run_microbench(config, on_cluster=uncapped)
        capped = run_microbench(config)
        assert services
        assert all(full == part for full, part, _ in services)
        assert sum(bound for _, _, bound in services) > len(services) // 4
        # Every Figure 9 column (execution time, packets, timeouts,
        # blind retransmits) is part of this surface.
        assert _metrics(reference) == _metrics(capped)


class TestFleetSweeps:
    def test_fleet_sweeps_engage_with_coalesce_alone(self):
        """``coalesce=True`` is the only knob a window-1 lazy-payload
        flood needs for fleet and seeded sweeps to carry it, and the
        swept run still measures exactly what the per-packet run does."""
        def cfg(coalesce):
            return MicrobenchConfig(size=400, num_ops=2048, num_qps=512,
                                    interval_us=0.0, odp=OdpSetup.CLIENT,
                                    integrity=False, seed=50,
                                    max_rd_atomic=1, coalesce=coalesce)
        clusters = []
        on = run_microbench(cfg(True), on_cluster=clusters.append)
        off = run_microbench(cfg(False))
        coalescers = [qp.coalescer for node in clusters[0].nodes
                      for qp in node.rnic._qps.values()]
        assert sum(c.fleet_rounds for c in coalescers) > 0
        assert sum(c.seed_rounds for c in coalescers) > 0
        assert on.blind_retransmit_rounds > 0
        assert _metrics(on) == _metrics(off)

    def test_runtime_never_imports_numpy(self):
        """The simulator is pure stdlib: a coalesced flood (fleet sweeps
        included) runs in a fresh interpreter without loading numpy."""
        script = (
            "import sys\n"
            "import repro\n"
            "from repro.bench.microbench import (MicrobenchConfig,\n"
            "                                    OdpSetup, run_microbench)\n"
            "run_microbench(MicrobenchConfig(\n"
            "    size=400, num_ops=1024, num_qps=256, interval_us=0.0,\n"
            "    odp=OdpSetup.CLIENT, integrity=False, seed=50,\n"
            "    max_rd_atomic=1, coalesce=True))\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestObserverGating:
    def test_default_sniffer_forces_real_path(self):
        """An armed tap must observe every storm packet: coalescing
        self-disables and the metrics still match the uncoalesced run."""
        sniffers = []
        on = run_microbench(
            _flood_config(True, num_qps=10, num_ops=128),
            on_cluster=lambda c: sniffers.append(Sniffer(c.network)))
        off = run_microbench(_flood_config(False, num_qps=10, num_ops=128))
        assert on.coalesced_rounds == 0  # tap forced per-packet
        assert _metrics(off) == _metrics(on)
        assert len(sniffers[0].records) == on.total_packets

    def test_synthetic_sniffer_keeps_coalescing_and_sees_all(self):
        """A synthetic-capable sniffer receives bulk rows for coalesced
        rounds — same records as a per-packet capture, still fast."""
        taps = []
        on = run_microbench(
            _flood_config(True, num_qps=25, num_ops=256),
            on_cluster=lambda c: taps.append(
                Sniffer(c.network, synthetic_ok=True)))
        real = []
        off = run_microbench(
            _flood_config(False, num_qps=25, num_ops=256),
            on_cluster=lambda c: real.append(Sniffer(c.network)))
        assert on.coalesced_rounds > 0
        rows_on = [r.describe() for r in taps[0].records]
        rows_off = [r.describe() for r in real[0].records]
        assert rows_on == rows_off

    def test_scoped_tap_only_forces_its_own_lids(self):
        cluster = build_pair()
        net = cluster.network
        lid_a, lid_b = (node.rnic.lid for node in cluster.nodes)
        assert not net.requires_real(lid_a, lid_b)
        tap = lambda t, lid, pkt: None  # noqa: E731
        net.add_tap(tap, lids=(999,))
        assert not net.requires_real(lid_a, lid_b)  # other traffic
        assert net.requires_real(999, lid_b)
        net.remove_tap(tap)
        net.add_tap(tap, lids=(lid_a,))
        assert net.requires_real(lid_a, lid_b)
        net.remove_tap(tap)
        assert not net.requires_real(lid_a, lid_b)

    def test_unscoped_tap_and_loss_rules_force_everything(self):
        cluster = build_pair()
        net = cluster.network
        lid_a, lid_b = (node.rnic.lid for node in cluster.nodes)
        tap = lambda t, lid, pkt: None  # noqa: E731
        net.add_tap(tap)
        assert net.requires_real(lid_a, lid_b)
        net.remove_tap(tap)
        net.add_loss_rule(lambda pkt: False, lids=(999,))
        assert not net.requires_real(lid_a, lid_b)
        net.add_loss_rule(lambda pkt: False)
        assert net.requires_real(lid_a, lid_b)
        net.clear_loss_rules()
        assert not net.requires_real(lid_a, lid_b)

    def test_synthetic_sink_does_not_force_real(self):
        cluster = build_pair()
        net = cluster.network
        lid_a, lid_b = (node.rnic.lid for node in cluster.nodes)
        tap = lambda t, lid, pkt: None  # noqa: E731
        net.add_tap(tap, synthetic_sink=lambda rows: None)
        assert not net.requires_real(lid_a, lid_b)
        assert len(net.synthetic_sinks(lid_a, lid_b)) == 1


class TestEngineProbes:
    def test_quiet_until(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        assert sim.quiet_until(99)
        assert not sim.quiet_until(100)
        assert not sim.quiet_until(500)

    def test_quiet_until_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(100, lambda: None)
        event.cancel()
        assert sim.quiet_until(1000)

    def test_live_events_until_heap_and_wheel(self):
        sim = Simulator()
        near = sim.schedule(100, lambda: None)
        far = sim.schedule_timer(500_000, lambda: None)  # wheel-resident
        beyond = sim.schedule_timer(5_000_000, lambda: None)
        found = sim.live_events_until(1_000_000)
        assert near in found
        assert far in found
        assert beyond not in found
        far.cancel()
        found = sim.live_events_until(1_000_000)
        assert found == [near]

    def test_wheel_earliest_until_is_exact(self):
        sim = Simulator()
        sim.schedule_timer(400_000, lambda: None)
        sim.schedule_timer(700_000, lambda: None)
        wheel = sim._wheel
        assert wheel.earliest_until(300_000) is None
        assert wheel.earliest_until(400_000) == 400_000
        assert wheel.earliest_until(1_000_000) == 400_000

    def test_status_engine_next_transition(self):
        cluster = build_pair()
        sim = Simulator()
        engine = PageStatusEngine(sim, cluster.nodes[0].rnic.profile)
        assert engine.next_transition_at() is None
        engine.enqueue_resume(1, 0, 0, lambda: None)
        # Deferred-first-pop window: pessimistically "now".
        assert engine.next_transition_at() == sim.now
        sim.run_until_idle()
        assert engine.next_transition_at() is None
        assert engine.resumes_done == 1


class TestRingDrain:
    """The round-robin tx-ring replay behind joint synthesis."""

    drain = staticmethod(StormCoalescer._ring_drain)

    def test_single_queue_back_to_back(self):
        out = self.drain([(0, 1, "a"), (0, 1, "b"), (0, 1, "c")], 700)
        assert out == [(700, "a"), (1400, "b"), (2100, "c")]

    def test_round_robin_interleave(self):
        enq = [(0, 1, "a1"), (0, 1, "a2"), (0, 1, "a3"),
               (350, 2, "b1"), (350, 2, "b2")]
        out = self.drain(enq, 700)
        assert out == [(700, "a1"), (1400, "b1"), (2100, "a2"),
                       (2800, "b2"), (3500, "a3")]

    def test_idle_restart(self):
        out = self.drain([(0, 1, "a"), (5000, 1, "b")], 700)
        assert out == [(700, "a"), (5700, "b")]

    def test_ambiguous_tie_declines(self):
        """An enqueue landing exactly on a drain instant that newly
        rings its QP while the drained head is re-appended makes the
        ring order heap-seq dependent: must return None, not guess."""
        enq = [(0, 1, "a1"), (0, 1, "a2"), (700, 2, "b1")]
        assert self.drain(enq, 700) is None

    def test_harmless_tie_allowed(self):
        """Same instant, but the drained queue empties: both event
        orders produce the same schedule, so the round may proceed."""
        enq = [(0, 1, "a1"), (700, 2, "b1")]
        out = self.drain(enq, 700)
        assert out == [(700, "a1"), (1400, "b1")]
