"""Steady-state storm coalescing: exactness, gating, and probes.

The coalescer's contract is *exact or decline*: every reported metric of
a run with ``coalesce=True`` must be bit-identical to the same run with
``coalesce=False`` — the fast-forward only changes how long the wall
clock takes to get there.  These tests enforce that on Figure 4- and
Figure 9-shaped workloads, at the default window and in the window-1
lazy-payload configuration; check that raw taps and loss rules force
the per-packet path (per QP pair, not globally) while a sniffer or a
telemetry session leaves the path unchanged; and unit-test the engine
probes and the tx-ring replay the closed forms are built on.
"""

import dataclasses
import os
import random
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


def _window1_flood(coalesce, telemetry=None):
    """A 256-QP client-ODP flood at window 1 with lazy payloads: blind,
    joint and declined rounds all occur in one run."""
    return MicrobenchConfig(size=400, num_ops=1024, num_qps=256,
                            interval_us=0.0, odp=OdpSetup.CLIENT,
                            integrity=False, seed=50, max_rd_atomic=1,
                            coalesce=coalesce, telemetry=telemetry)


def _coalescers(cluster):
    return [qp.coalescer for node in cluster.nodes
            for qp in node.rnic._qps.values()]


#: The default window of 16 and the window-1 lazy-payload configuration.
WINDOWS = [pytest.param(16, id="window16"), pytest.param(1, id="window1")]


class TestBitIdentity:
    @pytest.mark.parametrize("odp, window1", [
        *(pytest.param(odp, False, id=str(odp)) for odp in OdpSetup),
        *(pytest.param(odp, True, id=f"{odp}-window1") for odp in OdpSetup)])
    def test_fig04_shape(self, odp, window1):
        """The paper's damming experiment: 2 ops, every ODP mode."""
        lazy_window1 = dict(integrity=False, max_rd_atomic=1) \
            if window1 else {}

        def cfg(coalesce):
            return MicrobenchConfig(size=100, num_ops=2, num_qps=1,
                                    odp=odp,
                                    min_rnr_timer_ns=round(1.28 * MS),
                                    coalesce=coalesce, **lazy_window1)
        off = run_microbench(cfg(False))
        on = run_microbench(cfg(True))
        assert _metrics(off) == _metrics(on)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_fig09_shape_client_flood(self, window):
        """A flood point deep enough to engage blind-round coalescing."""
        off = run_microbench(_flood_config(False, max_rd_atomic=window))
        on = run_microbench(_flood_config(True, max_rd_atomic=window))
        assert _metrics(off) == _metrics(on)
        assert on.coalesced_rounds > 0
        assert off.coalesced_rounds == 0

    @pytest.mark.parametrize("window", WINDOWS)
    def test_fig09_shape_both_sides(self, window):
        def cfg(coalesce):
            return _flood_config(coalesce, num_qps=25, num_ops=256,
                                 odp=OdpSetup.BOTH, max_rd_atomic=window)
        assert _metrics(run_microbench(cfg(False))) \
            == _metrics(run_microbench(cfg(True)))

    @pytest.mark.parametrize("num_qps, window", [
        pytest.param(10, 16, id="window16"),
        pytest.param(25, 1, id="window1")])
    def test_fig09_shape_server_damming(self, num_qps, window):
        def cfg(coalesce):
            return _flood_config(coalesce, num_qps=num_qps, num_ops=256,
                                 odp=OdpSetup.SERVER, max_rd_atomic=window)
        assert _metrics(run_microbench(cfg(False))) \
            == _metrics(run_microbench(cfg(True)))

    def test_rnr_recovery_replays_per_packet(self):
        """Server-side RNR recovery rounds (Figure 1, left) have no
        closed form: a Figure 6a point whose replays earn RNR NAKs
        coalesces nothing and measures what the per-packet run does."""
        def cfg(coalesce):
            return MicrobenchConfig(size=100, num_ops=2, num_qps=1,
                                    interval_us=250.0, odp=OdpSetup.SERVER,
                                    min_rnr_timer_ns=10_000, cack=1,
                                    integrity=False, seed=0,
                                    coalesce=coalesce)
        on = run_microbench(cfg(True))
        off = run_microbench(cfg(False))
        assert on.rnr_naks > 1
        assert on.coalesced_rounds == 0
        assert _metrics(on) == _metrics(off)

    @pytest.mark.parametrize("config", [
        pytest.param(_flood_config, id="window16"),
        pytest.param(_window1_flood, id="window1")])
    def test_joint_rounds_engage_at_scale(self, config):
        """Many stale QPs ticking into one another's spans must merge
        into joint rounds, not fall back to the per-packet path, and
        blind and joint rounds together must not double-apply anything:
        the run measures what the per-packet run does."""
        clusters = []
        on = run_microbench(config(True), on_cluster=clusters.append)
        off = run_microbench(config(False))
        assert sum(c.joint_rounds for c in _coalescers(clusters[0])) > 0
        assert on.coalesced_rounds > 0
        assert off.coalesced_rounds == 0
        assert _metrics(on) == _metrics(off)

    def test_telemetry_counters_and_fingerprint_unchanged(self):
        """With a telemetry session attached, coalescing on and off give
        the same metrics, fingerprint and counter identity surface (the
        gate the telemetry smoke runs)."""
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


class TestRuntime:
    def test_runtime_never_imports_numpy(self):
        """The simulator is pure stdlib: a coalesced flood runs in a
        fresh interpreter without loading numpy."""
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


class TestBlindMemoValidity:
    """The blind-round memo is stamped with the peer's
    ``unmap_generation``: translations the server installs mid-storm
    leave it valid, a removal drops it."""

    def test_replays_across_peer_maps_and_drops_on_unmap(self,
                                                         monkeypatch):
        builds = {}    # memo -> (coalescer, generation, unmap generation)
        replays = []   # (memo, generation, unmap generation) per replay
        blind_fast = StormCoalescer._blind_fast
        blind_slow = StormCoalescer._blind_slow

        def fast(self, peer, emit, c):
            applied = blind_fast(self, peer, emit, c)
            if applied is True:
                table = peer[1].translation
                replays.append((c, table.generation,
                                table.unmap_generation))
            return applied

        def slow(self, peer, emit, head):
            before = self._blind_cache
            applied = blind_slow(self, peer, emit, head)
            c = self._blind_cache
            if c is not None and c is not before:
                table = peer[1].translation
                builds[c] = (self, table.generation,
                             table.unmap_generation)
            return applied

        def invalidate_mid_storm(cluster):
            # The storm runs from about 30 to 210 ms of this 213 ms run;
            # at 100 ms the kernel reclaims the first server page.
            rnic = cluster.nodes[1].rnic

            def reclaim():
                mr = next(mr for mr in rnic._mrs_by_rkey.values()
                          if mr.mode.is_odp)
                page = mr.pages_of_range(mr.addr, mr.length)[0]
                assert rnic.translation.is_mapped(mr, page)
                rnic.driver.invalidate(rnic, mr, page)

            cluster.sim.schedule(100 * MS, reclaim)

        def run(coalesce):
            return run_microbench(
                _flood_config(coalesce, num_qps=64, num_ops=512,
                              odp=OdpSetup.BOTH),
                on_cluster=invalidate_mid_storm)

        monkeypatch.setattr(StormCoalescer, "_blind_fast", fast)
        monkeypatch.setattr(StormCoalescer, "_blind_slow", slow)
        on = run(True)
        off = run(False)
        assert _metrics(on) == _metrics(off)
        # Server faults resolved after a memo was built do not stop it
        # replaying...
        assert any(gen != builds[c][1] for c, gen, _u in replays)
        # ...but no memo replays across the reclaim: QPs that held one
        # from before it re-derive and build a fresh one.
        assert all(ugen == builds[c][2] for c, _g, ugen in replays)
        stamps = {}
        for owner, _gen, ugen in builds.values():
            stamps.setdefault(owner, set()).add(ugen)
        assert any(len(seen) > 1 for seen in stamps.values())
        assert any(ugen > 0 for _c, _g, ugen in replays)


class TestObserverGating:
    @pytest.mark.parametrize("num_qps, num_ops",
                             [(10, 128), (25, 256), (64, 512)])
    def test_default_sniffer_keeps_coalescing_and_sees_all(self, num_qps,
                                                           num_ops):
        """Watching must not change the code path: a default sniffer
        receives bulk rows for coalesced rounds — the same records a
        per-packet capture takes, one per packet — and the run keeps
        coalescing with unchanged metrics."""
        taps = []
        on = run_microbench(
            _flood_config(True, num_qps=num_qps, num_ops=num_ops),
            on_cluster=lambda c: taps.append(Sniffer(c.network)))
        real = []
        off = run_microbench(
            _flood_config(False, num_qps=num_qps, num_ops=num_ops),
            on_cluster=lambda c: real.append(Sniffer(c.network)))
        assert on.coalesced_rounds > 0
        assert _metrics(on) == _metrics(off)
        rows_on = [r.describe() for r in taps[0].records]
        rows_off = [r.describe() for r in real[0].records]
        assert rows_on == rows_off
        assert len(rows_on) == on.total_packets

    def test_traced_run_takes_the_untraced_path(self):
        """Watching must not change the code path: with a telemetry
        session attached, the coalescer runs the same blind, joint and
        declined rounds for the same reasons, the engine fires the same
        events, and the run measures the same metrics."""
        def run(telemetry):
            clusters = []
            result = run_microbench(_window1_flood(True, telemetry),
                                    on_cluster=clusters.append)
            coalescers = _coalescers(clusters[0])
            reasons = {}
            for c in coalescers:
                for reason, count in c.decline_reasons.items():
                    reasons[reason] = reasons.get(reason, 0) + count
            rounds = tuple(sum(getattr(c, name) for c in coalescers)
                           for name in ("blind_rounds", "joint_rounds",
                                        "declined_rounds"))
            return (rounds, reasons, clusters[0].sim.events_fired,
                    result.events_coalesced, _metrics(result))

        untraced = run(None)
        rounds, reasons = untraced[:2]
        assert all(count > 0 for count in rounds)
        assert reasons
        assert run(Telemetry()) == untraced

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
        cancelled = sim.schedule_timer(100, lambda: None)
        cancelled.cancel()
        assert sim.quiet_until(1000)
        # A timer cancelled once the clock has moved: its dead entry is
        # popped in passing.
        sim.call_soon(lambda: None)
        doomed = sim.schedule_timer(100, lambda: None)
        assert sim.step()
        assert any(entry[3] is doomed for entry in sim._queue)
        doomed.cancel()
        assert sim.quiet_until(1000)
        assert sim._queue == []

    def test_live_events_until_heap_and_wheel(self):
        """Plain entries and timers come back together, in firing
        ``(time, seq)`` order whatever the heap's layout, with timers at
        their real (re-armed) deadline."""
        sim = Simulator()

        def near_fn():
            pass

        sim.schedule(100, near_fn)  # plain heap entry, seq 1
        far = sim.schedule_timer(500_000, lambda: None)
        beyond = sim.schedule_timer(5_000_000, lambda: None)
        found = sim.live_events_until(1_000_000)
        assert [(e.time, e.seq) for e in found] == [(100, 1), (500_000, 2)]
        assert found[0].fn is near_fn and found[1] is far
        assert not any(e is beyond for e in found)
        sim.rearm(far, 100, far.fn)  # earlier, a later seq: after near_fn
        sim.rearm(beyond, 200, beyond.fn)
        assert sim.live_events_until(1_000_000)[1:] == [far, beyond]
        far.cancel()
        found = sim.live_events_until(1_000_000)
        assert [(e.time, e.seq, e.fn) for e in found][:1] == \
            [(100, 1, near_fn)]
        assert found[1:] == [beyond]

    def test_probes_report_exact_earliest(self):
        sim = Simulator()
        sim.schedule_timer(400_000, lambda: None)
        sim.schedule_timer(700_000, lambda: None)
        assert sim.quiet_until(399_999)
        assert sim.live_events_until(399_999) == []
        assert not sim.quiet_until(400_000)
        assert [e.time for e in sim.live_events_until(400_000)] == [400_000]
        assert [e.time for e in sim.live_events_until(1_000_000)] == \
            [400_000, 700_000]

    def test_live_events_until_order_is_firing_order(self):
        """Over a heap shuffled by re-arms and cancels, the probe lists
        exactly the live events due by ``limit``, in the order they
        fire."""
        sim = Simulator()
        rng = random.Random(7)
        fired = []
        timers = [sim.schedule_timer(rng.randrange(1, 10_000), fired.append,
                                     tag) for tag in range(200)]
        for tag in range(200, 600):
            timer = timers[rng.randrange(len(timers))]
            if rng.random() < 0.2:
                timer.cancel()
            else:
                sim.rearm(timer, rng.randrange(1, 10_000), fired.append, tag)
            sim.schedule(rng.randrange(1, 10_000), fired.append, -tag)
        due = [event.args[0] for event in sim.live_events_until(5_000)]
        sim.run(until=5_000)
        assert due == fired

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
