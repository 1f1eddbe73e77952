"""Tests for the telemetry subsystem: tracer, counters, export,
diagnosis, and the guarantees the ISSUE pins — bit-identical outputs
with telemetry off/on and coalesce-invariant event streams."""

import json
import struct

import pytest

from repro.bench.microbench import OdpSetup, run_microbench
from repro.capture.analyze import detect_damming
from repro.capture.sniffer import Sniffer
from repro.experiments.runner import sweep
from repro.sim.timebase import MS, US
from repro.telemetry import (EXEC_PREFIX, CounterRegistry, EventTracer,
                             Telemetry, export, telemetry_session)
from repro.telemetry.smoke import (_damming_config, _flood_config,
                                   _surface, run_telemetry_smoke)

#: The small fig09-shaped CLIENT flood point used throughout (the same
#: shape the smoke gates use; deep enough for storms + status backlog).
FLOOD_SHAPE = dict(num_qps=24, num_ops=288)


class TestEventTracer:
    def test_instants_and_spans(self):
        tracer = EventTracer()
        tracer.instant(100, "tick", 1, 7, a=42)
        tracer.complete(50, 200, "work", 2, 9, a=1, b=2)
        events = tracer.events
        assert len(tracer) == 2
        assert not events[0].is_span and events[0].end_ns == 100
        assert events[1].is_span and events[1].end_ns == 250
        assert tracer.count("tick") == 1
        assert tracer.count("work") == 1
        assert "tick" in events[0].describe()

    def test_mark_first_wins_and_unknown_noop(self):
        tracer = EventTracer()
        tracer.mark("k", 10)
        tracer.mark("k", 99)  # idempotent: first mark wins
        tracer.complete_mark("k", 110, "span", 1, 2)
        tracer.complete_mark("missing", 500, "span", 1, 2)  # no-op
        assert len(tracer) == 1
        event = tracer.events[0]
        assert (event.time_ns, event.dur_ns) == (10, 100)

    def test_ring_wrap_counts_dropped_and_keeps_newest(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.instant(i, "e", 0, 0, a=i)
        assert tracer.dropped == 6
        assert len(tracer) == 4
        assert [row[0] for row in tracer.rows()] == [6, 7, 8, 9]

    def test_fingerprint_deterministic_and_sensitive(self):
        def build(extra):
            t = EventTracer()
            t.instant(1, "a", 0, 0)
            t.complete(2, 3, "b", 1, 1)
            if extra:
                t.instant(9, "c", 0, 0)
            return t.fingerprint()

        assert build(False) == build(False)
        assert build(False) != build(True)

    def test_clear_resets_everything(self):
        tracer = EventTracer(capacity=2)
        for i in range(5):
            tracer.instant(i, "e", 0, 0)
        tracer.mark("open", 1)
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0
        tracer.complete_mark("open", 10, "s", 0, 0)  # mark was cleared
        assert len(tracer) == 0


class TestCounterRegistry:
    def test_add_accumulates_and_total_sums(self):
        reg = CounterRegistry()
        reg.add("rnic1.qp7", "rnr_nak_recv", 2)
        reg.add("rnic1.qp7", "rnr_nak_recv", 3)
        reg.add("rnic2.qp9", "rnr_nak_recv", 1)
        assert reg.get("rnic1.qp7", "rnr_nak_recv") == 5
        assert reg.total("rnr_nak_recv") == 6
        assert set(reg.scopes()) == {"rnic1.qp7", "rnic2.qp9"}

    def test_identity_surface_excludes_exec_counters(self):
        reg = CounterRegistry()
        reg.add("rnic1", "odp.page_faults", 4)
        reg.add("rnic1", EXEC_PREFIX + "coalesce.blind_rounds", 9)
        surface = reg.identity_surface()
        assert surface == {"rnic1.odp.page_faults": 4}
        assert all(EXEC_PREFIX not in key for key in surface)
        # ... but the full dict still carries them for humans.
        assert reg.as_dict()[
            "rnic1." + EXEC_PREFIX + "coalesce.blind_rounds"] == 9

    def test_render_skips_zeros_by_default(self):
        reg = CounterRegistry()
        reg.add("fabric", "drops", 0)
        reg.add("fabric", "switch_forwarded", 12)
        rendered = reg.render()
        assert "switch_forwarded" in rendered
        assert "drops" not in rendered


class TestExport:
    def _traced_damming(self):
        tel = Telemetry()
        sniffers = []
        run_microbench(
            _damming_config(0, telemetry=tel),
            on_cluster=lambda c: sniffers.append(
                Sniffer(c.network)))
        return tel, sniffers[0]

    def test_chrome_trace_structure(self):
        tel, _ = self._traced_damming()
        doc = export.chrome_trace(tel.tracer, tel.counters().as_dict())
        doc = json.loads(json.dumps(doc))  # must be JSON-serialisable
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "i"} <= phases  # spans and instants both present
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] != "M":
                assert event["ts"] >= 0  # microseconds
        assert doc["displayTimeUnit"] == "ns"
        assert "counters" in doc

    def test_pcap_round_trip(self):
        _, sniffer = self._traced_damming()
        records = sniffer.records
        data = export.pcap_bytes(records)
        header = export.read_pcap_header(data)
        assert header["network"] == export.LINKTYPE_INFINIBAND == 247
        assert header["version"] == (2, 4)
        magic, = struct.unpack_from("<I", data)
        assert magic == export.PCAP_MAGIC_NS
        parsed = list(export.iter_pcap_records(data))
        assert len(parsed) == len(records) > 0
        for rec, original in zip(parsed, records):
            assert rec["ts_ns"] == original.time_ns
            frame = rec["frame"]
            assert len(frame) % 4 == 0  # IB frames are 4-byte aligned
            assert len(frame) >= (export.LRH_BYTES + export.BTH_BYTES
                                  + export.ICRC_BYTES)

    def test_pcap_frame_carries_lids_and_psn(self):
        _, sniffer = self._traced_damming()
        record = sniffer.records[0]
        frame = export.packet_bytes(record)
        _vl, _lver, dst_lid, _len, src_lid = struct.unpack_from(
            ">BBHHH", frame)
        assert (src_lid, dst_lid) == (record.src_lid, record.dst_lid)
        psn = int.from_bytes(frame[export.LRH_BYTES + 9:
                                   export.LRH_BYTES + 12], "big")
        assert psn == record.psn


class TestIdentityAndOverheadContract:
    def test_fig04_metrics_bit_identical_with_telemetry(self):
        baseline = run_microbench(_damming_config(3))
        tel = Telemetry()
        traced = run_microbench(_damming_config(3, telemetry=tel))
        assert _surface(baseline) == _surface(traced)
        assert len(tel.tracer) > 0

    def test_coalesce_on_off_trace_and_counters_agree(self):
        streams = []
        for coalesce in (True, False):
            tel = Telemetry(capacity=1 << 18)
            run_microbench(_flood_config(0, telemetry=tel,
                                         coalesce=coalesce, **FLOOD_SHAPE))
            streams.append((tel.fingerprint(),
                            tel.counters().identity_surface()))
        assert streams[0][0] == streams[1][0]
        assert streams[0][1] == streams[1][1]

    def test_telemetry_session_attaches_and_restores_hook(self):
        from repro.host.cluster import Cluster
        previous = Cluster.instrument
        with telemetry_session() as tel:
            run_microbench(_damming_config(0))
            assert len(tel.clusters) == 1
            assert len(tel.tracer) > 0
        assert Cluster.instrument is previous


class TestDiagnosis:
    def test_damming_episode_matches_counters_and_capture(self):
        tel = Telemetry()
        sniffers = []
        run_microbench(
            _damming_config(0, telemetry=tel),
            on_cluster=lambda c: sniffers.append(
                Sniffer(c.network)))
        diag = tel.diagnose()
        assert len(diag.damming) == 1 and not diag.flood
        episode = diag.damming[0]
        # Victim must be exactly the QP whose hardware-style counters
        # recorded a transport timeout.
        counters = tel.counters()
        victims = sorted(
            int(scope.rsplit(".qp", 1)[1]) for scope in counters.scopes()
            if ".qp" in scope
            and counters.get(scope, "local_ack_timeout_err") > 0)
        assert [episode.victim_qpn] == victims
        # Stall length must agree with the on-wire gap the capture-side
        # detector sees, to within one timer arming.
        wire = detect_damming(sniffers[0].records)
        assert wire.detected
        assert abs(episode.duration_ns - wire.stall_ns) <= 100 * US
        assert episode.flaw_drops > 0

    def test_flood_episode_detected_with_lagging_status(self):
        tel = Telemetry(capacity=1 << 18)
        run_microbench(_flood_config(0, telemetry=tel, **FLOOD_SHAPE))
        diag = tel.diagnose()
        assert len(diag.flood) == 1
        flood = diag.flood[0]
        assert len(flood.victims) >= 2
        assert flood.rounds >= 3 * len(flood.victims) // 2
        assert flood.max_status_lag_ns >= 2 * flood.mean_period_ns
        assert not diag.clean and "flood" in diag.render()

    def test_pinned_baseline_is_clean(self):
        tel = Telemetry()
        run_microbench(_damming_config(0, odp=OdpSetup.NONE,
                                       telemetry=tel))
        diag = tel.diagnose()
        assert diag.clean
        assert "no damming or flood episodes" in diag.render()


class TestSweepProgress:
    def test_progress_callback_preserves_results(self):
        def square(point):
            return point * point

        points = list(range(7))
        calls = []
        plain = sweep(square, points, processes=1)
        with_progress = sweep(square, points, processes=1,
                              progress=lambda done, total:
                              calls.append((done, total)))
        assert plain == with_progress == [p * p for p in points]
        assert calls == [(i + 1, 7) for i in range(7)]

    def test_progress_feeds_telemetry_instants(self):
        tel = Telemetry()
        sweep(lambda p: p, [1, 2, 3], processes=1, progress=tel.progress)
        assert tel.progress_events == [(1, 3), (2, 3), (3, 3)]


def test_smoke_gates_pass_end_to_end():
    summary = run_telemetry_smoke(seed=0, fast=True)
    assert "coalesce-identity: ok" in summary
    assert "diagnosis/damming: ok" in summary
