"""Tests for capture summaries (``summarize_capture``), including the
bounded-ring wrap surfacing and pitfall detection on fig04/fig09-shaped
runs with the storm coalescer's synthetic records in the stream."""

from repro.bench.microbench import OdpSetup, run_microbench
from repro.capture.analyze import summarize_capture
from repro.capture.sniffer import Sniffer
from repro.ib.opcodes import Opcode
from repro.telemetry.smoke import _damming_config, _flood_config


def _captured(config, capacity=None):
    sniffers = []
    run_microbench(
        config,
        on_cluster=lambda c: sniffers.append(
            Sniffer(c.network, capacity=capacity)))
    return sniffers[0]


class TestSummarizeCapture:
    def test_fig04_summary_detects_damming(self):
        sniffer = _captured(_damming_config(0))
        summary = summarize_capture(sniffer)
        assert summary.total_packets == len(sniffer.records)
        assert summary.dropped == 0 and not summary.truncated
        assert summary.by_opcode[Opcode.RDMA_READ_REQUEST.value] >= 2
        assert summary.rnr_naks >= 1
        assert summary.damming.detected
        assert not summary.flood.detected
        rendered = summary.render()
        assert "damming:" in rendered
        assert "WARNING" not in rendered

    def test_fig09_summary_detects_flood_with_synthetic_rows(self):
        # coalesce=True: most retransmit rounds in this capture are the
        # coalescer's synthetic records, and the flood signature must
        # survive them.
        sniffer = _captured(_flood_config(0, num_qps=24, num_ops=288,
                                          coalesce=True))
        summary = summarize_capture(sniffer)
        assert summary.flood.detected
        assert summary.flood.qps_involved >= 2
        assert summary.retransmissions > 100
        assert "flood:" in summary.render()

    def test_summary_identical_coalesce_on_and_off(self):
        def digest(coalesce):
            sniffer = _captured(_flood_config(0, num_qps=8, num_ops=96,
                                              coalesce=coalesce))
            s = summarize_capture(sniffer)
            return (s.total_packets, s.by_opcode, s.retransmissions,
                    s.rnr_naks, s.seq_naks, s.damming.stall_ns,
                    s.flood.max_psn_repeats)

        assert digest(True) == digest(False)

    def test_ring_wrap_is_surfaced_not_silent(self):
        unbounded = _captured(_damming_config(0))
        total = len(unbounded.records)
        assert total > 4
        wrapped = _captured(_damming_config(0), capacity=4)
        summary = summarize_capture(wrapped)
        assert summary.total_packets == 4
        assert summary.dropped == total - 4
        assert summary.truncated
        assert "WARNING: ring wrapped" in summary.render()

    def test_accepts_plain_record_sequence(self):
        sniffer = _captured(_damming_config(0))
        summary = summarize_capture(list(sniffer.records))
        assert summary.dropped == 0
        assert summary.total_packets == len(sniffer.records)
        assert summary.span_ns == (sniffer.records[-1].time_ns
                                   - sniffer.records[0].time_ns)

    def test_empty_capture(self):
        summary = summarize_capture([])
        assert summary.total_packets == 0
        assert summary.span_ns == 0
        assert not summary.damming.detected
        assert not summary.flood.detected

    def test_pinned_baseline_reports_no_pitfalls(self):
        sniffer = _captured(_damming_config(0, odp=OdpSetup.NONE))
        summary = summarize_capture(sniffer)
        assert not summary.damming.detected
        assert not summary.flood.detected
        assert summary.retransmissions == 0
