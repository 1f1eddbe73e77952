"""CI smoke gates for the telemetry subsystem.

Five gates, all on fixed seeds, all raising :class:`TelemetrySmokeError`
with a specific message on failure:

1. **bit-identity** — the canonical fig04 damming point runs with
   telemetry off and on; every reported metric must match exactly.
2. **perfetto** — the traced run exports Chrome trace-event JSON that
   survives a JSON round-trip and passes structural validation.
3. **pcap** — a sniffer capture of the same run serialises into a
   nanosecond pcap whose global header and per-record framing parse
   back (``LINKTYPE_INFINIBAND``, one record per captured packet).
4. **diagnosis** — the engine detects the damming episode in the fig04
   point (correct victim QP, stall length in the transport-timeout
   range) and the flood episode in a fig09-shaped CLIENT point, and
   stays silent on a pinned-memory baseline.
5. **coalesce-identity** — trace fingerprints and the counter identity
   surface agree between ``coalesce=True`` and ``coalesce=False`` runs
   of the flood shape.

``python -m repro telemetry`` runs them all (seconds in ``fast`` mode).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Tuple

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.capture.sniffer import Sniffer
from repro.sim.timebase import MS
from repro.telemetry import Telemetry, export

#: fig09-shaped CLIENT flood points: small enough for CI, deep enough
#: that blind rounds, the status-engine backlog, and storm coalescing
#: all engage.
_FLOOD_SHAPE_FAST = dict(num_qps=24, num_ops=288)
_FLOOD_SHAPE_FULL = dict(num_qps=50, num_ops=512)


class TelemetrySmokeError(AssertionError):
    """A telemetry smoke gate failed."""


def _damming_config(seed: int, odp: OdpSetup = OdpSetup.BOTH,
                    telemetry: Telemetry = None,
                    coalesce: bool = True) -> MicrobenchConfig:
    """The canonical fig04 damming point: two READs, 1 ms apart."""
    return MicrobenchConfig(num_ops=2, odp=odp, interval_us=1000.0,
                            min_rnr_timer_ns=round(1.28 * MS), seed=seed,
                            telemetry=telemetry, coalesce=coalesce)


def _flood_config(seed: int, num_qps: int, num_ops: int,
                  telemetry: Telemetry = None,
                  coalesce: bool = True) -> MicrobenchConfig:
    """A fig09-shaped client-ODP flood point (stormbench's shape)."""
    return MicrobenchConfig(size=400, num_ops=num_ops, num_qps=num_qps,
                            odp=OdpSetup.CLIENT, cack=14,
                            min_rnr_timer_ns=round(1.28 * MS),
                            integrity=False, seed=seed, telemetry=telemetry,
                            coalesce=coalesce)


def _surface(result) -> Dict[str, Any]:
    """Every reported metric — the field set that must never move."""
    d = dataclasses.asdict(result)
    d.pop("config")
    d.pop("coalesced_rounds")
    d.pop("events_coalesced")
    # execution-shape bookkeeping like the coalescer effort counters:
    # which fast paths a strategy declined, not what the run did.
    d.pop("mitigation_fallbacks", None)
    return d


def _fail(message: str) -> None:
    raise TelemetrySmokeError(message)


def _validate_chrome_doc(doc: dict) -> int:
    """Structural validation of a Chrome trace-event document."""
    rehydrated = json.loads(json.dumps(doc))
    events = rehydrated.get("traceEvents")
    if not isinstance(events, list) or not events:
        _fail("perfetto export has no traceEvents")
    for event in events:
        for field in ("name", "ph", "pid"):
            if field not in event:
                _fail(f"perfetto event missing '{field}': {event!r}")
        if event["ph"] not in ("X", "i", "M"):
            _fail(f"unexpected perfetto phase {event['ph']!r}")
        if event["ph"] == "X" and "dur" not in event:
            _fail("complete event without dur")
        if event["ph"] != "M" and "ts" not in event:
            _fail("timed event without ts")
    return len(events)


def _validate_pcap(records) -> int:
    """Round-trip a capture through the pcap writer and parser."""
    if not records:
        _fail("pcap gate captured zero packets")
    data = export.pcap_bytes(records)
    header = export.read_pcap_header(data)
    if header["network"] != export.LINKTYPE_INFINIBAND:
        _fail(f"pcap linktype {header['network']} != LINKTYPE_INFINIBAND")
    if header["version"] != (2, 4):
        _fail(f"pcap version {header['version']} != (2, 4)")
    parsed = list(export.iter_pcap_records(data))
    if len(parsed) != len(records):
        _fail(f"pcap framing lost records: {len(parsed)} != {len(records)}")
    for rec, original in zip(parsed, records):
        if rec["ts_ns"] != original.time_ns:
            _fail("pcap timestamp mismatch")
        if len(rec["frame"]) < export.LRH_BYTES + export.BTH_BYTES:
            _fail("pcap frame shorter than LRH+BTH")
    return len(parsed)


def run_telemetry_smoke(seed: int = 0, fast: bool = True) -> str:
    """Run every telemetry smoke gate; returns a summary on success."""
    lines: List[str] = []
    shape = _FLOOD_SHAPE_FAST if fast else _FLOOD_SHAPE_FULL

    # Gate 1: bit-identical metrics with telemetry off vs on.
    baseline = run_microbench(_damming_config(seed))
    tel = Telemetry()
    traced = run_microbench(_damming_config(seed, telemetry=tel))
    if _surface(baseline) != _surface(traced):
        _fail("telemetry=on changed reported fig04 metrics")
    if len(tel.tracer) == 0:
        _fail("traced fig04 run recorded zero events")
    lines.append(f"bit-identity: ok ({len(tel.tracer)} events traced, "
                 f"metrics unchanged)")

    # Gate 2: Perfetto JSON export of the traced run.
    events = _validate_chrome_doc(
        export.chrome_trace(tel.tracer, tel.counters().as_dict()))
    lines.append(f"perfetto: ok ({events} trace events validated)")

    # Gate 3: pcap export of a sniffer capture of the same point.
    sniffers: List[Sniffer] = []
    run_microbench(
        _damming_config(seed),
        on_cluster=lambda cluster: sniffers.append(
            Sniffer(cluster.network)))
    frames = _validate_pcap(sniffers[0].records)
    lines.append(f"pcap: ok ({frames} frames round-tripped)")

    # Gate 4a: damming detection on the fig04 point.
    diag = tel.diagnose()
    if len(diag.damming) != 1:
        _fail(f"expected exactly one damming episode in fig04 point, "
              f"got {len(diag.damming)}")
    episode = diag.damming[0]
    counters = tel.counters()
    victims = [scope for scope in counters.scopes()
               if ".qp" in scope
               and counters.get(scope, "local_ack_timeout_err") > 0]
    expected = sorted(int(scope.rsplit(".qp", 1)[1]) for scope in victims)
    if [episode.victim_qpn] != expected:
        _fail(f"damming victim qp{episode.victim_qpn} != QPs with "
              f"local_ack_timeout_err {expected}")
    if not 20 * MS <= episode.duration_ns <= 10_000 * MS:
        _fail(f"damming stall {episode.duration_ns} ns outside the "
              f"transport-timeout range")
    lines.append(f"diagnosis/damming: ok ({episode.describe()})")

    # Gate 4b: flood detection on the fig09 CLIENT shape.
    flood_tel = Telemetry(capacity=1 << 18)
    run_microbench(_flood_config(seed, telemetry=flood_tel, **shape))
    flood_diag = flood_tel.diagnose()
    if len(flood_diag.flood) != 1:
        _fail(f"expected one flood episode in fig09 CLIENT shape, got "
              f"{len(flood_diag.flood)}")
    flood = flood_diag.flood[0]
    if len(flood.victims) < 2:
        _fail(f"flood episode names only {len(flood.victims)} victim QPs")
    lines.append(f"diagnosis/flood: ok ({flood.describe()})")

    # Gate 4c: zero detections on the pinned-memory baseline.
    pinned_tel = Telemetry()
    run_microbench(_damming_config(seed, odp=OdpSetup.NONE,
                                   telemetry=pinned_tel))
    if not pinned_tel.diagnose().clean:
        _fail("diagnosis reported a pathology on the pinned-memory "
              "baseline")
    lines.append("diagnosis/pinned-baseline: ok (clean)")

    # Gate 5: coalesce on/off — identical fingerprints and counters.
    streams: List[Tuple[str, Dict[str, int]]] = []
    for coalesce in (True, False):
        t = Telemetry(capacity=1 << 18)
        run_microbench(_flood_config(seed, telemetry=t, coalesce=coalesce,
                                     **shape))
        streams.append((t.fingerprint(), t.counters().identity_surface()))
    if streams[0][0] != streams[1][0]:
        _fail("trace fingerprints differ between coalesce on and off")
    if streams[0][1] != streams[1][1]:
        diff = {key for key in set(streams[0][1]) | set(streams[1][1])
                if streams[0][1].get(key) != streams[1][1].get(key)}
        _fail(f"counter identity surface differs between coalesce on and "
              f"off: {sorted(diff)[:8]}")
    lines.append(f"coalesce-identity: ok (fingerprint "
                 f"{streams[0][0][:16]}..., "
                 f"{len(streams[0][1])} counters match)")

    return "\n".join(lines)
