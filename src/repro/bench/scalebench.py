"""Scale benchmark: the storm coalescer from 50 to 16k QPs.

The fig09 flood grid tops out at a few hundred QPs; real ODP incidents
(Section VII's deployment anecdotes) involve fabrics with thousands of
stale QPs storming at once.  At that scale the per-packet engine spends
its time replaying identical retransmission rounds one heap event per
hop.  The storm coalescer (:mod:`repro.ib.transport.coalesce`) applies
those rounds in closed form — single-QP and joint rounds, and fleet
sweeps of whole tick horizons through the fabric's bulk-delivery
surfaces (``Link.bulk_occupy``, ``Switch.bulk_forward``,
``Network.bulk_book``) — under an *exact or decline* contract: every
reported metric stays bit-identical to the per-packet path, enforced
here on every workload.

Each classic workload is a client-ODP flood measured in two modes::

    object    coalescing off: the per-packet reference path
    coalesce  every storm fast path on

and ``speedup`` is ``wall(object) / wall(coalesce)``.  The ``qps*``
rows are window-1 floods (``max_rd_atomic=1``, the shape Section VI-B's
retransmission analysis reasons about); the ``storm*`` rows are the
fig09 window-16 storm (C_ACK 14), where blind and joint rounds carry
most of the run.  Both modes of a row simulate the same cell, so
``speedup`` compares two runs whose outputs are equal (checked).

Run ``python -m repro.bench.scalebench`` from the repo root; it writes
``BENCH_scale.json`` (see the README's Performance section).  Use
``--smoke`` in CI for the 1k-QP row and the 50-QP storm row,
``--check BENCH_scale.json`` to fail when a freshly measured speedup
regresses more than 30% below the committed report (speedup ratios are
machine-independent; raw wall-clock seconds are not) or when any
workload breaks bit-identity, and ``--max-wall SECONDS`` to enforce an
absolute wall-clock ceiling on each workload's fastest measured
accelerated mode (the CI smoke gate).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Any, Dict, List, Optional

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.sim.timebase import MS

#: Mode name -> coalesce.
_MODES = (
    ("object", False),
    ("coalesce", True),
)

#: Config fields every row shares: a client-ODP flood of sub-page
#: (400 B) READs, on lazy payloads (bit-identical metrics, no
#: per-packet byte copies) so the measured delta is engine overhead,
#: not memcpy.
_FLOOD = dict(size=400, odp=OdpSetup.CLIENT, integrity=False, seed=50)
#: The window-1 flood of the ``qps*`` rows.
_WINDOW1 = dict(_FLOOD, interval_us=0.0, max_rd_atomic=1)
#: The fig09 window-16 storm of the ``storm*`` rows.
_STORM = dict(_FLOOD, cack=14, min_rnr_timer_ns=round(1.28 * MS))

#: The classic rows: MicrobenchConfig fields plus best-of ``repeats``.
#: The ``qps*`` rows run 4 ops per QP, which keeps every QP stale for
#: the whole run (the steady-state storm regime) while total work
#: scales linearly with fabric size; the 16k row costs minutes per
#: object-mode rep, so it gets one.  ``storm50`` is the storm at CI
#: scale, deep enough that blind and joint rounds both engage;
#: ``storm256`` is the deepest storm the fig09 grid reaches.  Smoke
#: mode runs ``_SMOKE`` under their full-mode names and repeats, so a
#: smoke ``--check`` compares best-of-N against best-of-N.
_WORKLOADS = {
    "qps1k": dict(_WINDOW1, num_qps=1024, num_ops=4096, repeats=5),
    "qps4k": dict(_WINDOW1, num_qps=4096, num_ops=16384, repeats=3),
    "qps16k": dict(_WINDOW1, num_qps=16384, num_ops=65536, repeats=1),
    "storm50": dict(_STORM, num_qps=50, num_ops=512, repeats=5),
    "storm256": dict(_STORM, num_qps=256, num_ops=4096, repeats=2),
}
_SMOKE = ("qps1k", "storm50")

def _metrics(result) -> Dict[str, Any]:
    """Every reported metric — the bit-identity surface.

    ``coalesced_rounds`` and ``events_coalesced`` describe how the run
    was executed, not what it measured, and legitimately differ.
    """
    d = dataclasses.asdict(result)
    d.pop("config")
    d.pop("coalesced_rounds")
    d.pop("events_coalesced")
    return d


def _scale_point(repeats: int, modes=_MODES,
                 **fields: Any) -> Dict[str, Any]:
    """Wall-clock one flood point in every mode.

    Best-of-``repeats`` walls per mode, runs interleaved across modes so
    slow machine phases (thermal, scheduler) hit all modes alike, with
    the mode order reversed on odd repeats (ABBA): a fixed order always
    taxes whichever mode runs last with the drift the repeat
    accumulated.  The bit-identity comparison uses
    the full metric surface of each mode's last run against the
    ``object`` reference.  ``fields`` are the point's
    :class:`MicrobenchConfig` fields.
    """
    point: Dict[str, Any] = {"num_qps": fields["num_qps"],
                             "num_ops": fields["num_ops"]}
    walls: Dict[str, List[float]] = {name: [] for name, _c in modes}
    surfaces: Dict[str, Dict[str, Any]] = {}
    for rep in range(repeats):
        order = modes if rep % 2 == 0 else tuple(reversed(modes))
        for name, coalesce in order:
            cfg = MicrobenchConfig(coalesce=coalesce, **fields)
            started = time.perf_counter()
            result = run_microbench(cfg)
            walls[name].append(time.perf_counter() - started)
            surfaces[name] = _metrics(result)
    reference = surfaces[modes[0][0]]
    for name, _coalesce in modes:
        point[name] = {
            "wall_s": round(min(walls[name]), 4),
            "bit_identical": surfaces[name] == reference,
        }
    point["total_packets"] = reference["total_packets"]
    point["execution_time_ns"] = reference["execution_time_ns"]
    point["bit_identical"] = all(point[name]["bit_identical"]
                                 for name, _c in modes)
    if "coalesce" in point and "object" in point:
        point["speedup"] = round(point["object"]["wall_s"]
                                 / point["coalesce"]["wall_s"], 2)
    return point


def run_bench(smoke: bool) -> Dict[str, Any]:
    """Measure the workload grid (``--smoke``: the ``_SMOKE`` points)."""
    names = _SMOKE if smoke else tuple(_WORKLOADS)
    return {name: _scale_point(**_WORKLOADS[name]) for name in names}


def _mode_keys(point: Dict[str, Any]) -> set:
    """The per-mode sub-dicts of a workload point (``wall_s`` rows)."""
    return {key for key, value in point.items()
            if isinstance(value, dict) and "wall_s" in value}


def check_report(report: Dict[str, Any], committed_path: str,
                 tolerance: float = 0.7) -> List[str]:
    """Regression gate: compare ``report`` to the committed baseline.

    Bit-identity must hold in the measured report, and speedup
    ratios (machine-independent) are compared per shared workload and
    fail below ``tolerance`` x the committed value.  Every finding is
    collected and reported per workload and per key — mismatched
    workload sets, mismatched per-mode wall/identity keys, one-sided
    speedup keys — instead of crashing (or silently passing) on the
    first missing field.  A smoke run checked against the full
    committed report only vets the shapes it measured.
    """
    with open(committed_path) as fh:
        committed = json.load(fh)
    failures: List[str] = []
    measured = report.get("workloads") or {}
    baseline_workloads = committed.get("workloads") or {}
    if not set(measured) & set(baseline_workloads):
        missing = sorted(set(baseline_workloads) - set(measured))
        extra = sorted(set(measured) - set(baseline_workloads))
        failures.append(
            f"no workload shared with {committed_path}: baseline "
            f"workloads missing from this run: {missing or '[]'}; "
            f"measured workloads unknown to the baseline: "
            f"{extra or '[]'} (wrong or outdated baseline file?)")
        return failures
    for name, point in sorted(measured.items()):
        if not point.get("bit_identical", False):
            reference = ("the single-shard reference"
                         if "num_groups" in point
                         else "the object reference")
            failures.append(f"workload {name}: accelerated-mode metrics "
                            f"diverge from {reference}")
        baseline = baseline_workloads.get(name)
        if baseline is None:
            continue
        missing_modes = sorted(_mode_keys(baseline) - _mode_keys(point))
        extra_modes = sorted(_mode_keys(point) - _mode_keys(baseline))
        if missing_modes or extra_modes:
            failures.append(
                f"workload {name}: mode keys differ from the baseline "
                f"(missing from this run: {missing_modes or '[]'}; "
                f"unknown to the baseline: {extra_modes or '[]'})")
        if ("speedup" in point) != ("speedup" in baseline):
            side = "this run" if "speedup" in baseline else "the baseline"
            failures.append(f"workload {name}: speedup is missing from "
                            f"{side} (schema drift?)")
        elif "speedup" in baseline:
            floor = baseline["speedup"] * tolerance
            if point["speedup"] < floor:
                failures.append(
                    f"workload {name}: speedup {point['speedup']}x is "
                    f"below {floor:.2f}x ({tolerance:.0%} of committed "
                    f"{baseline['speedup']}x)")
    extra = sorted(set(measured) - set(baseline_workloads))
    if extra:
        print(f"note: workloads not in baseline (unchecked): "
              f"{', '.join(extra)}", file=sys.stderr)
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scalebench",
        description="Benchmark the storm coalescer against the "
                    "per-packet engine from 50 to 16k QPs and write "
                    "BENCH_scale.json.")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the 1k-QP point and the 50-QP "
                             "storm (CI scale smoke)")
    parser.add_argument("--output", default="BENCH_scale.json",
                        help="output path (default: ./BENCH_scale.json)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a committed report; exit 1 "
                             "on >30%% speedup regression or broken "
                             "bit-identity")
    parser.add_argument("--max-wall", type=float, metavar="SECONDS",
                        default=None,
                        help="fail when any workload's fastest "
                             "accelerated-mode wall clock exceeds this "
                             "ceiling")
    args = parser.parse_args(argv)

    report = {
        "bench": "repro.bench.scalebench",
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "workloads": run_bench(args.smoke),
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    failures: List[str] = []
    for name, point in report["workloads"].items():
        # Bit-identity is non-negotiable whatever flags ran: a
        # coalesced mode that diverges from its reference must fail
        # even without --check.
        if not point.get("bit_identical", False):
            failures.append(f"workload {name}: accelerated-mode metrics "
                            "diverge from their reference")
    if args.check is not None:
        seen = set(failures)
        failures.extend(f for f in check_report(report, args.check)
                        if f not in seen and "diverge" not in f)
    if args.max_wall is not None:
        for name, point in report["workloads"].items():
            accelerated = _mode_keys(point) - {"object"}
            if not accelerated:
                continue
            wall = min(point[key]["wall_s"] for key in accelerated)
            if wall > args.max_wall:
                failures.append(
                    f"workload {name}: fastest accelerated wall clock "
                    f"{wall:.2f}s exceeds the {args.max_wall:.2f}s "
                    "ceiling")
    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    if args.check is not None:
        print("check passed: no regression against", args.check)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
