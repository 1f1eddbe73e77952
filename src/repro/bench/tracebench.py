"""Telemetry overhead benchmark: enabled vs disabled, in reference seconds.

The telemetry subsystem promises **≤5%** overhead when a tracer is
attached (components hold ``telemetry = None`` otherwise, and a single
None check is the whole hot-path footprint).  This bench times
fig09-shaped flood points — the deepest event streams the simulator
produces — three ways per repeat:

* ``disabled`` — ``telemetry=None`` (the default everyone else runs);
* ``enabled``  — a fresh :class:`~repro.telemetry.Telemetry` attached;
* ``disabled`` again — the noise floor: how far apart two identical
  disabled runs land.  Both sides run the same code, so this delta
  measures the machine, not the program; it must stay under the
  overhead bound, or the overhead figure cannot be resolved.

Each sample — :data:`RUNS_PER_SAMPLE` back-to-back runs of one mode —
is timed in *reference seconds* on
:class:`perfbench.refclock.RefClock`, the repository benchmark's clock:
thread CPU time scaled by a probe's slowdown, so a shared host's
noisy neighbours cancel out of the ratios.  The two disabled samples
bracket the enabled one and swap places on every other repeat (ABBA,
as in scalebench), so drift within a repeat taxes neither side.

Reported per workload: best-of reference times, the enabled overhead
ratio, the disabled-vs-disabled noise delta (both medians over the
repeats), the traced event count, and whether the enabled run's
reported metrics stayed bit-identical.

Run ``python -m repro.bench.tracebench`` from the repo root; it writes
``BENCH_telemetry.json``.  Use ``--smoke`` in CI for the 24-QP point
only, and ``--check BENCH_telemetry.json`` to fail when the measured
enabled overhead exceeds 5%, the disabled noise delta exceeds 5%, or
bit-identity breaks (the gates are ratios, so they are machine-
independent; the committed file documents a reference machine).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.bench.microbench import run_microbench
from repro.telemetry import Telemetry
from repro.telemetry.smoke import _flood_config, _surface

# The reference clock lives in the repository benchmark, beside src/.
_ROOT = str(Path(__file__).resolve().parents[3])
if _ROOT not in sys.path:
    sys.path.append(_ROOT)
from perfbench.refclock import RefClock  # noqa: E402

#: Flood shapes (scalebench's storm rows at smaller sizes): ``smoke``
#: engages blind rounds, RNR storms, the status-engine backlog and the
#: coalescer; ``full`` is the 50-QP tier the telemetry smoke gates also
#: use.
_WORKLOADS = {
    "smoke": dict(num_qps=24, num_ops=288),
    "full": dict(num_qps=50, num_ops=512),
}
REPEATS = 11
#: Back-to-back runs per timed sample.  One 24-QP run takes ~0.12 s, so
#: it spans only two or three reference-clock probes (one per 50 ms of
#: CPU), and the probes' own scatter dominated its delta; six runs
#: average it down.
RUNS_PER_SAMPLE = 6

#: --check gates.  The noise gate is as wide as the overhead gate: an
#: overhead below the noise floor cannot be told apart from zero.
MAX_ENABLED_OVERHEAD = 0.05
MAX_DISABLED_DELTA = 0.05


def _trace_point(num_qps: int, num_ops: int, repeats: int,
                 seed: int = 0) -> Dict[str, Any]:
    """Time one flood point disabled/enabled/disabled, ``repeats``
    times, in reference seconds per :data:`RUNS_PER_SAMPLE` runs."""
    times: Dict[str, List[float]] = {"disabled": [], "enabled": [],
                                     "disabled_again": []}
    baseline_metrics = enabled_metrics = None
    events = 0
    # Untimed warmup: the very first run pays import and allocator
    # warmup that would otherwise land entirely on the first mode.
    run_microbench(_flood_config(seed, num_qps=num_qps, num_ops=num_ops))
    modes = ("disabled", "enabled", "disabled_again")
    clock = RefClock()
    clock.start()
    try:
        for rep in range(repeats):
            for mode in modes if rep % 2 == 0 else modes[::-1]:
                # Every sample starts from the same collector state.
                gc.collect()
                started = clock.read()[1]
                for _ in range(RUNS_PER_SAMPLE):
                    tel = Telemetry(capacity=1 << 18) \
                        if mode == "enabled" else None
                    result = run_microbench(_flood_config(
                        seed, num_qps=num_qps, num_ops=num_ops,
                        telemetry=tel))
                times[mode].append(clock.read()[1] - started)
                if mode == "disabled":
                    baseline_metrics = _surface(result)
                elif mode == "enabled":
                    enabled_metrics = _surface(result)
                    events = len(tel.tracer)
    finally:
        # Later benches in one process must not pay for the probe.
        clock.stop()
    # Pair each enabled time with the two disabled times bracketing it
    # in the same repeat, so a burst of machine noise inflates both the
    # numerator and the denominator; the median across repeats then
    # shrugs off the one repeat a scheduler hiccup still skewed.
    ratios, deltas = [], []
    for dis, ena, dis2 in zip(times["disabled"], times["enabled"],
                              times["disabled_again"]):
        bracket = (dis + dis2) / 2.0
        ratios.append(ena / bracket)
        deltas.append(abs(dis2 - dis) / bracket)
    return {
        "num_qps": num_qps,
        "num_ops": num_ops,
        "repeats": repeats,
        "runs_per_sample": RUNS_PER_SAMPLE,
        "ref_disabled_s": round(min(times["disabled"]), 4),
        "ref_enabled_s": round(min(times["enabled"]), 4),
        "ref_disabled_again_s": round(min(times["disabled_again"]), 4),
        "enabled_overhead": round(statistics.median(ratios) - 1.0, 4),
        "disabled_delta": round(statistics.median(deltas), 4),
        "events_traced": events,
        "bit_identical": baseline_metrics == enabled_metrics,
    }


def run_bench(smoke: bool) -> Dict[str, Any]:
    """Measure the smoke point, plus the 50-QP tier when not in smoke
    mode."""
    names = ("smoke",) if smoke else tuple(_WORKLOADS)
    return {name: _trace_point(repeats=REPEATS, **_WORKLOADS[name])
            for name in names}


def check_report(report: Dict[str, Any], committed_path: str,
                 max_enabled: float = MAX_ENABLED_OVERHEAD,
                 max_disabled: float = MAX_DISABLED_DELTA) -> List[str]:
    """Regression gate on the freshly measured report.

    The gates are absolute ratios (machine-independent); the committed
    baseline is read to ensure it parses and names the same workloads,
    documenting the reference run next to the code.
    """
    with open(committed_path) as fh:
        committed = json.load(fh)
    failures: List[str] = []
    for name, point in report["workloads"].items():
        if not point["bit_identical"]:
            failures.append(f"workload {name}: enabling telemetry changed "
                            "reported metrics")
        if point["enabled_overhead"] > max_enabled:
            failures.append(
                f"workload {name}: enabled overhead "
                f"{point['enabled_overhead']:.1%} exceeds "
                f"{max_enabled:.0%}")
        if point["disabled_delta"] > max_disabled:
            failures.append(
                f"workload {name}: disabled-vs-disabled delta "
                f"{point['disabled_delta']:.1%} exceeds {max_disabled:.0%} "
                "(the noise floor is too wide to resolve the overhead)")
        if name not in committed.get("workloads", {}):
            failures.append(f"workload {name} missing from committed "
                            f"baseline {committed_path}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tracebench",
        description="Benchmark telemetry enabled-vs-disabled overhead "
                    "and write BENCH_telemetry.json.")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the small flood point (CI sanity)")
    parser.add_argument("--output", default="BENCH_telemetry.json",
                        help="output path (default: ./BENCH_telemetry.json)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="gate: exit 1 when enabled overhead >5%%, "
                             "disabled delta >5%%, or bit-identity breaks")
    args = parser.parse_args(argv)

    report = {
        "bench": "repro.bench.tracebench",
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "clock": "reference seconds (perfbench.refclock)",
        "workloads": run_bench(args.smoke),
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    if args.check is not None:
        failures = check_report(report, args.check)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("check passed: no regression against", args.check)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
