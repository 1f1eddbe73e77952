"""The spark fleet's pooled path: bit-identity across shard counts.

A spark fleet (:mod:`repro.apps.spark.fleet`) runs a Table 13 cell as
``num_groups`` hermetic QP groups, each its own client/server RNIC
pair.  It models a different machine from the classic cell — the
groups split the page-status-engine contention behind the flood — so
its numbers (``ratio``, packets, completions) belong to the fleet and
are never compared with the monolithic cell's.

What this bench gates is placement invariance: every ``shardsN`` row
must be **bit-identical** to the ``shards1`` in-process reference on
the full surface the merge contract names — the merged cell metrics
(times, packets, timeouts), the globalised completion stream, the
fleet-global counter registry and the combined telemetry fingerprint.
The rows' wall clocks are recorded, not compared.

Run ``python -m repro.bench.tab13bench`` from the repo root; it writes
``BENCH_tab13.json``.  ``--smoke`` runs the 1280-QP point only (the CI
``tab13-smoke`` gate: shards 1/2/4, bit-identity + ``--max-wall``
ceiling); ``--check BENCH_tab13.json`` fails when bit-identity breaks
or the row schema drifts from the committed report
(:func:`repro.bench.scalebench.check_report` — same gate, same schema).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Any, Dict, List, Optional

from repro.apps.spark.fleet import SparkFleetConfig
from repro.bench.scalebench import _mode_keys, check_report
from repro.experiments.shard import run_fleet

#: The fleet points.  The 1280-QP point is the CI smoke gate (and the
#: shape perfbench's spark-fleet workload runs); the 10240-QP point is
#: the largest fleet the full bench runs.
_WORKLOADS = {
    "tab13_1k": dict(qps=1280, num_groups=4, shard_counts=(1, 2, 4)),
    "tab13_10k": dict(qps=10240, num_groups=16, shard_counts=(1, 2, 4)),
}

#: Cell whose traffic shape every point runs: the paper's headline
#: (SparkTC on Reedbush-H, ratio 6.45) scaled up in QP count.
_WORKLOAD_NAME = "SparkTC"
_SYSTEM = "Reedbush-H (2)"


def _surface(fleet) -> Dict[str, Any]:
    """The full bit-identity surface of a fleet run: merged cell
    metrics (completions included), counters, fingerprint."""
    return {
        "result": dataclasses.asdict(fleet.result),
        "counters": fleet.counters.identity_surface(),
        "fingerprint": fleet.fingerprint,
    }


def _fleet_point(qps: int, num_groups: int, shard_counts,
                 seed: int = 0) -> Dict[str, Any]:
    """Run one fleet cell at every shard count and check bit-identity."""
    point: Dict[str, Any] = {"workload": _WORKLOAD_NAME, "system": _SYSTEM,
                             "num_qps": qps, "num_groups": num_groups}
    fleet_cfg = SparkFleetConfig(workload=_WORKLOAD_NAME, system=_SYSTEM,
                                 qps=qps, num_groups=num_groups, seed=seed)
    surfaces: Dict[int, Dict[str, Any]] = {}
    reference = None
    for count in shard_counts:
        started = time.perf_counter()
        fleet = run_fleet(fleet_cfg, shards=count,
                          collect=("counters", "fingerprint"))
        wall = time.perf_counter() - started
        surfaces[count] = _surface(fleet)
        if count == shard_counts[0]:
            reference = fleet
        point[f"shards{count}"] = {
            "wall_s": round(wall, 4),
            "bit_identical": surfaces[count] == surfaces[shard_counts[0]],
        }
    point["bit_identical"] = all(point[f"shards{count}"]["bit_identical"]
                                 for count in shard_counts)
    point["disable_s"] = round(reference.result.disable_s, 4)
    point["enable_s"] = round(reference.result.enable_s, 4)
    point["ratio"] = round(reference.result.ratio, 2)
    point["enable_packets"] = reference.result.enable_packets
    point["enable_timeouts"] = reference.result.enable_timeouts
    point["completions"] = len(reference.result.completions)
    point["fingerprint"] = reference.fingerprint
    return point


def run_bench(smoke: bool, seed: int = 0) -> Dict[str, Any]:
    """Measure the fleet points (``--smoke``: the 1280-QP point only)."""
    names = ("tab13_1k",) if smoke else tuple(_WORKLOADS)
    return {name: _fleet_point(seed=seed, **_WORKLOADS[name])
            for name in names}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tab13bench",
        description="Check the spark fleet bit-identical across shard "
                    "counts and write BENCH_tab13.json.")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the 1280-QP point (CI tab13-smoke "
                             "gate: shards 1/2/4)")
    parser.add_argument("--output", default="BENCH_tab13.json",
                        help="output path (default: ./BENCH_tab13.json)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a committed report; exit 1 "
                             "on broken bit-identity or schema drift")
    parser.add_argument("--max-wall", type=float, metavar="SECONDS",
                        default=None,
                        help="fail when any point's fastest sharded wall "
                             "clock exceeds this ceiling")
    args = parser.parse_args(argv)

    report = {
        "bench": "repro.bench.tab13bench",
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
        # Bit-identity is non-negotiable whatever flags ran.
        if not point.get("bit_identical", False):
            failures.append(f"workload {name}: sharded metrics diverge "
                            "from the single-shard reference")
    if args.check is not None:
        seen = set(failures)
        failures.extend(f for f in check_report(report, args.check)
                        if f not in seen and "diverge" not in f)
    if args.max_wall is not None:
        for name, point in report["workloads"].items():
            wall = min(point[key]["wall_s"] for key in _mode_keys(point))
            if wall > args.max_wall:
                failures.append(
                    f"workload {name}: fastest sharded wall clock "
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
