"""Table 13 at fleet scale: the 10k-QP headline row and its gates.

The classic tab13 path simulates each cell as one monolithic
:class:`~repro.apps.spark.engine.SparkCluster` — fine at the paper's
QP counts, a wall at fleet scale: the event heap, the ODP status
engine and the per-QP bookkeeping all grow super-linearly with the
cluster's QP count.  The fleet path
(:mod:`repro.apps.spark.fleet` through
:func:`repro.experiments.shard.run_fleet`) re-expresses a cell as
``num_groups`` hermetic QP groups, which buys wall-clock twice over:

* **decomposition** — G small simulators beat one giant one even on a
  single core (``decomposition_speedup`` compares the best fleet wall
  against the same cell run monolithically with storm coalescing on,
  the *unsharded coalesced path*, recorded under the
  ``array_coalesce`` key the committed baseline was written with);
* **parallelism** — groups pack into shard worker processes, which
  helps exactly as much as the machine has cores to give.

Every ``shardsN`` row must be **bit-identical** to the ``shards1``
in-process reference on the full surface the merge contract names:
the merged cell metrics (times, packets, timeouts), the globalised
completion stream, the fleet-global counter registry and the combined
telemetry fingerprint.

Run ``python -m repro.bench.tab13bench`` from the repo root; it writes
``BENCH_tab13.json`` (see the README's headline table).  ``--smoke``
runs the 1280-QP point only (the CI ``tab13-smoke`` gate: shards
1/2/4, bit-identity + ``--max-wall`` ceiling); ``--shards N`` replaces
each point's measured counts with ``(1, N)``; ``--check
BENCH_tab13.json`` fails when the decomposition speedup regresses more
than 30% below the committed report or bit-identity breaks
(:func:`repro.bench.scalebench.check_report` — same gate, same
schema).
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

#: The fleet points.  Groups of 640 QPs sit in the decomposition sweet
#: spot (big enough to amortise cluster setup, small enough that the
#: super-linear per-QP costs stay flat).  The 1280-QP point doubles as
#: the CI smoke gate; the 10240-QP point is the repo's headline scale
#: row — 3.6x the paper's largest cell.
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
    """Wall-clock one cell monolithically and at every shard count.

    The monolithic baseline runs the *same* fleet path at
    ``num_groups=1`` — one group owning every QP and the whole fitted
    cold-page budget, storm coalescing on — so
    ``decomposition_speedup`` isolates exactly what splitting buys.
    (A one-group fleet is the classic single-cluster run; the fleet
    numbers themselves are defined over per-group streams and form
    their own family.)
    """
    point: Dict[str, Any] = {"workload": _WORKLOAD_NAME, "system": _SYSTEM,
                             "num_qps": qps, "num_groups": num_groups}
    mono_cfg = SparkFleetConfig(workload=_WORKLOAD_NAME, system=_SYSTEM,
                                qps=qps, num_groups=1, seed=seed)
    started = time.perf_counter()
    mono = run_fleet(mono_cfg)
    point["array_coalesce"] = {
        "wall_s": round(time.perf_counter() - started, 4),
    }
    point["mono_disable_s"] = round(mono.result.disable_s, 4)
    point["mono_enable_s"] = round(mono.result.enable_s, 4)

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
    best = min(point[f"shards{count}"]["wall_s"] for count in shard_counts)
    point["decomposition_speedup"] = round(
        point["array_coalesce"]["wall_s"] / best, 2)
    point["disable_s"] = round(reference.result.disable_s, 4)
    point["enable_s"] = round(reference.result.enable_s, 4)
    point["ratio"] = round(reference.result.ratio, 2)
    point["enable_packets"] = reference.result.enable_packets
    point["enable_timeouts"] = reference.result.enable_timeouts
    point["completions"] = len(reference.result.completions)
    point["fingerprint"] = reference.fingerprint
    return point


def run_bench(smoke: bool, shards: Optional[int] = None,
              seed: int = 0) -> Dict[str, Any]:
    """Measure the fleet points (``--smoke``: the 1280-QP point only)."""
    names = ("tab13_1k",) if smoke else tuple(_WORKLOADS)
    workloads: Dict[str, Any] = {}
    for name in names:
        spec = dict(_WORKLOADS[name])
        if shards is not None:
            spec["shard_counts"] = (1, shards) if shards != 1 else (1,)
        workloads[name] = _fleet_point(seed=seed, **spec)
    return workloads


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tab13bench",
        description="Benchmark the tab13 Spark cell at fleet QP counts "
                    "through the shard layer and write BENCH_tab13.json.")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the 1280-QP point (CI tab13-smoke "
                             "gate: shards 1/2/4)")
    parser.add_argument("--shards", type=int, metavar="N", default=None,
                        help="measure fleet points at N worker processes "
                             "(plus the 1-shard in-process reference for "
                             "bit-identity); default: each point's "
                             "built-in shard counts")
    parser.add_argument("--output", default="BENCH_tab13.json",
                        help="output path (default: ./BENCH_tab13.json)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a committed report; exit 1 "
                             "on >30%% decomposition-speedup regression "
                             "or broken bit-identity")
    parser.add_argument("--max-wall", type=float, metavar="SECONDS",
                        default=None,
                        help="fail when any point's fastest sharded wall "
                             "clock exceeds this ceiling")
    args = parser.parse_args(argv)
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")

    report = {
        "bench": "repro.bench.tab13bench",
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "workloads": run_bench(args.smoke, shards=args.shards),
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
            # The mono baseline is the slow path being beaten; the
            # ceiling applies to the sharded rows.
            sharded = _mode_keys(point) - {"array_coalesce"}
            if not sharded:
                continue
            wall = min(point[key]["wall_s"] for key in sharded)
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
