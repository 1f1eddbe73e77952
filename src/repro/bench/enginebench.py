"""Event-engine micro-benchmark: raw dispatch and cancel-heavy churn.

Every figure of the reproduction funnels through ``Simulator.run``; the
flood experiments alone push millions of events, most of them transport
timers that are armed and cancelled without ever firing.  This bench
tracks the two numbers that matter for that trajectory:

* **dispatch** — events/second through the hot loop for plain
  schedule-then-fire chains (no cancellations);
* **cancel_heavy** — the requester's churn pattern: every simulated
  "ACK" cancels a pending ~500 ms timeout and re-arms it, so almost no
  timer ever fires.  The seed engine left each corpse in the heap until
  its far-future expiry surfaced; the current engine keeps timers in
  the hierarchical wheel.

The baseline is a frozen copy of the seed engine (object-comparison
heap, no compaction, no wheel) so speedups stay measurable across PRs.
Run ``python -m repro.bench.enginebench`` from the repo root; it writes
``BENCH_engine.json`` (see the README's Performance section).  Use
``--smoke`` in CI for a seconds-long sanity run, and ``--check
BENCH_engine.json`` to fail when a freshly measured speedup drops below
half the committed one (speedup ratios are machine-independent; raw
event rates are not, and engine-scale runs on shared CI hardware are
noisy, hence the wide gate).
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.sim.engine import Simulator

#: Simulated timeout re-armed on every op of the cancel-heavy workload.
TIMEOUT_NS = 500_000_000
#: Simulated gap between consecutive ops (posts/ACKs).
OP_GAP_NS = 1_000
#: Concurrent timer chains, standing in for active QPs.
CHAINS = 8


# ----------------------------------------------------------------------
# Frozen seed-engine baseline (PR 0 state): Python __lt__ heap ordering,
# lazy cancellation without compaction, O(n) pending scan.
# ----------------------------------------------------------------------

class _SeedEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "_SeedEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class SeedSimulator:
    """The seed engine, kept verbatim as the benchmark baseline."""

    def __init__(self, seed: int = 0):
        self._now = 0
        self._seq = 0
        self._queue: List[_SeedEvent] = []

    @property
    def now(self) -> int:
        return self._now

    def schedule(self, delay: int, fn: Callable[..., Any],
                 *args: Any) -> _SeedEvent:
        self._seq += 1
        event = _SeedEvent(self._now + int(delay), self._seq, fn, args)
        heapq.heappush(self._queue, event)
        return event

    # The seed engine had no separate timer class; timers went on the heap.
    schedule_timer = schedule

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            fn, args = event.fn, event.args
            event.fn = None
            event.args = ()
            fn(*args)
            return True
        return False

    def run_until_idle(self) -> int:
        while self.step():
            pass
        return self._now


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def dispatch_workload(sim, total: int) -> int:
    """``total`` plain events through ``CHAINS`` self-rescheduling
    chains; returns the number fired."""
    count = 0

    def tick():
        nonlocal count
        count += 1
        if count <= total - CHAINS:
            sim.schedule(OP_GAP_NS, tick)

    for lane in range(CHAINS):
        sim.schedule(lane + 1, tick)
    sim.run_until_idle()
    return count


def cancel_heavy_workload(sim, total: int) -> int:
    """``total`` ops, each cancelling and re-arming a far-future timer —
    the RC requester's ACK pattern.  Returns ops executed."""
    timers: List[Optional[Any]] = [None] * CHAINS
    count = 0

    def expire():
        pass  # a timeout that (almost) never fires

    def ack(lane):
        nonlocal count
        count += 1
        pending = timers[lane]
        if pending is not None:
            pending.cancel()
        timers[lane] = sim.schedule_timer(TIMEOUT_NS, expire)
        if count <= total - CHAINS:
            sim.schedule(OP_GAP_NS, ack, lane)

    for lane in range(CHAINS):
        sim.schedule(lane + 1, ack, lane)
    # Drains the leftover corpses too — the flood runs pay exactly that.
    sim.run_until_idle()
    return count


def _rate(fn: Callable[[], int]) -> float:
    started = time.perf_counter()
    executed = fn()
    elapsed = time.perf_counter() - started
    return executed / elapsed if elapsed > 0 else float("inf")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def run_bench(total: int, repeats: int = 3) -> Dict[str, Any]:
    """Measure both workloads on the seed baseline and the current
    engine; report the best rate of ``repeats`` runs."""

    def best(fn: Callable[[], int]) -> float:
        return round(max(_rate(fn) for _ in range(repeats)), 1)

    results: Dict[str, Any] = {
        "events_per_run": total,
        "dispatch": {
            "seed_eps": best(lambda: dispatch_workload(SeedSimulator(),
                                                       total)),
            "engine_eps": best(lambda: dispatch_workload(Simulator(),
                                                         total)),
        },
        "cancel_heavy": {
            "seed_eps": best(lambda: cancel_heavy_workload(
                SeedSimulator(), total)),
            "engine_wheel_eps": best(lambda: cancel_heavy_workload(
                Simulator(), total)),
        },
    }
    dispatch = results["dispatch"]
    dispatch["speedup"] = round(dispatch["engine_eps"]
                                / dispatch["seed_eps"], 2)
    cancel = results["cancel_heavy"]
    cancel["speedup_wheel"] = round(cancel["engine_wheel_eps"]
                                    / cancel["seed_eps"], 2)
    return results


#: The machine-independent ratios the regression gate compares.
_CHECKED_RATIOS = (("dispatch", "speedup"),
                   ("cancel_heavy", "speedup_wheel"))


def check_report(report: Dict[str, Any], committed_path: str,
                 tolerance: float = 0.5) -> List[str]:
    """Regression gate: compare ``report`` to the committed baseline.

    Each speedup ratio must stay above ``tolerance`` x the committed
    value.  A ratio missing from either side is reported by name rather
    than crashing, so a schema drift (or pointing ``--check`` at the
    wrong BENCH file) fails loudly instead of with a KeyError.
    """
    with open(committed_path) as fh:
        committed = json.load(fh)
    failures: List[str] = []
    measured = report.get("workloads") or {}
    baseline = committed.get("workloads") or {}
    for workload, key in _CHECKED_RATIOS:
        mine = measured.get(workload, {}).get(key)
        theirs = baseline.get(workload, {}).get(key)
        if theirs is None:
            failures.append(f"{workload}.{key}: missing from committed "
                            f"baseline {committed_path} (wrong or "
                            "outdated file?)")
            continue
        if mine is None:
            failures.append(f"{workload}.{key}: missing from the "
                            "measured report")
            continue
        floor = theirs * tolerance
        if mine < floor:
            failures.append(
                f"{workload}.{key}: measured {mine}x is below "
                f"{floor:.2f}x ({tolerance:.0%} of committed {theirs}x)")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="enginebench",
        description="Benchmark the discrete-event engine against the "
                    "frozen seed baseline and write BENCH_engine.json.")
    parser.add_argument("--smoke", action="store_true",
                        help="small event counts (CI sanity run)")
    parser.add_argument("--events", type=int, default=None,
                        help="events per workload run (overrides --smoke)")
    parser.add_argument("--output", default="BENCH_engine.json",
                        help="output path (default: ./BENCH_engine.json)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a committed report; exit 1 "
                             "when any speedup ratio falls below half "
                             "the committed value")
    args = parser.parse_args(argv)

    total = args.events if args.events is not None else \
        (20_000 if args.smoke else 200_000)
    results = run_bench(total, repeats=2 if args.smoke else 3)
    report = {
        "bench": "repro.bench.enginebench",
        "mode": "smoke" if args.smoke and args.events is None else "full",
        "python": sys.version.split()[0],
        "workloads": results,
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
