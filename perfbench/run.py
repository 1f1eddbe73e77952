"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: after a warm-up pass it
repeats whole passes of the workload for about ``--seconds`` and
reports medians, in reference seconds (see ``refclock``).
``--trace 1`` makes the separate traced run: one untraced pass, then
one pass with the layer tracer on, and prints the per-layer metrics.
Both check every simulated output.  The last line of standard output is
the JSON result; lines before it are for people.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
# The benchmark imports the program from the checkout it sits in.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import refclock, tracing, workloads  # noqa: E402

#: Extra set-ups in fresh interpreters, so ``setup_s`` is a median.
SETUP_PROBES = 4
#: Problems printed per run before the rest are only counted.
MAX_REPORTED_PROBLEMS = 5


def _ping(_index: int) -> None:
    """Pool warm-up task."""


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

class Bench:
    """Set-up state of one run: inputs, expectations and worker pool.

    ``clock`` is the running reference clock (see ``refclock``); the
    pool's workers start their own copy of it.  The traced run passes
    None, so that the probe does not show up in the per-layer times.
    ``setup_s`` is the set-up's host seconds scaled by the clock.
    """

    def __init__(self, workload: str, seed: int, stack: ExitStack,
                 clock: Optional[refclock.RefClock]):
        started = time.perf_counter()
        before = clock.read() if clock is not None else (0.0, 0.0)
        self.workload = workload
        self.seed = seed
        self.clock = clock
        # Import every layer the workload runs before the clock stops.
        if workload == "spark-fleet":
            import repro.experiments.tab13_spark  # noqa: F401
            import repro.apps.spark.fleet  # noqa: F401
        elif workload == "tenants":
            import repro.service.interference  # noqa: F401
            import repro.service.fleet  # noqa: F401
        import repro.bench.microbench  # noqa: F401
        import repro.telemetry  # noqa: F401
        self.units = workloads.make_units(workload, seed)
        self.expected = workloads.load_expected(workload, seed)
        if self.expected is not None \
                and len(self.expected) != len(self.units):
            raise RuntimeError("expected.json does not match the pass "
                               f"length of {workload!r}")
        self.pool = None
        self.worker_pids: List[int] = []
        self.clocked_workers = 0
        self.pool_start_s = 0.0
        if workload == "spark-fleet":
            from repro.experiments import runner
            pool_started = time.perf_counter()
            refclock.fork_barrier(workloads.SPARK_SHARDS)
            session = stack.enter_context(
                runner.sweep_session(processes=workloads.SPARK_SHARDS))
            self.pool = session.executor(workloads.SPARK_SHARDS)
            # one round trip starts every worker of a fork-context pool
            if clock is not None:
                self.worker_pids = refclock.arm_workers(
                    self.pool, workloads.SPARK_SHARDS)
                self.clocked_workers = len(self.worker_pids)
            else:
                list(self.pool.map(_ping, range(workloads.SPARK_SHARDS)))
                self.worker_pids = sorted(self.pool._processes)  # noqa: SLF001
            self.pool_start_s = time.perf_counter() - pool_started
        self.setup_host_s = time.perf_counter() - started
        self.setup_s = self.setup_host_s
        if clock is not None:
            raw, ref = clock.read()
            self.setup_s *= _speed(raw - before[0], ref - before[1])

    def clocks(self) -> Tuple[float, float, float]:
        """Cumulative (CPU s, reference s, probe s) of the work in this
        process and in the clocked pool workers."""
        raw, ref = self.clock.read()
        probe = self.clock.probe_s
        if self.clocked_workers:
            w_raw, w_ref, w_probe = refclock.read_workers(
                self.pool, self.clocked_workers)
            raw, ref, probe = raw + w_raw, ref + w_ref, probe + w_probe
        return raw, ref, probe


def _speed(raw_s: float, ref_s: float) -> float:
    """Reference seconds per CPU second over a stretch of work."""
    return ref_s / raw_s if raw_s > 0 else 1.0


def setup_probe_times(workload: str, seed: int) -> List[float]:
    """Set up again in fresh interpreters and return their set-up times."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


# ----------------------------------------------------------------------
# Host accounting
# ----------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(worker_pids: List[int]) -> float:
    """User+sys seconds of this process, its reaped children and the
    live pool workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for pid in worker_pids:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def peak_rss_mb(worker_pids: List[int]) -> Dict[str, float]:
    """Peak RSS of this process and of its largest live worker."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker = 0.0
    for pid in worker_pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    worker = max(worker, int(line.split()[1]) / 1024)
    return {"parent": parent, "worker": worker}


# ----------------------------------------------------------------------
# Running units
# ----------------------------------------------------------------------

class Tally:
    """Attempted/failed units plus the first few problems, printed."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.attempted = 0
        self.failed = 0
        self.stalls: List[float] = []
        self.uncontained = 0

    def record(self, index: int, outcome, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            problems = [error]
        else:
            problems = workloads.check(outcome, self.bench.expected, index)
            if outcome.stall_s is not None:
                self.stalls.append(outcome.stall_s)
            self.uncontained += outcome.uncontained
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_PROBLEMS:
                print(f"unit {index} failed: {'; '.join(problems)}",
                      file=sys.stderr)

    def run(self, unit, shards: Optional[int] = None, tracer=None):
        """Run one unit, checked; returns its outcome (None on error)."""
        call = functools.partial(workloads.run_unit, self.bench.workload,
                                 unit, shards)
        outcome, error = None, None
        try:
            outcome = call() if tracer is None \
                else tracer.run_unit(unit.index, call)
        except Exception:  # a unit that raises counts as failed
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        self.record(unit.index, outcome, error)
        return outcome


def end_to_end(bench: Bench, seconds: float) -> Dict[str, Any]:
    """Closed-loop passes for about ``seconds``; medians over passes.

    The first pass warms up and is checked but not timed: it ran 6%
    slower than later ones on damming and 4% on tenants, and whether one
    or two more passes fit depends on the host's speed, so counting it
    would move the median with the host.

    Every timing is in reference seconds (``refclock``): host or CPU
    seconds scaled by the pass's reference seconds per CPU second, with
    the probe's own time taken out.  A unit's CPU time is scaled by the
    whole pass's factor too: one probe is too short a sample to scale
    the percentiles by.
    """
    tally = Tally(bench)
    passes: List[Dict[str, Any]] = []
    started = time.perf_counter()
    for unit in bench.units:
        tally.run(unit)
    while True:
        cpu_before = cpu_seconds(bench.worker_pids)
        clocks_before = bench.clocks()
        own_probe_before = bench.clock.probe_s
        pass_start = time.perf_counter()
        ops = 0
        point_s = []
        unit_clocks = clocks_before
        for unit in bench.units:
            outcome = tally.run(unit)
            done = bench.clocks()
            point_s.append(done[0] - unit_clocks[0])
            unit_clocks = done
            ops += outcome.ops if outcome is not None else 0
        wall = time.perf_counter() - pass_start
        cpu = cpu_seconds(bench.worker_pids) - cpu_before
        raw, ref, probe = (after - before for after, before
                           in zip(unit_clocks, clocks_before))
        speed = _speed(raw, ref)
        # The parent's probes hold up the pass; pool workers probe side
        # by side, so the pass waits for about one worker's share.
        own_probe = bench.clock.probe_s - own_probe_before
        probe_wall = own_probe + (probe - own_probe) / max(
            bench.clocked_workers, 1)
        passes.append({"wall": (wall - probe_wall) * speed, "ops": ops,
                       "points": [p * speed for p in point_s],
                       "cpu": (cpu - probe) * speed,
                       "host_wall": wall, "speed": speed})
        if len(passes) == 1:
            # later passes raise the high-water mark a little; a fixed
            # count keeps the figure independent of how many passes fit
            rss = peak_rss_mb(bench.worker_pids)
        # Whole passes only: stop unless another one, as long as this
        # one, would end less than half a pass past the budget.
        if time.perf_counter() - started + wall / 2 >= seconds:
            break
    print(f"{bench.workload}: a warm-up pass and {len(passes)} timed "
          f"passes of {len(bench.units)} "
          f"unit(s); point percentiles over {len(bench.units)} samples per "
          f"pass; peak RSS parent {rss['parent']:.1f} MB, largest worker "
          f"{rss['worker']:.1f} MB; fail_rate "
          f"{tally.failed / tally.attempted:.4f}")
    print("timed passes: host seconds " + ", ".join(
        f"{p['host_wall']:.2f}" for p in passes)
        + "; reference seconds per CPU second " + ", ".join(
        f"{p['speed']:.3f}" for p in passes)
        + "; wall in reference seconds " + ", ".join(
        f"{p['wall']:.2f}" for p in passes)
        + f"; {bench.clock.probes} probes in this process")
    print_accuracy(bench.workload, tally)

    def median(per_pass) -> float:
        return statistics.median(per_pass(p) for p in passes)

    metrics = {
        "wall_s": metric(median(lambda p: p["wall"]), "s"),
        "ops_per_s": metric(median(lambda p: p["ops"] / p["wall"]), "1/s"),
        "point_ms_p50": metric(1e3 * median(
            lambda p: statistics.median(p["points"])), "ms"),
        "point_ms_p99": metric(1e3 * median(
            lambda p: percentile(p["points"], 0.99)), "ms"),
        "cpu_s": metric(median(lambda p: p["cpu"]), "s"),
        "peak_rss_mb": metric(max(rss.values()), "MB"),
    }
    return {"tally": tally, "metrics": metrics}


def print_accuracy(workload: str, tally: Tally) -> None:
    """Model accuracy beside the paper, where the paper has a number."""
    if workload == "damming" and tally.stalls:
        stalls = sorted(tally.stalls)
        print(f"model accuracy: {len(stalls)} timed-out points stalled "
              f"{stalls[0]:.3f}/{statistics.median(stalls):.3f}/"
              f"{stalls[-1]:.3f} s (min/median/max simulated) beside the "
              f"paper's ~{workloads.PAPER_TIMEOUT_FLOOR_S} s ConnectX-4 "
              "RC timeout floor")
    elif workload != "damming":
        print(f"model accuracy: {workload} has no hardware reference; "
              "its simulated outputs are checked for exactness only")
    if workload == "tenants":
        print(f"containment: {tally.uncontained} of {tally.attempted} "
              "matrix passes not contained under per-tenant mitigation "
              f"(aggressor episode stall {tally.stalls[-1] * 1e3:.1f} ms)"
              if tally.stalls else "containment: no passes completed")


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

def traced(bench: Bench) -> Dict[str, Any]:
    """One untraced pass, then the same pass traced; per-layer metrics."""
    tally = Tally(bench)
    spark = bench.workload == "spark-fleet"
    shards = 1 if spark else None
    acct = None
    if spark:
        # Shard accounting at the pool width, then the same fleet in one
        # process: the untraced twin of the traced pass.
        (unit,) = bench.units
        acct = tracing.shard_accounting(unit.inputs, bench.pool)
        tally.record(unit.index, workloads.spark_outcome(unit, acct["fleet"]),
                     None)
    base_start = time.perf_counter()
    for unit in bench.units:
        tally.run(unit, shards=shards)
    base_wall = time.perf_counter() - base_start

    tracer = tracing.Tracer(tracing.LayerMap(tracing.load_layers()))
    ops = 0
    uncontained_before = tally.uncontained
    tracer.install()
    try:
        tracer.start_sampling()
        try:
            for unit in bench.units:
                outcome = tally.run(unit, shards=shards, tracer=tracer)
                ops += outcome.ops if outcome is not None else 0
        finally:
            tracer.stop_sampling()
    finally:
        tracer.uninstall()
    spans_path = ROOT / ".perfbench" / f"spans-{bench.workload}-{bench.seed}.json"
    tracer.write(spans_path)

    counts = tracer.counts
    values: Dict[str, float] = {}
    for layer, seconds in tracer.self_times().items():
        values[f"{layer}.self_s"] = seconds
    values["sim.events"] = counts["sim.events"]
    values["sim.events_coalesced"] = counts["sim.events_coalesced"]
    values["sim.events_per_s"] = counts["sim.events"] / base_wall
    for name in ("packets", "blind_rounds", "timeouts", "rnr_naks"):
        values[f"transport.{name}"] = counts[f"transport.{name}"]
    values["transport.packets_per_op"] = \
        counts["transport.packets"] / ops if ops else 0.0
    values["coalesce.rounds"] = counts["coalesce.blind_hits"] \
        + counts["coalesce.rnr_hits"]
    values["coalesce.hit_ratio"] = (
        counts["coalesce.blind_hits"] / counts["transport.blind_rounds"]
        if counts["transport.blind_rounds"] else 0.0)
    for name in ("client_faults", "server_faults", "discarded"):
        values[f"odp.{name}"] = counts[f"odp.{name}"]
    values["setup.build_s"] = tracer.outer_span_s("setup")
    values["setup.qps"] = counts["setup.qps"]
    values["shard.pool_start_s"] = bench.pool_start_s
    if acct is not None:
        speedup = base_wall / acct["wall_s"]
        values.update({
            "shard.plan_s": acct["plan_s"],
            "shard.ship_bytes": acct["ship_bytes"],
            "shard.return_bytes": acct["return_bytes"],
            "shard.worker_s": sum(acct["worker_busy_s"]),
            "shard.worker_max_s": acct["worker_busy_s"][0],
            "shard.merge_s": acct["merge_s"],
            "shard.speedup_1w": speedup,
            "shard.parallel_eff": speedup / (os.cpu_count() or 1),
        })
        print(f"shard accounting: {acct['shards']} shards on "
              f"{len(bench.worker_pids)} workers (nproc "
              f"{os.cpu_count()}); pool start {bench.pool_start_s:.3f} s, "
              f"plan {acct['plan_s']:.4f} s, ship {acct['ship_bytes']} B, "
              f"worker busy " + ", ".join(
                  f"{s:.2f}" for s in acct["worker_busy_s"])
              + f" s, return {acct['return_bytes']} B, merge "
              f"{acct['merge_s']:.4f} s; 2-worker wall "
              f"{acct['wall_s']:.2f} s vs one worker {base_wall:.2f} s")
    else:
        values.update({
            "shard.plan_s": tracer.outer_span_s("shard", "plan_fleet"),
            "shard.ship_bytes": 0, "shard.return_bytes": 0,
            "shard.worker_s": 0.0, "shard.worker_max_s": 0.0,
            "shard.merge_s": tracer.outer_span_s("shard", "merge_fleet"),
            "shard.speedup_1w": 0.0, "shard.parallel_eff": 0.0,
        })
    values["telemetry.events_traced"] = counts["telemetry.events_traced"]
    values["telemetry.dropped"] = counts["telemetry.dropped"]
    values["telemetry.diagnose_s"] = tracer.outer_span_s(
        "telemetry", "Telemetry.diagnose")
    values["mitigate.fallbacks"] = counts["mitigate.fallbacks"]
    values["mitigate.uncontained"] = tally.uncontained - uncontained_before
    values["trace.wall_s"] = tracer.traced_s
    values["trace.overhead"] = tracer.traced_s / base_wall
    print(f"traced pass: {tracer.traced_s:.2f} s traced vs {base_wall:.2f} s "
          f"untraced; {sum(tracer.samples.values())} self-time samples; "
          f"{len(tracer.spans)} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    units = {name: _unit_of(name) for name in tracing.per_layer_names()}
    metrics = {name: metric(values[name], units[name])
               for name in tracing.per_layer_names()}
    return {"tally": tally, "metrics": metrics}


def _unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_eff", "_1w", "overhead", "per_op")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source (src/repro) is not under "
              f"{ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    # The clock's probe data is built before set-up time starts counting.
    clock = None if args.trace else refclock.start()
    with ExitStack() as stack:
        bench = Bench(args.workload, args.seed, stack, clock)
        if args.setup_probe:
            print(json.dumps({"setup_s": bench.setup_s}))
            return 0
        result = measure(bench, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def measure(bench: Bench, seconds: float, trace: bool) -> Dict[str, Any]:
    """The run's JSON result: end-to-end metrics, or per-layer ones."""
    if trace:
        run = traced(bench)
    else:
        if bench.clock is None:
            raise ValueError("end-to-end timings need a reference clock")
        setups = [bench.setup_s] + setup_probe_times(bench.workload,
                                                     bench.seed)
        run = end_to_end(bench, seconds)
        tally = run["tally"]
        run["metrics"]["setup_s"] = metric(statistics.median(setups), "s")
        run["metrics"]["success_rate"] = metric(
            1.0 - tally.failed / tally.attempted, "ratio")
        print(f"setup_s samples (reference s): "
              + ", ".join(f"{s:.3f}" for s in setups)
              + f"; this run's set-up took {bench.setup_host_s:.3f} host s")
    tally = run["tally"]
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": run["metrics"]}


if __name__ == "__main__":
    sys.exit(main())
