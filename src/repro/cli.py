"""Command-line front end: regenerate any table or figure.

Usage::

    python -m repro list
    python -m repro fig04 [--fast] [--seed 1]
    python -m repro fig09 --fast --jobs 8
    python -m repro all --fast
    python -m repro bench --check-all
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Tuple


def _fig01(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig01_workflow import run_figure1
    return "\n\n".join(r.render() for r in run_figure1(seed=seed))


def _fig02(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig02_timeout import run_figure2
    cacks = [1, 4, 8, 12, 14, 16, 18, 21] if fast else list(range(1, 22))
    return run_figure2(cacks=cacks, seed=seed, processes=jobs).render()


def _fig04(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig04_damming import run_figure4
    trials = 3 if fast else 10
    return run_figure4(trials=trials, seed=seed).render()


def _fig05(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig05_workflow import run_figure5
    from repro.bench.microbench import OdpSetup
    parts = [run_figure5(OdpSetup.SERVER, seed=seed).render(),
             run_figure5(OdpSetup.CLIENT, interval_ms=0.3,
                         seed=seed).render()]
    return "\n\n".join(parts)


def _fig06(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig06_probability import (run_figure6a,
                                                     run_figure6b)
    trials = 4 if fast else 10
    return (run_figure6a(trials=trials, seed=seed).render() + "\n\n"
            + run_figure6b(trials=trials, seed=seed).render())


def _fig07(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig07_more_reads import run_figure7
    trials = 4 if fast else 10
    return run_figure7(trials=trials, seed=seed).render()


def _fig08(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig08_workflow import run_figure8
    return run_figure8(seed=seed).render()


def _fig09(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig09_flood import run_figure9
    if fast:
        result = run_figure9(qps_values=[1, 10, 50, 128], scale=16,
                             seed=seed, processes=jobs)
    else:
        result = run_figure9(scale=4, seed=seed, processes=jobs)
    return result.render()


def _fig10(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig10_layout import run_figure10
    return run_figure10().render()


def _fig11(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig11_completion import run_figure11_both
    a, b = run_figure11_both(seed=seed)
    return a.render() + "\n\n" + b.render()


def _fig12(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.fig12_argodsm import run_figure12_all
    trials = 20 if fast else 100
    return "\n\n".join(
        r.render() for r in run_figure12_all(trials=trials, seed=seed,
                                             processes=jobs))


def _tab13(fast: bool, seed: int, jobs=None) -> str:
    from repro.apps.spark.workloads import SPARK_CELLS
    from repro.experiments.tab13_spark import run_table13
    cells = SPARK_CELLS[:4] if fast else None
    return run_table13(cells=cells, seed=seed, processes=jobs).render()


def _tables(fast: bool, seed: int, jobs=None) -> str:
    from repro.experiments.tables import render_table1, render_table2
    return render_table1() + "\n\n" + render_table2()


def _chaos(fast: bool, seed: int, jobs=None) -> str:
    # Raises ChaosSmokeError / InvariantError on any gate failure, which
    # main() lets propagate -> non-zero exit for CI.
    from repro.chaos.smoke import run_chaos_smoke
    return run_chaos_smoke(seed=seed, fast=fast)


def _telemetry(fast: bool, seed: int, jobs=None) -> str:
    # Raises TelemetrySmokeError on any gate failure, which main() lets
    # propagate -> non-zero exit for CI.
    from repro.telemetry.smoke import run_telemetry_smoke
    return run_telemetry_smoke(seed=seed, fast=fast)


def _counters(fast: bool, seed: int, jobs=None) -> str:
    """Run the canonical damming point instrumented and print the
    harvested hardware-style counter tree plus the diagnosis."""
    from repro.bench.microbench import run_microbench
    from repro.telemetry import Telemetry
    from repro.telemetry.smoke import _damming_config
    tel = Telemetry()
    run_microbench(_damming_config(seed, telemetry=tel))
    return (tel.counters().render() + "\n\n"
            + tel.diagnose().render())


def _trace(fast: bool, seed: int, jobs=None) -> str:
    """Trace the canonical damming point and export both offline
    formats: Perfetto JSON and an ibdump-style pcap (written to the
    current directory)."""
    from repro.bench.microbench import run_microbench
    from repro.capture.sniffer import Sniffer
    from repro.telemetry import Telemetry, export
    from repro.telemetry.smoke import _damming_config
    tel = Telemetry()
    sniffers = []
    run_microbench(
        _damming_config(seed, telemetry=tel),
        on_cluster=lambda cluster: sniffers.append(
            Sniffer(cluster.network)))
    json_path, pcap_path = "trace_fig04.json", "capture_fig04.pcap"
    events = tel.write_chrome_trace(json_path)
    frames = export.write_pcap(pcap_path, sniffers[0].records)
    return (f"wrote {json_path} ({events} events; open in "
            f"https://ui.perfetto.dev)\n"
            f"wrote {pcap_path} ({frames} frames; wireshark-readable)\n\n"
            + tel.diagnose().render())


def _tenants(fast: bool, seed: int, jobs=None, opts=None) -> str:
    """The multi-tenant interference matrix: the noisy-neighbour mix
    run solo / unmitigated / mitigated, rendered plus machine-readable
    JSON.  ``--groups N`` replicates the mix into N shared-RNIC cells
    routed through run_fleet; ``--shards S`` splits the fleet across
    worker processes (bit-identical at any shard count)."""
    import json as _json

    from repro.service.interference import run_tenant_matrix
    copies = getattr(opts, "groups", None) or 1
    shards = getattr(opts, "shards", None)
    report = run_tenant_matrix(seed=seed, fast=fast, copies=copies,
                               shards=shards)
    return (report.render() + "\n\n"
            + _json.dumps(report.as_dict(), indent=2))


def _mitigate(fast: bool, seed: int, jobs=None) -> str:
    """Score every registered ODP-pitfall countermeasure strategy
    against the damming/flood scenarios, with and without the fixed
    chaos plan, and render the what-if grid plus verdicts."""
    from repro.mitigate.compare import run_compare
    return run_compare(seed=seed, fast=fast, chaos=True).render()


def _recovery(fast: bool, seed: int, jobs=None) -> str:
    from repro.bench.recovery import RecoveryConfig, run_recovery
    result = run_recovery(RecoveryConfig(seed=seed))
    if result.invariant_violations:
        raise AssertionError(
            f"recovery scenario recorded {result.invariant_violations} "
            "invariant violation(s)")
    return result.render()


#: CI bench gate -> the bench module and the argv CI runs it with.
#: ``python -m repro bench --check-all`` runs every entry, so it
#: reproduces CI's bench gates locally.
BENCHES: Dict[str, Tuple[str, ...]] = {
    "trace-smoke": ("tracebench", "--smoke",
                    "--check", "BENCH_telemetry.json"),
    "scale-smoke": ("scalebench", "--smoke", "--check", "BENCH_scale.json",
                    "--max-wall", "60"),
    "tab13-smoke": ("tab13bench", "--smoke", "--check", "BENCH_tab13.json",
                    "--max-wall", "120"),
}


def _bench_check_all(output_dir: str) -> int:
    """Run every :data:`BENCHES` gate.

    Fresh reports land in ``output_dir`` as ``<gate>.json`` (kept, so CI
    can archive them).  Returns 1 when any gate regresses, breaks
    bit-identity, exceeds its ceiling or crashes — and always runs
    *every* gate first, so one failure cannot hide another's verdict.
    """
    import importlib
    import traceback

    os.makedirs(output_dir, exist_ok=True)
    failed: List[str] = []
    for gate, (name, *argv) in BENCHES.items():
        print(f"=== {gate}: {name} {' '.join(argv)} ===")
        fresh = os.path.join(output_dir, f"{gate}.json")
        try:
            module = importlib.import_module(f"repro.bench.{name}")
            code = module.main([*argv, "--output", fresh])
        except (Exception, SystemExit):
            # SystemExit too: an argparse error in one gate must not
            # end the loop and hide the later verdicts.
            traceback.print_exc()
            print(f"CHECK FAILED: {gate} crashed", file=sys.stderr)
            failed.append(gate)
            continue
        if code != 0:
            failed.append(gate)
    if failed:
        print(f"bench --check-all FAILED: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("bench --check-all: every bench gate passed")
    return 0


EXPERIMENTS: Dict[str, Callable[..., str]] = {
    "tables": _tables,
    "fig01": _fig01,
    "fig02": _fig02,
    "fig04": _fig04,
    "fig05": _fig05,
    "fig06": _fig06,
    "fig07": _fig07,
    "fig08": _fig08,
    "fig09": _fig09,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "tab13": _tab13,
    "chaos": _chaos,
    "mitigate": _mitigate,
    "tenants": _tenants,
    "recovery": _recovery,
    "telemetry": _telemetry,
    "counters": _counters,
    "trace": _trace,
}


def main(argv: List[str] = None) -> int:
    """Entry point of ``ib-odp-repro`` / ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="ib-odp-repro",
        description="Regenerate the tables and figures of 'Pitfalls of "
                    "InfiniBand with On-Demand Paging' (ISPASS 2021) "
                    "against the simulated RC+ODP stack.")
    parser.add_argument("experiment",
                        help="one of: list, all, bench, "
                             + ", ".join(EXPERIMENTS))
    parser.add_argument("--fast", action="store_true",
                        help="reduced trial counts / sweep sizes")
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default 0)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for sweep-style "
                             "experiments (default: all usable cores; "
                             "REPRO_SERIAL=1 forces serial); results "
                             "are bit-identical at any job count")
    parser.add_argument("--groups", type=int, default=None, metavar="G",
                        help="with 'tenants': run G copies of the mix, "
                             "one shared-RNIC cell each (default 1)")
    parser.add_argument("--shards", type=int, default=None, metavar="S",
                        help="with 'tenants': worker processes for the "
                             "copies (results are bit-identical at any "
                             "shard count)")
    parser.add_argument("--check-all", action="store_true",
                        help="with the 'bench' verb: run every CI "
                             "bench gate and fail on any regression "
                             "against its committed BENCH_*.json "
                             "baseline or wall ceiling")
    parser.add_argument("--bench-output", default="bench_ci",
                        metavar="DIR",
                        help="with 'bench --check-all': directory for "
                             "the fresh reports (default: ./bench_ci)")
    args = parser.parse_args(argv)
    if args.experiment != "tenants" \
            and (args.groups is not None or args.shards is not None):
        parser.error("--groups/--shards apply to 'tenants' only")

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.experiment == "bench":
        if not args.check_all:
            parser.error("the 'bench' verb requires --check-all")
        return _bench_check_all(args.bench_output)

    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; "
                     f"try 'list'")
    # One worker pool for the whole invocation: figure helpers run
    # several sweeps back to back (fig09's mode grid, tab13's cells,
    # `all`), and the session lets them share one pool spawn.  The pool
    # is created lazily, so serial figures never fork.
    from repro.experiments.runner import sweep_session

    with sweep_session(processes=args.jobs):
        for name in names:
            started = time.time()
            print(f"=== {name} ===")
            handler = EXPERIMENTS[name]
            # Only the tenants handler takes the parsed options (its
            # --groups/--shards); the plain (fast, seed, jobs) signature
            # stays the contract.
            kwargs = {"opts": args} if handler is _tenants else {}
            print(handler(args.fast, args.seed, args.jobs, **kwargs))
            print(f"--- {name} done in {time.time() - started:.1f}s ---\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
