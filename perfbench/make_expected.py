"""Regenerate ``expected.json``: the committed digests of each seed's pass.

Run from the repository root (a few minutes for all workloads)::

    python3 perfbench/make_expected.py [--seeds 0-9] [--workload NAME]

Only regenerate after a change that is meant to alter simulated outputs;
the benchmark counts every unit whose digest differs as failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def pass_digests(workload: str, seed: int):
    digests = []
    for unit in workloads.make_units(workload, seed):
        outcome = workloads.run_unit(workload, unit)
        if outcome.problems:
            raise SystemExit(f"{workload} seed {seed} unit {unit.index}: "
                             + "; ".join(outcome.problems))
        digests.append(outcome.digest)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9",
                        help="inclusive range, e.g. 0-9")
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    try:
        with open(workloads.EXPECTED_PATH) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for workload in args.workload or workloads.WORKLOADS:
        entries = table.setdefault(workload, {})
        for seed in seeds:
            entries[str(seed)] = workloads.encode_expected(
                workload, pass_digests(workload, seed))
            print(f"{workload} seed {seed}: done", flush=True)
        with open(workloads.EXPECTED_PATH, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
