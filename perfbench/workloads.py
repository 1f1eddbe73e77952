"""Workload inputs, the unit runners, and the output checks.

Every workload is one closed-loop client: a *pass* is a fixed list of
units generated from the seed, and the next unit starts when the
previous one ends.  A unit is one call into the program's public entry
point with inputs built here, so the program sees only those inputs and
keeps its own execution defaults (``coalesce``, ``arraycore``, ...):

* ``damming``     -- one ``run_microbench`` point per unit;
* ``flood``       -- one Fig 9-shaped ``run_microbench`` run;
* ``spark-fleet`` -- one ``run_table13_fleet`` cell at two shards;
* ``tenants``     -- one ``run_tenant_matrix`` over the replicated mix.

Each unit yields a digest of its simulated outputs, compared with the
committed ``expected.json`` for the seeds it covers, and a list of
invariant violations checked for every seed.
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional

WORKLOADS = ("damming", "flood", "spark-fleet", "tenants")

#: Points per damming pass: each costs about a millisecond of host time.
DAMMING_POINTS = 6000
#: The Fig 4/6/7 grids the damming draws cover.
DAMMING_ODP = ("none", "server", "client", "both")
DAMMING_RNR_NS = (10_000, 1_280_000, 10_240_000)
DAMMING_MAX_INTERVAL_US = 5000
#: Table 13 SparkTC / Reedbush-H (2) scaled to 1280 QPs as 4 groups.
SPARK_QPS = 1280
SPARK_GROUPS = 4
SPARK_SHARDS = 2
#: Copies of the noisy-neighbour mix (one shared-RNIC cell each).
TENANT_COPIES = 8
#: The paper's RC timeout floor on ConnectX-4 (DESIGN section 5).
PAPER_TIMEOUT_FLOOR_S = 0.5

_COPY_NAME = re.compile(r"-c[0-9]{4}$")

EXPECTED_PATH = Path(__file__).with_name("expected.json")
#: Bytes of a damming unit's digest kept in ``expected.json``; the other
#: workloads keep ``DIGEST_HEX`` hex digits of their one digest per pass.
DAMMING_DIGEST_BYTES = 2
DIGEST_HEX = 16


@dataclass(frozen=True)
class Unit:
    """One closed-loop unit: the program inputs and the ops it posts."""

    index: int
    inputs: Any
    ops: int


@dataclass
class Outcome:
    """What one unit produced, as the checks see it."""

    digest: bytes
    ops: int
    problems: List[str] = field(default_factory=list)
    #: simulated stall (s): a damming point that hit the RC timeout, or
    #: the aggressors' episode time under mitigation (tenants).
    stall_s: Optional[float] = None
    #: 1 when per-tenant mitigation did not contain the aggressor.
    uncontained: int = 0


def _sha(*parts: Any) -> bytes:
    return hashlib.sha256(repr(parts).encode()).digest()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def make_units(workload: str, seed: int) -> List[Unit]:
    """The seed's pass of ``workload``: same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "damming":
        from repro.bench.microbench import MicrobenchConfig, OdpSetup
        units = []
        for index in range(DAMMING_POINTS):
            config = MicrobenchConfig(
                num_ops=rng.randint(2, 4),
                odp=OdpSetup(rng.choice(DAMMING_ODP)),
                interval_us=rng.randrange(DAMMING_MAX_INTERVAL_US + 1),
                min_rnr_timer_ns=rng.choice(DAMMING_RNR_NS),
                seed=rng.randrange(1 << 31))
            units.append(Unit(index, config, config.num_ops))
        return units
    if workload == "flood":
        from repro.bench.microbench import MicrobenchConfig, OdpSetup
        # The Fig 9 experiment's own settings, lazy payloads included.
        config = MicrobenchConfig(size=100, num_ops=8192, num_qps=1024,
                                  odp=OdpSetup.CLIENT, cack=18,
                                  integrity=False,
                                  seed=rng.randrange(1 << 31))
        return [Unit(0, config, config.num_ops)]
    if workload == "spark-fleet":
        from repro.apps.spark.fleet import SparkFleetConfig, spark_groups
        inputs = dict(qps=SPARK_QPS, num_groups=SPARK_GROUPS,
                      shards=SPARK_SHARDS, seed=rng.randrange(1 << 31))
        groups = spark_groups(SparkFleetConfig(**inputs))
        # both ODP phases post the group's structural READs
        return [Unit(0, inputs, 2 * sum(g.num_ops for g in groups))]
    if workload == "tenants":
        from repro.service.interference import noisy_neighbor_mix
        mix = noisy_neighbor_mix()
        inputs = dict(mix=mix, seed=rng.randrange(1 << 31),
                      copies=TENANT_COPIES, shards=1)
        victims = sum(spec.num_ops for spec in mix
                      if spec.mitigation == "none")
        everyone = sum(spec.num_ops for spec in mix)
        # solo runs the victims, none and mitigated run everyone
        return [Unit(0, inputs, TENANT_COPIES * (victims + 2 * everyone))]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")


def describe_inputs(units: List[Unit]) -> str:
    """A stable text form of a pass's inputs (tests compare these)."""
    return repr([(unit.index, unit.inputs, unit.ops) for unit in units])


# ----------------------------------------------------------------------
# Running and checking one unit
# ----------------------------------------------------------------------

def run_unit(workload: str, unit: Unit, shards: Optional[int] = None
             ) -> Outcome:
    """Run one unit through the program and check its outputs.

    ``shards`` overrides the spark-fleet shard count; the traced run
    uses it to run the same fleet in one process.
    """
    if workload in ("damming", "flood"):
        from repro.bench.microbench import run_microbench
        return _microbench_outcome(unit, run_microbench(unit.inputs))
    if workload == "spark-fleet":
        from repro.experiments.tab13_spark import run_table13_fleet
        inputs = dict(unit.inputs)
        if shards is not None:
            inputs["shards"] = shards
        return spark_outcome(unit, run_table13_fleet(**inputs))
    if workload == "tenants":
        from repro.service.interference import run_tenant_matrix
        return _tenants_outcome(unit, run_tenant_matrix(**unit.inputs))
    raise ValueError(f"unknown workload {workload!r}")


def _microbench_outcome(unit: Unit, result) -> Outcome:
    from repro.ib.verbs.enums import WcStatus

    completions = tuple((wr_id, t, status.name)
                        for wr_id, t, status in result.completions)
    outcome = Outcome(
        digest=_sha(result.execution_time_ns, result.total_packets,
                    result.timeouts, completions),
        ops=len(completions))
    if len(completions) != unit.ops:
        outcome.problems.append(
            f"{len(completions)} of {unit.ops} ops completed")
    failed = sum(1 for _w, _t, status in result.completions
                 if status is not WcStatus.SUCCESS)
    if failed or result.errors:
        outcome.problems.append(f"{max(failed, result.errors)} completions "
                                "not SUCCESS")
    if result.integrity_errors:
        outcome.problems.append(
            f"{result.integrity_errors} integrity errors")
    if result.timeouts:
        outcome.stall_s = result.execution_time_s
    return outcome


def spark_outcome(unit: Unit, fleet) -> Outcome:
    """Check a spark-fleet :class:`FleetResult` (also used by the shard
    accounting, which merges the same fleet by hand)."""
    from repro.ib.verbs.enums import WcStatus

    cell = fleet.result
    outcome = Outcome(
        digest=_sha(fleet.fingerprint, cell.disable_s, cell.enable_s,
                    cell.enable_packets, cell.disable_packets,
                    cell.enable_timeouts),
        ops=2 * len(cell.completions))
    if outcome.ops != unit.ops:
        outcome.problems.append(
            f"{outcome.ops} of {unit.ops} ops completed")
    # fleet completions carry the status value, e.g. "IBV_WC_SUCCESS"
    failed = sum(1 for _w, _t, status in cell.completions
                 if status != WcStatus.SUCCESS.value)
    if failed:
        outcome.problems.append(f"{failed} completions not SUCCESS")
    return outcome


def _tenants_outcome(unit: Unit, report) -> Outcome:
    runs = {name: (cell.fingerprint, cell.total_packets, cell.execution_ns)
            for name, cell in sorted(report.runs.items())}
    # copy 0 is also folded back under the base names; count copies only
    ops = sum(tenant.ops for cell in report.runs.values()
              for tenant in cell.tenants.values()
              if _COPY_NAME.search(tenant.name))
    outcome = Outcome(digest=_sha(runs), ops=ops)
    errors = sum(tenant.errors for cell in report.runs.values()
                 for tenant in cell.tenants.values())
    if errors:
        outcome.problems.append(f"{errors} tenant ops failed")
    if ops != unit.ops:
        outcome.problems.append(f"{ops} of {unit.ops} tenant ops ran")
    if not report.runs["none"].flood:
        outcome.problems.append("no flood episode under mitigation=none")
    # A verdict about the scenario, not a wrong output: counted and
    # printed, never hidden (see README.md).
    outcome.uncontained = 0 if report.contained() else 1
    outcome.stall_s = report.aggressor_stall_ns("mitigated") / 1e9
    return outcome


# ----------------------------------------------------------------------
# Expected digests
# ----------------------------------------------------------------------

def load_expected(workload: str, seed: int) -> Optional[List[bytes]]:
    """Committed per-unit digest prefixes for a seed, or None."""
    try:
        with open(EXPECTED_PATH) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    entry = table.get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if workload == "damming":
        raw = base64.b64decode(entry)
        size = DAMMING_DIGEST_BYTES
        return [raw[i:i + size] for i in range(0, len(raw), size)]
    return [bytes.fromhex(entry)]


def encode_expected(workload: str, digests: List[bytes]) -> str:
    """The ``expected.json`` form of a pass's unit digests."""
    if workload == "damming":
        return base64.b64encode(b"".join(
            d[:DAMMING_DIGEST_BYTES] for d in digests)).decode()
    (digest,) = digests
    return digest.hex()[:DIGEST_HEX]


def digest_matches(digest: bytes, expected: bytes) -> bool:
    return digest[:len(expected)] == expected


def check(outcome: Outcome, expected: Optional[List[bytes]],
          index: int) -> List[str]:
    """Invariant problems plus a digest mismatch, if any."""
    problems = list(outcome.problems)
    if expected is not None and not digest_matches(outcome.digest,
                                                   expected[index]):
        problems.append("simulated outputs differ from expected.json")
    return problems

