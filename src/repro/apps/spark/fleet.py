"""The Table 13 mini-Spark workload as a fleet of QP groups.

This module defines the spark fleet workload for
:mod:`repro.experiments.shard`: a cell's traffic shape re-expressed as
``num_groups`` independent client/server QP groups, each a hermetic
:class:`~repro.apps.spark.engine.SparkCluster` with its private RNG
streams and its slice of the fleet's cold-page (fault) budget.

A fleet models a different machine from the classic cell: each group
has its own RNIC pair, so the page-status-engine contention behind the
flood is split ``num_groups`` ways.  The SparkTC/Reedbush-H ratio reads
5.83 as one 1280-QP cell and 2.33 as four 320-QP groups.  The fleet's
numbers are its own family, never a faster way to compute the
monolithic cell's.  Perfbench's spark-fleet workload runs it at two
shards, and ``python -m repro.bench.tab13bench`` gates its pooled path
(bit-identity at shards 1, 2 and 4).

The flood *fit* happens once at fleet scale: ``cold_pages_per_round``
inverts the paper's measured stall into a cold-page budget for the
whole fleet, and groups split that budget evenly (remainder to the
lowest group indices).  Fitting per group instead would multiply the
flood by the group count — a group is a slice of the fleet's fault
volume, not a smaller system measured fresh.

The merge follows the shard contract exactly: per-phase times take the
critical path (groups run concurrently in simulated time), packet and
timeout counts sum, completions k-way merge by ``(time, group,
position)`` with fleet-global wr_ids, counters relabel to fleet-global
RNIC scopes.  Results are bit-identical for every shard count (tested).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, FrozenSet, List, Sequence, Tuple

from repro.apps.spark.workloads import WORKLOADS, get_cell
from repro.experiments.shard import (
    COLLECT_COUNTERS,
    COLLECT_FINGERPRINT,
    FleetWorkload,
    GroupResult,
    GroupSpec,
    ShardPlanError,
    group_specs,
    merge_completions,
)


@dataclass(frozen=True)
class SparkFleetConfig:
    """A Table 13 cell scaled to fleet QP counts.

    ``workload``/``system`` pick the cell whose traffic shape and
    paper-fitted stall calibrate the run; ``qps`` overrides the cell's
    QP count (the whole point); ``num_groups`` is the fan-out;
    ``scale`` divides the fitted cold-page budget for test-sized runs
    (1 = the real fit).  ``coalesce`` defaults on; it is a
    bit-identical knob.
    """

    workload: str = "SparkTC"
    system: str = "Reedbush-H (2)"
    qps: int = 10240
    num_groups: int = 16
    shards: int = 1
    seed: int = 0
    scale: int = 1
    coalesce: bool = True

    # set below; a class attribute, not a dataclass field, so
    # replace()/pickle round-trips leave it alone
    fleet_workload: ClassVar[FleetWorkload]


def fleet_fit(config: SparkFleetConfig):
    """(cell-at-fleet-qps, fleet cold budget per round, fetches/QP).

    Deterministic pure function of the config — workers and the parent
    recompute it instead of shipping it, so a group's definition can
    never drift from the fleet's.
    """
    from repro.apps.spark.workloads import cold_pages_per_round
    from repro.ib.device import get_device

    cell = dataclasses.replace(get_cell(config.workload, config.system),
                               qps=int(config.qps))
    cold, fetches = cold_pages_per_round(cell, get_device("ConnectX-4"))
    cold //= max(1, int(config.scale))
    return cell, cold, fetches


def group_cold_pages(total: int, num_groups: int, index: int) -> int:
    """Group ``index``'s slice of the fleet cold-page budget: an even
    split with the remainder going to the lowest indices."""
    return total // num_groups + (1 if index < total % num_groups else 0)


def spark_groups(config: SparkFleetConfig) -> List[GroupSpec]:
    """Split a fleet config into its QP groups.

    Every group owns ``qps/num_groups`` QPs and its own LID pair
    (:class:`GroupSpec` derives the LIDs from the group index).
    ``num_ops`` records the group's structural READ count — rounds x
    fetches x QPs — which is also the wr_id span the merge globalises.
    """
    num_groups = int(config.num_groups)
    if num_groups < 1:
        raise ShardPlanError(f"num_groups must be >= 1, got {num_groups}")
    qps = int(config.qps)
    if qps % num_groups:
        raise ShardPlanError(f"num_groups={num_groups} does not divide "
                             f"qps={qps}")
    cell, _cold, fetches = fleet_fit(config)
    group_qps = qps // num_groups
    pairs = cell.workers * (cell.workers - 1) // 2
    if group_qps % (2 * pairs):
        raise ShardPlanError(
            f"group qps={group_qps} must be a multiple of "
            f"{2 * pairs} (2 x worker pairs) so every group is the "
            f"same shape")
    rounds = WORKLOADS[config.workload].rounds
    ops = rounds * fetches * group_qps
    return group_specs(config.seed, [(group_qps, ops)] * num_groups)


@dataclass
class SparkGroupRun:
    """One group's picklable partial: both ODP phases of its slice."""

    disable_s: float
    enable_s: float
    enable_timeouts: int
    enable_packets: int
    disable_packets: int
    completions: List[Tuple[int, int, str]]


def _relabel(registry, phase: str, spec: GroupSpec, workers: int
             ) -> List[Tuple[Tuple[str, str], int]]:
    """Group-local counter scopes -> fleet-global, phase-qualified.

    Local RNIC ``l`` of group ``g`` becomes ``rnic{g*workers+l}`` —
    collision-free across groups, and equal to the group's
    :class:`GroupSpec` LIDs for the two-worker cells the table uses.
    The ODP phase prefixes the scope so enable-side flood counters
    never sum into the disable baseline.
    """
    from repro.experiments.shard import _relabel_scope

    lid_map = {local: spec.index * workers + local
               for local in range(1, workers + 1)}
    return [((f"{phase}:{_relabel_scope(scope, lid_map)}", name), value)
            for (scope, name), value in registry.items()]


def _run_spark_group(spec: GroupSpec, base_config: SparkFleetConfig,
                     collect: FrozenSet[str]) -> GroupResult:
    """Run one QP group (both ODP phases) and bundle its partials."""
    from repro.apps.spark.benchmark import _run_once

    cell, cold_total, fetches = fleet_fit(base_config)
    cold = group_cold_pages(cold_total, base_config.num_groups, spec.index)
    group_telemetry = None
    if COLLECT_FINGERPRINT in collect:
        from repro.telemetry import Telemetry
        group_telemetry = Telemetry()
    # Distinct private streams per group *and* per phase: 2s / 2s+1
    # never collide across groups (group seeds are consecutive).
    knobs = dict(total_qps=spec.num_qps, cold_pages=cold, fetches=fetches,
                 coalesce=base_config.coalesce)
    disable = _run_once(cell, odp_enabled=False, seed=2 * spec.seed,
                        **knobs)
    enable = _run_once(cell, odp_enabled=True, seed=2 * spec.seed + 1,
                       record_completions=True,
                       telemetry=group_telemetry, **knobs)
    run = SparkGroupRun(
        disable_s=disable["time_s"], enable_s=enable["time_s"],
        enable_timeouts=int(enable["timeouts"]),
        enable_packets=int(enable["packets"]),
        disable_packets=int(disable["packets"]),
        completions=[(spec.wr_base + wr_id, t, status)
                     for wr_id, t, status in enable["completions"]])
    counters = None
    if COLLECT_COUNTERS in collect:
        from repro.telemetry.counters import collect_counters
        workers = cell.workers
        counters = tuple(sorted(
            _relabel(collect_counters(disable["cluster"].fabric), "disable",
                     spec, workers)
            + _relabel(collect_counters(enable["cluster"].fabric), "enable",
                       spec, workers)))
    fingerprint = None
    if group_telemetry is not None:
        fingerprint = group_telemetry.fingerprint()
    return GroupResult(index=spec.index, result=run, counters=counters,
                       fingerprint=fingerprint)


@dataclass
class SparkFleetResult:
    """The merged fleet cell: Table 13's row shape at fleet scale."""

    workload: str
    system: str
    num_qps: int
    num_groups: int
    disable_s: float           # critical path over groups
    enable_s: float            # critical path over groups
    enable_timeouts: int
    enable_packets: int
    disable_packets: int
    completions: List[Tuple[int, int, str]]

    @property
    def ratio(self) -> float:
        """Simulated enable/disable ratio (the paper's last column)."""
        if self.disable_s <= 0:
            return float("inf")
        return self.enable_s / self.disable_s

    def render(self) -> str:
        header = (f"{'workload':<28} {'system':<16} {'QPs':>6} "
                  f"{'groups':>6} {'w/o ODP':>9} {'w/ ODP':>9} "
                  f"{'ratio':>7}")
        row = (f"{self.workload:<28} {self.system:<16} "
               f"{self.num_qps:>6} {self.num_groups:>6} "
               f"{self.disable_s:>9.3f} {self.enable_s:>9.3f} "
               f"{self.ratio:>7.2f}")
        return "\n".join((header, row))


def merge_spark(config: SparkFleetConfig,
                group_results: Sequence[GroupResult]) -> SparkFleetResult:
    """Fold per-group partials into one fleet cell, deterministically.

    Groups run concurrently in simulated time, so each phase's time is
    the slowest group's (critical path); packets and timeouts sum;
    completions k-way merge by ``(completion time, group, arrival
    order)`` — the shard merge contract's ordering key.
    ``group_results`` arrive in group order.
    """
    runs = [group.result for group in group_results]
    return SparkFleetResult(
        workload=config.workload,
        system=config.system,
        num_qps=int(config.qps),
        num_groups=int(config.num_groups),
        disable_s=max(run.disable_s for run in runs),
        enable_s=max(run.enable_s for run in runs),
        enable_timeouts=sum(run.enable_timeouts for run in runs),
        enable_packets=sum(run.enable_packets for run in runs),
        disable_packets=sum(run.disable_packets for run in runs),
        completions=merge_completions(group_results),
    )


SparkFleetConfig.fleet_workload = FleetWorkload(groups=spark_groups,
                                                run_group=_run_spark_group,
                                                merge=merge_spark)
