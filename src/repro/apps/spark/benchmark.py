"""Regenerating Table 13: one cell = workload x system x {ODP on, off}."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.apps.spark.engine import ShuffleRound, SparkCluster
from repro.apps.spark.workloads import (
    SparkCell,
    TIME_SCALE,
    WORKLOADS,
    cold_pages_per_round,
    compute_per_round_ns,
)
from repro.ib.device import get_device
from repro.sim.timebase import ns_to_s


@dataclass
class SparkCellResult:
    """Measured (simulated) times for one Table 13 cell."""

    cell: SparkCell
    disable_s: float
    enable_s: float
    enable_timeouts: int
    enable_packets: int
    disable_packets: int

    @property
    def ratio(self) -> float:
        """Simulated enable/disable ratio (the paper's last column)."""
        if self.disable_s <= 0:
            return float("inf")
        return self.enable_s / self.disable_s

    @property
    def scaled_paper_disable_s(self) -> float:
        """Paper baseline divided by the simulation time scale."""
        return self.cell.paper_disable_s / TIME_SCALE

    @property
    def scaled_paper_enable_s(self) -> float:
        """Paper ODP time divided by the simulation time scale."""
        return self.cell.paper_enable_s / TIME_SCALE


def _run_once(cell: SparkCell, odp_enabled: bool, seed: int,
              total_qps: Optional[int] = None,
              cold_pages: Optional[int] = None,
              fetches: Optional[int] = None,
              num_rounds: Optional[int] = None,
              coalesce: Optional[bool] = None,
              record_completions: bool = False,
              telemetry=None) -> Dict[str, object]:
    """Run one ODP-on-or-off job and return its measured surfaces.

    The keyword overrides exist for the fleet path
    (:mod:`repro.apps.spark.fleet`): a QP *group* runs the cell's
    traffic shape at a slice of the fleet's QPs with its slice of the
    fleet's cold-page budget, fetches fixed at the fleet-level fit
    (the fit depends on the paper's stall time, not on group size).
    Defaults reproduce the classic single-process cell exactly.
    """
    env = {"UCX_IB_PREFER_ODP": "y" if odp_enabled else "n"}
    cluster = SparkCluster(workers=cell.workers,
                           total_qps=cell.qps if total_qps is None
                           else total_qps,
                           env=env, seed=seed, coalesce=coalesce,
                           record_completions=record_completions)
    if telemetry is not None:
        telemetry.attach(cluster.fabric)
    # the traffic shape is identical for both runs; pinned registration
    # simply pre-populates the cold pages so they never fault
    profile = get_device("ConnectX-4")
    fit_cold, fit_fetches = cold_pages_per_round(cell, profile)
    if cold_pages is None:
        cold_pages = fit_cold
    if fetches is None:
        fetches = fit_fetches
    workload = WORKLOADS[cell.workload]
    rounds = [ShuffleRound(compute_ns=compute_per_round_ns(cell),
                           fetches_per_qp=fetches, cold_pages=cold_pages)
              for _ in range(workload.rounds if num_rounds is None
                             else num_rounds)]
    start = cluster.sim.now
    proc = cluster.run_job(rounds)
    cluster.sim.run_until_idle()
    _ = proc.result
    return {
        "time_s": ns_to_s(cluster.sim.now - start),
        "timeouts": cluster.transport_timeouts(),
        "packets": cluster.total_packets(),
        "completions": cluster.completions,
        "cluster": cluster,
    }


def run_spark_cell(cell: SparkCell, seed: int = 0) -> SparkCellResult:
    """Run one Table 13 cell with ODP disabled and enabled."""
    disable = _run_once(cell, odp_enabled=False, seed=seed)
    enable = _run_once(cell, odp_enabled=True, seed=seed + 1)
    return SparkCellResult(
        cell=cell,
        disable_s=disable["time_s"],
        enable_s=enable["time_s"],
        enable_timeouts=int(enable["timeouts"]),
        enable_packets=int(enable["packets"]),
        disable_packets=int(disable["packets"]),
    )
