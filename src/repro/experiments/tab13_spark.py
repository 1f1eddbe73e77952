"""Table 13: SparkUCX execution time with ODP enabled/disabled.

Twelve cells: three examples (SparkTC, mllib.RecommendationExample,
mllib.RankingMetricsExample) x four cluster configurations.  Expected
finding: enabling ODP degrades performance by up to ~6.5x, with the
degree varying per system and example (the paper attributes the spread
to timing).  Simulated times are scaled down by
:data:`repro.apps.spark.workloads.TIME_SCALE`; the enable/disable ratio
is the comparison target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.spark.benchmark import SparkCellResult, run_spark_cell
from repro.apps.spark.workloads import SPARK_CELLS, SparkCell, TIME_SCALE
from repro.experiments.runner import sweep
from repro.report import format_table


@dataclass
class Table13Result:
    """All measured cells."""

    results: List[SparkCellResult]

    def render(self) -> str:
        """Table-13-shaped output with paper ratios alongside."""
        rows = []
        for r in self.results:
            rows.append([
                r.cell.workload, r.cell.system, r.cell.qps,
                f"{r.disable_s:.2f}", f"{r.enable_s:.2f}",
                f"{r.ratio:.2f}", f"{r.cell.paper_ratio:.2f}"])
        return format_table(
            ["Example", "System", "QPs", f"Disable [s/{TIME_SCALE}]",
             f"Enable [s/{TIME_SCALE}]", "Ratio", "Paper ratio"],
            rows,
            title="Table 13: SparkUCX with ODP disabled/enabled "
                  f"(times scaled 1/{TIME_SCALE})")

    def worst_ratio(self) -> float:
        """The headline number (paper: 6.46 on Reedbush-H SparkTC)."""
        return max(r.ratio for r in self.results)


def _measure_cell(point) -> SparkCellResult:
    """One Table 13 cell on a fresh simulated cluster (pool-safe)."""
    cell, seed = point
    return run_spark_cell(cell, seed=seed)


def run_table13(cells: Optional[List[SparkCell]] = None,
                seed: int = 0,
                processes: Optional[int] = None) -> Table13Result:
    """Run all (or a subset of) Table 13 cells, optionally in parallel.

    Cells are swept weighted by QP count, so the 2858-QP ABCI cells
    start before the 210-QP KNL cells backfill — the table's
    wall-clock is its slowest cell, not its sum.  Cell results are
    bit-identical to the serial loop for any pool width.
    """
    todo = cells if cells is not None else SPARK_CELLS
    return Table13Result(sweep(_measure_cell,
                               [(cell, seed) for cell in todo],
                               processes=processes,
                               weights=[cell.qps for cell in todo]))


def run_table13_fleet(qps: int = 10240, num_groups: int = 16,
                      shards: int = 1, seed: int = 0,
                      workload: str = "SparkTC",
                      system: str = "Reedbush-H (2)",
                      scale: int = 1):
    """One Table 13 cell's traffic shape as a fleet of QP groups.

    The cell is re-expressed as ``num_groups`` hermetic QP groups, each
    its own client/server RNIC pair, run through
    :func:`repro.experiments.shard.run_fleet` — bit-identical for every
    shard count under the shard merge contract (counters, completions,
    fingerprints, execution time = critical path).  The groups split
    the flood's page-status-engine contention, so the fleet models a
    different machine from :func:`run_table13`'s cell: SparkTC on
    Reedbush-H reads ratio 5.83 as one 1280-QP cell and 2.33 as four
    groups.  Perfbench's spark-fleet workload calls it.  Returns the
    merged :class:`repro.experiments.shard.FleetResult` whose
    ``result`` is a :class:`repro.apps.spark.fleet.SparkFleetResult`.
    """
    from repro.apps.spark.fleet import SparkFleetConfig
    from repro.experiments.shard import run_fleet

    config = SparkFleetConfig(workload=workload, system=system, qps=qps,
                              num_groups=num_groups, shards=shards,
                              seed=seed, scale=scale)
    return run_fleet(config, collect=("counters", "fingerprint"))
