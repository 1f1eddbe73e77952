"""Figure 9: packet flood — execution time (9a) and packet count (9b)
versus the number of QPs, for the four ODP configurations.

Paper parameters: 8192 READ operations of 100 bytes, 200 buffer pages,
minimal RNR NAK delay 1.28 ms, ``C_ACK = 18``.  Expected shapes:

* without ODP: flat and fast regardless of QPs;
* few QPs (<~10): ODP variants sit inside the "unavoidable overhead"
  band (200 serialized faults of 250-1000 us);
* beyond ~10 QPs, client-side (and both-side) ODP degrade drastically —
  up to ~3000x — with packet counts hundreds of times the baseline;
* server-side ODP degrades too (damming timeouts, stretched by QP load).

A full-scale sweep is expensive (hundreds of seconds of simulated flood
per point); ``scale`` divides the operation count, preserving shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.experiments.runner import sweep
from repro.experiments.shard import run_fleet
from repro.report import ascii_chart, format_table
from repro.sim.timebase import MS

PAPER_NUM_OPS = 8192
PAPER_SIZE = 100

#: Per-point seed mix.  Every grid cell must own a distinct simulator
#: seed (that is what makes pool fan-out bit-identical to the serial
#: loop), and the ODP mode is part of the cell's identity just like the
#: QP count: without a mode term, the NONE and CLIENT cells at equal
#: ``num_qps`` would share RNG streams and their metrics would be
#: spuriously correlated across curves.  Primes keep the three mix
#: components from aliasing on the grids anyone realistically sweeps.
SEED_STRIDE = 60_013
MODE_SEED_SALT = 100_003

#: Fixed mode indexing for the seed mix — enum declaration order, NOT
#: the caller's ``modes`` argument order, so a cell's seed does not
#: depend on which subset of curves a run happens to request.
_MODE_INDEX = {mode: index for index, mode in enumerate(OdpSetup)}


def point_seed(seed: int, mode: OdpSetup, num_qps: int) -> int:
    """The simulator seed of one (mode, #QPs) grid cell."""
    return seed * SEED_STRIDE + MODE_SEED_SALT * _MODE_INDEX[mode] + num_qps


@dataclass
class Figure9Point:
    """One (mode, #QPs) measurement."""

    num_qps: int
    execution_s: float
    packets: int
    timeouts: int
    blind_retransmits: int


@dataclass
class Figure9Result:
    """Both panels of Figure 9."""

    num_ops: int
    curves: Dict[OdpSetup, List[Figure9Point]] = field(default_factory=dict)

    def render(self) -> str:
        """Tables for 9a and 9b plus an ASCII execution-time chart."""
        modes = list(self.curves)
        qps_values = [p.num_qps for p in self.curves[modes[0]]]
        time_rows = []
        packet_rows = []
        for index, qps in enumerate(qps_values):
            time_rows.append([qps] + [
                f"{self.curves[m][index].execution_s:.3f}" for m in modes])
            packet_rows.append([qps] + [
                self.curves[m][index].packets for m in modes])
        headers = ["# QPs"] + [m.value for m in modes]
        out = [format_table(headers, time_rows,
                            title=f"Figure 9a: execution time [s] "
                                  f"({self.num_ops} ops)"),
               "",
               format_table(headers, packet_rows,
                            title="Figure 9b: number of packets")]
        client = self.curves.get(OdpSetup.CLIENT)
        if client:
            out += ["", ascii_chart(
                [(p.num_qps, max(p.execution_s, 1e-4)) for p in client],
                x_label="# QPs", y_label="exec [s]", log_y=True,
                title="Figure 9a shape (client-side ODP):")]
        return "\n".join(out)

    def degradation_factor(self) -> float:
        """Worst client-side slowdown versus the no-ODP baseline."""
        base = self.curves[OdpSetup.NONE]
        client = self.curves[OdpSetup.CLIENT]
        worst = 0.0
        for b, c in zip(base, client):
            if b.execution_s > 0:
                worst = max(worst, c.execution_s / b.execution_s)
        return worst


def _measure_point(point) -> Figure9Point:
    """One (mode, #QPs) cell on a fresh per-point simulator (pool-safe).

    A cell split into several QP groups runs as a fleet through
    :func:`run_fleet`; inside a pool worker its groups run in-process.
    """
    (mode, num_qps, size, num_ops, cack, seed, mitigation,
     groups, shards) = point
    config = MicrobenchConfig(
        size=size, num_ops=num_ops,
        num_qps=min(num_qps, num_ops),
        odp=mode, cack=cack,
        min_rnr_timer_ns=round(1.28 * MS),
        # The flood sweep moves millions of packets; lazy payloads skip
        # the byte copies without changing any reported metric.
        integrity=False, mitigation=mitigation, num_groups=groups,
        seed=point_seed(seed, mode, num_qps))
    if groups > 1:
        run = run_fleet(config, shards=shards).result
    else:
        run = run_microbench(config)
    return Figure9Point(
        num_qps=num_qps,
        execution_s=run.execution_time_s,
        packets=run.total_packets,
        timeouts=run.timeouts,
        blind_retransmits=run.blind_retransmit_rounds)


def effective_groups(requested: int, num_qps: int, num_ops: int) -> int:
    """The largest usable group count for one grid cell: at most
    ``requested``, and dividing both the cell's QPs and ops so every
    group is the same shape (the fleet split's divisibility contract).
    A cell too small to split runs as a plain point (1)."""
    for groups in range(min(max(1, requested), num_qps), 0, -1):
        if num_qps % groups == 0 and num_ops % groups == 0:
            return groups
    return 1


def run_figure9(qps_values: Optional[List[int]] = None,
                modes: Optional[List[OdpSetup]] = None,
                scale: int = 4, seed: int = 0,
                cack: Optional[int] = None,
                processes: Optional[int] = None,
                num_groups: int = 1,
                shards: Optional[int] = None,
                mitigation: str = "none") -> Figure9Result:
    """Sweep QP count x ODP mode.  ``scale`` divides the op count.

    The paper uses ``C_ACK = 18`` (T_o ~2 s).  Down-scaled runs default
    to ``C_ACK = 14`` (T_o ~125 ms) so that the rare end-of-run damming
    timeouts — which full-scale flood durations amortise — do not
    dominate the much shorter scaled executions; pass ``cack=18``
    explicitly for paper-exact parameters.

    The grid is swept weighted by QP count, heaviest first, so the
    expensive many-QP flood cells start before the cheap baselines
    backfill.  ``processes`` sizes the pool (every point owns its seed,
    so results are bit-identical to a serial run for any value).

    ``mitigation`` names a countermeasure strategy from
    :mod:`repro.mitigate`; it rides the point/fleet configs like any
    other grid axis (``"none"`` is bit-identical to omitting it).

    ``num_groups > 1`` additionally *shards* each cell big enough to
    split: the cell becomes a QP-group fleet (largest group count <=
    ``num_groups`` that divides its QPs and ops).  A serial sweep runs
    it across ``shards`` worker processes; a pooled sweep runs its
    groups in the cell's own worker.  A fleet cell is a different
    machine, not a different seed: each group is its own client/server
    RNIC pair, so splitting the cell also splits the page-status-engine
    contention that produces the flood (``num_groups=2`` cuts the
    client-ODP flood about 5x at 50 and 128 QPs).  Fleet numbers are
    bit-identical for any shard count or pool width (tested), but not
    comparable to the ``num_groups=1`` monolithic cells.  The default
    keeps the classic definition.
    """
    qps_list = qps_values if qps_values is not None else \
        [1, 5, 10, 25, 50, 100, 200]
    mode_list = modes if modes is not None else \
        [OdpSetup.NONE, OdpSetup.SERVER, OdpSetup.CLIENT, OdpSetup.BOTH]
    num_ops = max(64, PAPER_NUM_OPS // scale)
    if cack is None:
        cack = 18 if scale <= 1 else 14
    # preserve the paper's 200-page buffer footprint when the operation
    # count shrinks: the flood volume is (QP, page)-pair driven
    size = min(PAPER_SIZE * scale, 2048)
    grid = []
    weights = []
    for mode in mode_list:
        for num_qps in qps_list:
            eff_qps = min(num_qps, num_ops)
            groups = effective_groups(num_groups, eff_qps, num_ops)
            grid.append((mode, num_qps, size, num_ops, cack, seed,
                         mitigation, groups, shards))
            weights.append(eff_qps)
    points = sweep(_measure_point, grid, processes=processes,
                   weights=weights)
    result = Figure9Result(num_ops=num_ops)
    for index, mode in enumerate(mode_list):
        result.curves[mode] = points[index * len(qps_list):
                                     (index + 1) * len(qps_list)]
    return result
