"""The what-if engine: score every mitigation strategy against the
paper's pitfall scenarios.

Each cell of the comparison grid is one :func:`run_microbench` run —
a (scenario, strategy, chaos?) triple on its own simulator and seed —
instrumented with telemetry, the invariant monitor, and (for the chaos
half of the grid) a fixed :class:`~repro.chaos.plan.ChaosPlan`.  The
per-cell verdict comes from :func:`repro.telemetry.diagnose`: a
strategy *mitigates* a pitfall when the episode the unmitigated
``none`` baseline exhibits is absent under the strategy, or its stall
time shrinks by at least :data:`STALL_IMPROVEMENT` (2x).

Scenarios (all microbench-shaped; the fig12/tab13 cells are proxies
with the applications' access patterns, not the full app drivers):

* ``fig04-damming`` — the canonical two-READ damming point;
* ``fig09-flood``  — the client-ODP flood shape (fig09's knee);
* ``fig12-argodsm`` — ArgoDSM-like barrier bursts: short back-to-back
  READs on both-side ODP, tail ops landing inside the flaw window;
* ``tab13-spark``  — Spark-like wide shuffle: large READs fanned over
  many QPs on client-side ODP.

``python -m repro mitigate`` renders the grid; ``tests/test_mitigate.py``
gates its verdicts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import ChaosPlan, FaultKind, FaultWindow
from repro.ib.validate import InvariantMonitor
from repro.mitigate.strategy import STRATEGIES
from repro.sim.timebase import MS, US
from repro.telemetry import Telemetry

#: A strategy with surviving episodes still counts as mitigating when
#: it cuts the baseline's episode stall time by at least this factor.
STALL_IMPROVEMENT = 2.0

#: LID of the microbench client node (first node of ``build_pair``).
_CLIENT_LID = 1


@dataclass(frozen=True)
class Scenario:
    """One pitfall workload of the comparison grid."""

    name: str
    #: which pathology the unmitigated run exhibits: damming | flood.
    pitfall: str
    #: MicrobenchConfig keyword overrides.
    knobs: Tuple[Tuple[str, Any], ...]

    def config(self, seed: int, strategy: str,
               telemetry: Telemetry) -> MicrobenchConfig:
        return MicrobenchConfig(seed=seed, mitigation=strategy,
                                telemetry=telemetry, **dict(self.knobs))


def scenarios(fast: bool = True) -> List[Scenario]:
    """The pitfall grid; ``fast`` shrinks the flood shapes for CI.

    The flood shapes must stay deep enough that the diagnosis engine
    still sees a :class:`~repro.telemetry.diagnose.FloodEpisode` under
    ``none`` (>= 3 blind rounds/QP and a stretched status span) — the
    fast shapes below are the smallest verified to do so.
    """
    flood_qps, flood_ops = (24, 288) if fast else (50, 512)
    spark_qps, spark_ops = (24, 240) if fast else (48, 480)
    rnr = round(1.28 * MS)
    return [
        Scenario("fig04-damming", "damming", (
            ("num_ops", 2), ("odp", OdpSetup.BOTH),
            ("interval_us", 1000.0), ("min_rnr_timer_ns", rnr))),
        Scenario("fig09-flood", "flood", (
            ("size", 400), ("num_ops", flood_ops),
            ("num_qps", flood_qps), ("odp", OdpSetup.CLIENT),
            ("cack", 14), ("min_rnr_timer_ns", rnr),
            ("integrity", False))),
        Scenario("fig12-argodsm", "damming", (
            ("num_ops", 4), ("odp", OdpSetup.BOTH),
            ("interval_us", 500.0), ("cack", 14),
            ("min_rnr_timer_ns", rnr))),
        Scenario("tab13-spark", "flood", (
            ("size", 800), ("num_ops", spark_ops),
            ("num_qps", spark_qps), ("odp", OdpSetup.CLIENT),
            ("cack", 14), ("min_rnr_timer_ns", rnr),
            ("integrity", False))),
    ]


def chaos_plan(pitfall: str) -> ChaosPlan:
    """The fixed fault plan of the chaos half of the grid."""
    if pitfall == "damming":
        # Probabilistic early loss compounds the replay pressure the
        # dam feeds on.
        return ChaosPlan([
            FaultWindow(0, 2 * MS, FaultKind.DROP, probability=0.5)])
    # Flood: keep re-evicting the client's ODP pages so views go stale
    # again and again (the eviction-storm pressure dynamic-pin resists).
    return ChaosPlan([
        FaultWindow(0, 2 * MS, FaultKind.EVICTION_STORM,
                    lids=(_CLIENT_LID,), period_ns=100 * US, pages=2)])


@dataclass
class StrategyRow:
    """One grid cell: a strategy under one scenario."""

    scenario: str
    pitfall: str
    strategy: str
    chaos: bool
    execution_s: float
    timeouts: int
    total_packets: int
    blind_rounds: int
    #: episode stall time from the diagnosis engine (ms): the summed
    #: durations of every damming + flood episode in the trace.
    stalled_ms: float
    damming_episodes: int
    flood_episodes: int
    monitor_violations: int
    fallbacks: Dict[str, int] = field(default_factory=dict)

    @property
    def episodes(self) -> int:
        return self.damming_episodes + self.flood_episodes


@dataclass
class Verdict:
    """Did a strategy mitigate a scenario's pitfall?"""

    scenario: str
    pitfall: str
    strategy: str
    chaos: bool
    mitigated: bool
    baseline_stalled_ms: float
    stalled_ms: float
    reason: str


@dataclass
class CompareReport:
    """The full grid plus its verdicts."""

    seed: int
    fast: bool
    rows: List[StrategyRow] = field(default_factory=list)

    def row(self, scenario: str, strategy: str,
            chaos: bool) -> Optional[StrategyRow]:
        for row in self.rows:
            if (row.scenario, row.strategy, row.chaos) \
                    == (scenario, strategy, chaos):
                return row
        return None

    def verdicts(self) -> List[Verdict]:
        """Judge every non-``none`` cell against its baseline cell."""
        out: List[Verdict] = []
        for row in self.rows:
            if row.strategy == "none":
                continue
            base = self.row(row.scenario, "none", row.chaos)
            if base is None:
                continue
            out.append(_judge(base, row))
        return out

    def mitigated_strategies(self, pitfall: str,
                             chaos: bool = False) -> List[str]:
        """Strategies that mitigate *every* scenario of a pitfall."""
        names: Dict[str, bool] = {}
        for verdict in self.verdicts():
            if verdict.pitfall != pitfall or verdict.chaos != chaos:
                continue
            names[verdict.strategy] = names.get(verdict.strategy, True) \
                and verdict.mitigated
        return sorted(name for name, ok in names.items() if ok)

    def render(self) -> str:
        from repro.report import format_table
        blocks: List[str] = []
        for chaos in (False, True):
            rows = [r for r in self.rows if r.chaos == chaos]
            if not rows:
                continue
            table_rows = []
            for r in rows:
                fallbacks = ",".join(f"{k}={v}" for k, v
                                     in sorted(r.fallbacks.items())) or "-"
                table_rows.append(
                    (r.scenario, r.strategy, f"{r.execution_s:.4f}",
                     f"{r.stalled_ms:.1f}", r.timeouts, r.blind_rounds,
                     r.total_packets,
                     f"{r.damming_episodes}d/{r.flood_episodes}f",
                     r.monitor_violations, fallbacks))
            title = ("Mitigation grid under chaos plan"
                     if chaos else "Mitigation grid (no chaos)")
            blocks.append(format_table(
                ["scenario", "strategy", "exec [s]", "stall [ms]",
                 "timeouts", "blind", "packets", "episodes", "viol",
                 "fallbacks"],
                table_rows, title=title))
        lines = []
        for verdict in self.verdicts():
            status = "MITIGATED" if verdict.mitigated else "no effect"
            chaos = " +chaos" if verdict.chaos else ""
            lines.append(
                f"  {verdict.scenario}{chaos} x {verdict.strategy}: "
                f"{status} ({verdict.reason})")
        blocks.append("verdicts:\n" + "\n".join(lines))
        return "\n\n".join(blocks)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "fast": self.fast,
            "rows": [dataclasses.asdict(row) for row in self.rows],
            "verdicts": [dataclasses.asdict(v) for v in self.verdicts()],
        }


def _judge(base: StrategyRow, row: StrategyRow) -> Verdict:
    """The acceptance rule: episode absent, or stall cut >= 2x."""
    pitfall_episodes = (row.damming_episodes if row.pitfall == "damming"
                       else row.flood_episodes)
    base_episodes = (base.damming_episodes if base.pitfall == "damming"
                     else base.flood_episodes)
    if base_episodes == 0:
        mitigated = False
        reason = "baseline shows no episode to mitigate"
    elif pitfall_episodes == 0:
        mitigated = True
        reason = (f"{row.pitfall} episode absent "
                  f"(baseline had {base_episodes})")
    elif row.stalled_ms * STALL_IMPROVEMENT <= base.stalled_ms:
        mitigated = True
        reason = (f"stall {base.stalled_ms:.1f} ms -> "
                  f"{row.stalled_ms:.1f} ms (>= {STALL_IMPROVEMENT:.0f}x)")
    else:
        mitigated = False
        reason = (f"episode persists; stall {base.stalled_ms:.1f} ms -> "
                  f"{row.stalled_ms:.1f} ms")
    return Verdict(scenario=row.scenario, pitfall=row.pitfall,
                   strategy=row.strategy, chaos=row.chaos,
                   mitigated=mitigated,
                   baseline_stalled_ms=base.stalled_ms,
                   stalled_ms=row.stalled_ms, reason=reason)


def run_cell(scenario: Scenario, strategy: str, seed: int,
             plan: Optional[ChaosPlan] = None) -> StrategyRow:
    """One instrumented run: telemetry + monitor (+ chaos) attached."""
    telemetry = Telemetry()
    config = scenario.config(seed, strategy, telemetry)
    attached: Dict[str, Any] = {}

    def hook(cluster):
        telemetry.attach(cluster)
        if plan is not None:
            attached["chaos"] = ChaosEngine(cluster, plan,
                                            seed=seed).install()
        attached["monitor"] = InvariantMonitor(cluster)

    result = run_microbench(config, on_cluster=hook)
    diagnosis = telemetry.diagnose()
    stalled_ns = sum(e.duration_ns for e in diagnosis.damming) \
        + sum(e.duration_ns for e in diagnosis.flood)
    monitor = attached["monitor"]
    return StrategyRow(
        scenario=scenario.name,
        pitfall=scenario.pitfall,
        strategy=strategy,
        chaos=plan is not None,
        execution_s=result.execution_time_s,
        timeouts=result.timeouts,
        total_packets=result.total_packets,
        blind_rounds=result.blind_retransmit_rounds,
        stalled_ms=stalled_ns / 1e6,
        damming_episodes=len(diagnosis.damming),
        flood_episodes=len(diagnosis.flood),
        monitor_violations=monitor.report()["violations"],
        fallbacks=dict(result.mitigation_fallbacks),
    )


def run_compare(seed: int = 0, fast: bool = True,
                strategies: Optional[List[str]] = None,
                chaos: bool = True) -> CompareReport:
    """Run the full grid: scenarios x strategies x {plain, chaos}."""
    names = strategies if strategies is not None else sorted(STRATEGIES)
    for name in names:
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}; choose from "
                             f"{sorted(STRATEGIES)}")
    report = CompareReport(seed=seed, fast=fast)
    for scenario in scenarios(fast):
        for name in names:
            report.rows.append(run_cell(scenario, name, seed))
    if chaos:
        for scenario in scenarios(fast):
            plan = chaos_plan(scenario.pitfall)
            for name in names:
                report.rows.append(run_cell(scenario, name, seed,
                                            plan=plan))
    return report
