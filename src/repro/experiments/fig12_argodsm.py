"""Figure 12: ArgoDSM init+finalize execution-time distributions with
ODP disabled/enabled on KNL and Reedbush-H.

Expected findings: without ODP the 100 trials cluster tightly around
the base time; with ODP they split into two groups separated by a
transport timeout (~2 s at UCX's C_ACK=18) — the slow group is packet
damming on the global-lock READ+SEND pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.argodsm.benchmark import (ARGO_SYSTEMS, ArgoBenchResult,
                                          DEFAULT_INIT_BYTES,
                                          _run_trial_point)
from repro.experiments.runner import sweep
from repro.report import histogram, summarize


@dataclass
class Figure12Result:
    """One panel (system) of Figure 12."""

    system: str
    without_odp: ArgoBenchResult
    with_odp: ArgoBenchResult

    def render(self) -> str:
        """Histograms and averages, Figure-12 style."""
        preset = ARGO_SYSTEMS[self.system]
        lines = [f"Figure 12 — {self.system}:",
                 f"  paper: w/o ODP avg {preset.paper_without_odp_s:.2f} s, "
                 f"w/ ODP avg {preset.paper_with_odp_s:.2f} s",
                 f"  simulated: w/o ODP avg {self.without_odp.average_s:.2f} s,"
                 f" w/ ODP avg {self.with_odp.average_s:.2f} s "
                 f"(damming in {self.with_odp.damming_fraction * 100:.0f}% "
                 "of trials)",
                 "",
                 histogram(self.without_odp.times, bins=12,
                           title="  w/o ODP [s]:", unit="s"),
                 "",
                 histogram(self.with_odp.times, bins=12,
                           title="  w/ ODP [s]:", unit="s")]
        return "\n".join(lines)

    @property
    def bimodal(self) -> bool:
        """True when the with-ODP samples split into two groups."""
        times = sorted(self.with_odp.times)
        if len(times) < 4:
            return False
        gaps = [b - a for a, b in zip(times, times[1:])]
        spread = times[-1] - times[0]
        return spread > 0 and max(gaps) > spread * 0.4


def run_figure12(system: str, trials: int = 100, seed: int = 0,
                 processes: Optional[int] = None) -> Figure12Result:
    """One system's panel: both ODP configurations' trials in a single
    sweep, so the pool never drains between the two configurations.

    With-ODP trials weigh double — the dammed ones stall through a
    transport timeout and simulate far more fabric traffic — so
    heaviest-first placement starts them before the uniform
    without-ODP baselines backfill.  Placement only; every trial owns
    its derived seed and the trial lists are bit-identical to the
    serial loops (tested).
    """
    points = [(system, odp, seed * 100_003 + trial, DEFAULT_INIT_BYTES)
              for odp in (False, True) for trial in range(trials)]
    outcomes = sweep(_run_trial_point, points, processes=processes,
                     weights=[1.0] * trials + [2.0] * trials)
    without_odp = ArgoBenchResult(system=system, odp_enabled=False)
    without_odp.trials.extend(outcomes[:trials])
    with_odp = ArgoBenchResult(system=system, odp_enabled=True)
    with_odp.trials.extend(outcomes[trials:])
    return Figure12Result(system=system, without_odp=without_odp,
                          with_odp=with_odp)


def run_figure12_all(trials: int = 100, seed: int = 0,
                     processes: Optional[int] = None) -> List[Figure12Result]:
    """Both panels (KNL and Reedbush-H)."""
    return [run_figure12(name, trials=trials, seed=seed,
                         processes=processes)
            for name in ARGO_SYSTEMS]
