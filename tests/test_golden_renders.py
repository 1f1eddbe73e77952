"""Golden pins for committed figure renders.

Figures 1, 5 and 8 render packet captures taken by a default
:class:`~repro.capture.sniffer.Sniffer`.  Their renders must equal the
committed files under ``benchmarks/results/`` byte for byte: a change to
how captures are taken (synthetic rows for coalesced rounds included)
or to the protocol behaviour they show breaks these pins.

Figures 2 and 12 are swept grids; they are pinned serially and across
two worker processes, so neither the protocol model nor the sweep's
placement can move a committed number.
"""

from pathlib import Path

import pytest

from repro.bench.microbench import OdpSetup
from repro.experiments.fig01_workflow import run_figure1
from repro.experiments.fig05_workflow import run_figure5
from repro.experiments.fig02_timeout import run_figure2
from repro.experiments.fig08_workflow import run_figure8
from repro.experiments.fig12_argodsm import run_figure12

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def _fig01() -> str:
    server, client = run_figure1()
    return server.render() + "\n\n" + client.render()


@pytest.mark.parametrize("name, render", [
    ("fig01_workflows", _fig01),
    ("fig05_server_side",
     lambda: run_figure5(OdpSetup.SERVER, 1.0).render()),
    ("fig05_client_side",
     lambda: run_figure5(OdpSetup.CLIENT, 0.3).render()),
    ("fig08_workflow", lambda: run_figure8(interval_ms=3.0).render()),
])
def test_render_matches_committed_golden(name, render):
    golden = (RESULTS / f"{name}.txt").read_text()
    assert render() + "\n" == golden


_SWEEP_RENDERS = {
    "fig02_timeouts": lambda processes: run_figure2(
        cacks=[1, 4, 8, 10, 12, 14, 16, 18, 20, 21],
        processes=processes).render(),
    "fig12_knl": lambda processes: run_figure12(
        "KNL (2 nodes)", trials=40, processes=processes).render(),
    "fig12_reedbush-h": lambda processes: run_figure12(
        "Reedbush-H (2 nodes)", trials=40, processes=processes).render(),
}


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("name", list(_SWEEP_RENDERS))
def test_sweep_render_matches_committed_golden(name, processes):
    golden = (RESULTS / f"{name}.txt").read_text()
    assert _SWEEP_RENDERS[name](processes) + "\n" == golden
