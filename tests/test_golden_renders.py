"""Golden pins for the sniffer-driven workflow figures.

Figures 1, 5 and 8 render packet captures taken by a default
:class:`~repro.capture.sniffer.Sniffer`.  Their renders must equal the
committed files under ``benchmarks/results/`` byte for byte: a change to
how captures are taken (synthetic rows for coalesced rounds included)
or to the protocol behaviour they show breaks these pins.
"""

from pathlib import Path

import pytest

from repro.bench.microbench import OdpSetup
from repro.experiments.fig01_workflow import run_figure1
from repro.experiments.fig05_workflow import run_figure5
from repro.experiments.fig08_workflow import run_figure8

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
