"""Read-only golden pins: every committed render, byte for byte.

Each file under ``tests/golden/`` is the render of one entry of the
render table in :mod:`tests.test_paper_claims`, and must equal it byte
for byte: a change to the protocol model, to how captures are taken
(synthetic rows for coalesced rounds included) or to a render moves a
pin.  No test writes a golden; ``tests/regen_goldens.py`` renders them
serially, so the goldens are the serial oracle.

The swept entries run pooled on :data:`POOLED` workers, and Figures 2
and 12 also serially, so neither the protocol model nor a sweep's
placement can move a committed number.
"""

import pytest

from tests.test_paper_claims import (
    GOLDEN_DIR, POOLED, RENDERS, SWEEP_RENDERS, outcome, run_once)


def _golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text()


def test_every_golden_has_a_render():
    names = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
    assert names == set(RENDERS) | set(SWEEP_RENDERS)


@pytest.mark.parametrize("name, render", list(RENDERS.items()))
def test_render_matches_committed_golden(name, render):
    assert run_once(render)[1] + "\n" == _golden(name)


#: Table 13 takes ~45 s serially, so its serial run is left to
#: ``regen_goldens.py`` and CI's parallel identity smoke.
_SWEEP_CASES = [(name, 1) for name in SWEEP_RENDERS if name != "tab13_spark"] \
    + [(name, POOLED) for name in SWEEP_RENDERS]


@pytest.mark.parametrize("name, processes", _SWEEP_CASES)
def test_sweep_render_matches_committed_golden(name, processes):
    assert outcome(name, processes)[1] + "\n" == _golden(name)
