"""Rewrite the committed goldens under ``tests/golden/``.

The only writer of goldens; no test writes one.  Every entry of the
render table in :mod:`tests.test_paper_claims` is rendered serially
(``REPRO_SERIAL=1``, sweeps at one worker), so each golden is the
serial oracle the pooled tier-1 runs are compared against.  Review the
diff before committing it: a moved golden is a moved paper number.

    PYTHONPATH=src python tests/regen_goldens.py            # all goldens
    PYTHONPATH=src python tests/regen_goldens.py fig09_flood
"""

import os
import sys
from pathlib import Path

os.environ["REPRO_SERIAL"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.test_paper_claims import (  # noqa: E402
    GOLDEN_DIR, RENDERS, SWEEP_RENDERS, outcome)


def main(names):
    for name in names or [*RENDERS, *SWEEP_RENDERS]:
        _result, text = outcome(name, processes=1)
        (GOLDEN_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"wrote {name}.txt")


if __name__ == "__main__":
    main(sys.argv[1:])
