"""Importing the matcher's packages must not load scipy.

Only the vertical build (PPMI embeddings) and the flooding baseline use
scipy, and they import it inside the functions that need it; at module level
it would cost every matcher process ~150 modules and ~20 MB of RSS.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro.core, repro.embeddings, repro.baselines, repro.eval.experiments
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_package_imports_load_no_scipy():
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "[]", completed.stdout
