"""Importing the package loads nothing it does not use.

SciPy is needed only by the FIR kernels (``repro.ops.kernels.fir_filter_kernel``
and the NumLib baseline's ``passfilter``), which import it when called.  A
fresh interpreter that imports the modules a serving process or the
benchmark loads must not have ``scipy`` in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The modules ``perf/run.py`` imports to time ``import repro``.
MODULES = ("repro", "repro.lang", "repro.ingest", "repro.ops", "repro.pipelines.e2e")


def test_import_does_not_load_scipy():
    script = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert completed.stdout.strip() == "[]", completed.stdout
