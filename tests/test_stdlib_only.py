"""The program runs on the Python standard library alone.

numpy, pytest and hypothesis are test dependencies: importing the package
or any of its command-line entry points must not load numpy, which would
cost every process about 14 MB and a tenth of a second at start-up.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The package and every module a ``python -m`` entry point runs.
ENTRY_MODULES = (
    "repro",
    "repro.serving.cli",
    "repro.scenarios.cli",
    "repro.models.cli",
    "repro.tracking.cli",
    "repro.perf.cli",
    "repro.experiments.sweep.cli",
    "repro.experiments.sweep.distributed.worker",
)


def test_no_entry_point_imports_numpy():
    script = (
        "import importlib, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
