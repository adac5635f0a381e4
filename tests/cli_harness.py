"""Run a ``python -m repro.*`` entry point the way a user does, and check
that a failure honours the command-line contract of :mod:`repro.cli`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(module: str, *args: str, env=None) -> subprocess.CompletedProcess:
    """Run ``python -m <module> <args>`` from the repository root."""
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), **(env or {})},
        capture_output=True,
        text=True,
        timeout=300,
    )


def assert_clean_error(completed: subprocess.CompletedProcess, *fragments: str):
    """Exit code 2, one ``error: `` line on stderr holding every fragment,
    no error text on stdout and no traceback anywhere.

    A usage error is argparse's ``<prog>: error: <message>`` line below the
    usage text; any other error is ``error: <message>``.
    """
    output = f"stdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
    assert completed.returncode == 2, f"exit code {completed.returncode}\n{output}"
    assert "Traceback" not in completed.stdout + completed.stderr, output
    assert "error" not in completed.stdout, output
    error_lines = [line for line in completed.stderr.splitlines() if "error: " in line]
    assert len(error_lines) == 1, output
    assert error_lines[0].startswith(("error: ", "python -m repro")), output
    for fragment in fragments:
        assert fragment in error_lines[0], f"{fragment!r} not in {error_lines[0]!r}"
