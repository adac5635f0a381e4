"""Shared fixture of the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper's evaluation
and prints its report.  The reports are also written to
``benchmarks/results/<name>.txt`` so they survive output capturing; git
tracks them, so a change that moves a report shows in ``git status``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def emit(capsys):
    """Return a function that prints a report and writes it to its file."""

    def _emit(name: str, text: str) -> None:
        with capsys.disabled():
            print()
            print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
