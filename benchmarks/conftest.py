"""Shared helpers for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper's evaluation
and prints the corresponding rows/series (normalised execution time and
off-chip memory accesses).  The reports are also written to
``benchmarks/results/`` so they survive output capturing.

The benchmarks run each experiment exactly once (``benchmark.pedantic`` with
one round): the measured quantity is the wall-clock cost of regenerating
the experiment, and the printed report is the reproduced result itself.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.sweep import (
    ResultCache,
    RunConfig,
    SweepRunner,
    autodetect_workers,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Scale factor hook: setting REPRO_BENCH_SCALE=full runs the heavier,
#: closer-to-paper configurations; the default keeps the whole suite at a
#: few minutes of wall-clock time.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")


def is_full_scale() -> bool:
    """Whether the benchmarks should run at full (paper) scale."""
    return BENCH_SCALE == "full"


def bench_workers() -> int:
    """Worker count for the benchmark sweeps.

    ``REPRO_BENCH_WORKERS=N`` forces N workers; ``REPRO_BENCH_WORKERS=auto``
    autodetects one per CPU.  The default is serial so the measured
    wall-clock stays comparable across machines.
    """
    raw = os.environ.get("REPRO_BENCH_WORKERS", "1")
    if raw == "auto":
        return autodetect_workers()
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@pytest.fixture(scope="session")
def sweep_runner() -> SweepRunner:
    """The sweep runner every figure benchmark dispatches its grid through.

    Set ``REPRO_BENCH_CACHE=<dir>`` to reuse simulated jobs across runs
    (useful when iterating on the report layer only).
    """
    cache_dir = os.environ.get("REPRO_BENCH_CACHE")
    cache = ResultCache(cache_dir) if cache_dir else None
    return SweepRunner(config=RunConfig(workers=bench_workers(), cache=cache))


@pytest.fixture(scope="session", autouse=True)
def _results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(capsys, _results_dir):
    """Return a function that prints a report and archives it to a file."""

    def _emit(name: str, text: str) -> None:
        with capsys.disabled():
            print()
            print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
