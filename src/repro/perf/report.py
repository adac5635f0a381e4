"""Perf-report serialisation (the ``BENCH_core_hotpaths.json`` format).

A report records one harness run: the scale it ran at, the interpreter it
ran on, and per benchmark the wall-clock time, the deterministic work count
and checksum, and the derived rate.  A report may embed the report of an
earlier revision under ``"before"`` (see ``run --before``), in which case a
``"speedup_vs_before"`` summary is computed — that is how a performance PR
commits its before/after evidence in one reviewable artifact.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ConfigurationError, DocumentError
from repro.store.readers import BENCH_SCHEMA, load_bench_report
from repro.utils.host import host_metadata

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.perf.bench import BenchmarkResult

#: Report format identifier (bump on breaking schema changes); defined
#: with the readers in :mod:`repro.store.readers`.
SCHEMA = BENCH_SCHEMA

#: Conventional location of the committed hot-path baseline.
DEFAULT_REPORT_PATH = Path("benchmarks") / "results" / "BENCH_core_hotpaths.json"


def make_report(
    results: List[BenchmarkResult],
    scale: str,
    before: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the JSON report for one harness run."""
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "scale": scale,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "host": host_metadata(),
        "benchmarks": {result.name: result.to_dict() for result in results},
    }
    if before is not None:
        report["before"] = before
        report["speedup_vs_before"] = speedup_summary(before, report)
    return report


def speedup_summary(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, float]:
    """Per-benchmark rate ratio ``after / before`` (>1 means faster)."""
    speedups: Dict[str, float] = {}
    old = before.get("benchmarks", {})
    new = after.get("benchmarks", {})
    for name, entry in new.items():
        old_entry = old.get(name)
        if not old_entry:
            continue
        old_rate = float(old_entry.get("rate", 0.0))
        new_rate = float(entry.get("rate", 0.0))
        if old_rate > 0:
            speedups[name] = round(new_rate / old_rate, 3)
    return speedups


def write_report(report: Dict[str, object], path: Path) -> None:
    """Write a report to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path: Path) -> Dict[str, object]:
    """Load and validate a report written by :func:`write_report`.

    Reads through :func:`repro.store.readers.load_bench_report` — the
    shared document layer — and maps its failures to the perf CLI's
    :class:`~repro.errors.ConfigurationError` with identical messages.
    """
    try:
        return load_bench_report(path)
    except DocumentError as exc:
        raise ConfigurationError(str(exc)) from None
