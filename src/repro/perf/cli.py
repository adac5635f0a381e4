"""Command-line interface of the perf harness.

Subcommands::

    run      run the benchmarks and write a JSON report
    compare  diff two reports with the determinism and rate gates
    profile  run one benchmark under cProfile and print the hot functions

See ``docs/performance.md`` for how these fit the performance contract.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.perf.compare import compare_reports, render_findings
from repro.perf.report import (
    DEFAULT_REPORT_PATH,
    load_report,
    make_report,
    write_report,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.perf.bench import BenchmarkResult

# ``run`` and ``profile`` import the benchmarks (and with them the
# simulator, the sweeps and serving) when they run; ``compare`` needs none.


def _benchmark_name(text: str) -> str:
    """Argparse type of a benchmark name: an unknown name is a usage error."""
    from repro.perf.bench import BENCHMARK_NAMES

    if text not in BENCHMARK_NAMES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(BENCHMARK_NAMES)})"
        )
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Micro-benchmark harness for the simulation-core hot paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmarks and write a JSON report")
    run.add_argument(
        "--quick", action="store_true", help="CI-sized workloads (a few seconds total)"
    )
    run.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_REPORT_PATH,
        help=(
            f"report path (default: {DEFAULT_REPORT_PATH}); an existing report is "
            "only replaced by a run at its scale covering all of its benchmarks, "
            "and its 'slo' block is kept"
        ),
    )
    run.add_argument(
        "--before",
        type=Path,
        default=None,
        help="embed this earlier report and compute per-benchmark speedups",
    )
    run.add_argument(
        "--only",
        action="append",
        type=_benchmark_name,
        default=None,
        metavar="BENCHMARK",
        help="run only this benchmark (repeatable)",
    )

    compare = sub.add_parser("compare", help="diff two reports with a tolerance gate")
    compare.add_argument("old", type=Path, help="baseline report")
    compare.add_argument("new", type=Path, help="candidate report")
    compare.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional rate drop before failing (default 0.2)",
    )
    compare.add_argument(
        "--no-determinism",
        action="store_true",
        help="skip the work/checksum equality gate (timing-only diff)",
    )

    profile = sub.add_parser("profile", help="profile one benchmark with cProfile")
    profile.add_argument("benchmark", type=_benchmark_name)
    profile.add_argument("--quick", action="store_true", help="CI-sized workload")
    profile.add_argument(
        "--sort",
        default="tottime",
        help="tottime, cumulative or ncalls (default: %(default)s)",
    )
    profile.add_argument("--limit", type=int, default=25, help="rows to print")
    return parser


def _replaceable_report(
    path: Path, scale: str, names: Sequence[str]
) -> Optional[Dict[str, object]]:
    """The report at ``path`` (``None`` if absent), if a run may overwrite it.

    An existing report is replaced only by a run at its own scale that
    covers every benchmark it holds, so a quick or partial run can never
    clobber a baseline by accident; ``--out`` writes elsewhere.  Raises
    otherwise.
    """
    if not path.exists():
        return None
    existing = load_report(path)
    if existing.get("scale") != scale:
        raise ConfigurationError(
            f"refusing to overwrite {path}: it holds a {existing.get('scale')}-scale "
            f"report and this run is {scale}-scale (use --out to write elsewhere)"
        )
    omitted = sorted(set(existing["benchmarks"]) - set(names))
    if omitted:
        raise ConfigurationError(
            f"refusing to overwrite {path}: this run omits {', '.join(omitted)}, "
            "which it holds (use --out to write elsewhere)"
        )
    return existing


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.perf.bench import BENCHMARK_NAMES, run_benchmarks

    scale = "quick" if args.quick else "default"
    existing = _replaceable_report(args.out, scale, args.only or BENCHMARK_NAMES)
    before = load_report(args.before) if args.before else None

    def progress(name: str, result: BenchmarkResult) -> None:
        print(
            f"  {name:<16} {result.wall_s:8.3f}s  "
            f"{result.work:>10} {result.unit} ({result.rate:,.1f}/s)"
        )

    print(f"repro.perf run (scale={scale})")
    results = run_benchmarks(names=args.only, quick=args.quick, progress=progress)
    report = make_report(results, scale=scale, before=before)
    if existing is not None and "slo" in existing:
        # The hand-maintained SLO gate rides along with the measurements.
        report["slo"] = existing["slo"]
    write_report(report, args.out)
    print(f"wrote {args.out}")
    speedups = report.get("speedup_vs_before")
    if speedups:
        for name, ratio in sorted(speedups.items()):
            print(f"  speedup vs before: {name:<16} {ratio:.2f}x")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    old = load_report(args.old)
    new = load_report(args.new)
    findings = compare_reports(
        old, new, tolerance=args.tolerance, check_determinism=not args.no_determinism
    )
    print(render_findings(findings))
    failed = [finding for finding in findings if not finding.ok]
    if failed:
        print(f"{len(failed)} benchmark(s) failed the gate")
        return 1
    print("all benchmarks within tolerance")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf.profiling import profile_benchmark

    print(
        profile_benchmark(
            args.benchmark, quick=args.quick, sort=args.sort, limit=args.limit
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.perf``."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_profile(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
