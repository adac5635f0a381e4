"""Command-line entry point: run any figure harness through the sweep runner.

Examples
--------
::

    python -m repro.experiments socs --workers 8
    python -m repro.experiments isolation --workers 4 --cache-dir .sweep-cache
    python -m repro.experiments phases --no-cache --full
    python -m repro.experiments socs --shard 2/3          # one slice of the grid
    python -m repro.experiments merge-shards --cache-dir .sweep-cache
    python -m repro.experiments socs --resume             # continue a killed run
    python -m repro.experiments socs --workers 4 --jobs-per-lease 8
    python -m repro.experiments coordinate socs --port 8733
    python -m repro.experiments.sweep worker --coordinator http://host:8733

Every figure runs at a reduced ("quick") scale by default so a laptop run
finishes in minutes; ``--full`` switches to the paper-scale grids.  Results
are cached on disk (``--cache-dir``, default ``.sweep-cache``) keyed by job
fingerprints, so re-running a figure re-simulates only the jobs whose
configuration or seed changed; ``--no-cache`` disables the cache entirely.
Cached runs also checkpoint a per-sweep manifest (under
``<cache-dir>/manifests`` unless ``--manifest-dir`` overrides it), which is
what ``--resume``, ``--shard i/N``, and ``merge-shards`` build on — see
``docs/execution.md`` for the full contract.

Two subcommands span machines: ``coordinate`` runs a figure with the
jobs served as HTTP leases instead of executed locally, and ``worker``
pulls and executes leases from a coordinator — see the "Distributed
execution" section of ``docs/execution.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, TextIO

from repro.errors import DocumentError, SweepError
from repro.experiments.sweep.cache import ResultCache
from repro.experiments.sweep.config import RunConfig, add_runner_arguments
from repro.experiments.sweep.merge import (
    discover_shard_manifests,
    fused_results,
    merge_shards,
)
from repro.experiments.sweep.pool import SweepRunner
from repro.experiments.sweep.shard import ShardIncompleteError
from repro.store.io import read_document

#: Figure name -> (description, runner function).  Each runner function
#: takes the parsed arguments plus a SweepRunner and returns a report string.
FigureRunner = Callable[[argparse.Namespace, SweepRunner], str]


def _fig_isolation(args: argparse.Namespace, runner: SweepRunner) -> str:
    from repro.accelerators.library import accelerator_by_name
    from repro.experiments.common import motivation_setup
    from repro.experiments.isolation import run_isolation_experiment
    from repro.experiments.report import report_isolation
    from repro.units import KB, MB

    setup = motivation_setup(line_bytes=256)
    if args.full:
        accelerators, sizes = None, None
    else:
        accelerators = [accelerator_by_name(name) for name in ("FFT", "Sort", "SPMV")]
        sizes = {"Small": 16 * KB, "Medium": 256 * KB, "Large": 2 * MB}
    measurements = run_isolation_experiment(
        setup, accelerators=accelerators, sizes=sizes, runner=runner
    )
    return report_isolation(measurements)


def _fig_parallel(args: argparse.Namespace, runner: SweepRunner) -> str:
    from repro.experiments.parallel import parallel_setup, run_parallel_experiment
    from repro.experiments.report import report_parallel

    counts = (1, 4, 8, 12) if args.full else (1, 4, 12)
    invocations = 4 if args.full else 2
    measurements = run_parallel_experiment(
        parallel_setup(line_bytes=256),
        counts=counts,
        invocations_per_thread=invocations,
        runner=runner,
    )
    return report_parallel(measurements)


def _fig_phases(args: argparse.Namespace, runner: SweepRunner) -> str:
    from repro.experiments.phases import run_phase_analysis
    from repro.experiments.report import report_phases

    result = run_phase_analysis(
        training_iterations=10 if args.full else 3,
        seed=args.seed if args.seed is not None else 7,
        runner=runner,
    )
    return report_phases(result)


def _fig_reward_dse(args: argparse.Namespace, runner: SweepRunner) -> str:
    from repro.experiments.report import report_reward_dse
    from repro.experiments.reward_dse import REWARD_WEIGHTINGS, run_reward_dse

    weightings = REWARD_WEIGHTINGS if args.full else REWARD_WEIGHTINGS[::3]
    result = run_reward_dse(
        weightings=weightings,
        training_iterations=10 if args.full else 3,
        seed=args.seed if args.seed is not None else 13,
        runner=runner,
    )
    return report_reward_dse(result)


def _fig_breakdown(args: argparse.Namespace, runner: SweepRunner) -> str:
    from repro.experiments.breakdown import run_breakdown_experiment
    from repro.experiments.report import report_breakdown

    result = run_breakdown_experiment(
        training_iterations=10 if args.full else 3,
        seed=args.seed if args.seed is not None else 17,
        runner=runner,
    )
    return report_breakdown(result)


def _fig_training(args: argparse.Namespace, runner: SweepRunner) -> str:
    from repro.experiments.report import report_training
    from repro.experiments.training import run_training_study

    budgets = (10, 30, 50) if args.full else (5, 10)
    result = run_training_study(
        budgets=budgets,
        seed=args.seed if args.seed is not None else 23,
        runner=runner,
    )
    return report_training(result)


def _fig_socs(args: argparse.Namespace, runner: SweepRunner) -> str:
    from repro.experiments.report import report_headline, report_socs
    from repro.experiments.socs import FIGURE9_SOC_LABELS, run_soc_comparison
    from repro.experiments.summary import summarize_headline

    labels = (
        FIGURE9_SOC_LABELS
        if args.full
        else ("SoC0-Streaming", "SoC1", "SoC2", "SoC4", "SoC6")
    )
    comparison = run_soc_comparison(
        labels=labels,
        training_iterations=10 if args.full else 4,
        seed=args.seed if args.seed is not None else 29,
        runner=runner,
    )
    summary = summarize_headline(comparison)
    return report_socs(comparison) + "\n\n" + report_headline(summary)


def _fig_overhead(args: argparse.Namespace, runner: SweepRunner) -> str:
    from repro.experiments.overhead import OVERHEAD_FOOTPRINTS, run_overhead_experiment
    from repro.experiments.report import report_overhead

    footprints = OVERHEAD_FOOTPRINTS if args.full else OVERHEAD_FOOTPRINTS[::2]
    measurements = run_overhead_experiment(
        footprints=footprints,
        invocations_per_point=3 if args.full else 2,
        seed=args.seed if args.seed is not None else 31,
        runner=runner,
    )
    return report_overhead(measurements)


FIGURES: Dict[str, FigureRunner] = {
    "isolation": _fig_isolation,
    "parallel": _fig_parallel,
    "phases": _fig_phases,
    "reward_dse": _fig_reward_dse,
    "breakdown": _fig_breakdown,
    "training": _fig_training,
    "socs": _fig_socs,
    "overhead": _fig_overhead,
}


class _StatsRunner(SweepRunner):
    """A SweepRunner that accumulates per-spec execution statistics."""

    def __init__(self, config: RunConfig) -> None:
        super().__init__(config=config)
        self.total_jobs = 0
        self.total_hits = 0
        self.total_executed = 0
        self.total_resumed = 0
        self.total_missing = 0
        self.max_workers_used = 1

    def run(self, spec):
        result = super().run(spec)
        self.total_jobs += len(result) + len(result.missing)
        self.total_hits += result.cache_hits
        self.total_executed += result.executed
        self.total_resumed += result.resumed
        self.total_missing += len(result.missing)
        self.max_workers_used = max(self.max_workers_used, result.workers_used)
        return result


def _add_figure_arguments(parser: argparse.ArgumentParser) -> None:
    """The figure selection and scale flags shared by run and coordinate."""
    parser.add_argument("figure", choices=sorted(FIGURES), help="figure to regenerate")
    parser.add_argument(
        "--seed", type=int, default=None, help="override the figure's default seed"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the paper-scale grid instead of the reduced quick grid",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run a figure harness through the parallel sweep runner.",
    )
    _add_figure_arguments(parser)
    add_runner_arguments(parser)
    return parser


def build_coordinate_parser() -> argparse.ArgumentParser:
    """Parser of the ``coordinate`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments coordinate",
        description="Run a figure with its sweep jobs served as HTTP leases "
        "to remote pull workers instead of executed locally.",
    )
    _add_figure_arguments(parser)
    add_runner_arguments(parser)
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address of the lease server (default: %(default)s)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default: an ephemeral port, printed at startup)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="seconds a worker may hold a lease before it is reissued "
        "(default: %(default)s)",
    )
    return parser


def build_worker_parser() -> argparse.ArgumentParser:
    """Parser of the ``worker`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep worker",
        description="Pull and execute sweep leases from a coordinator; "
        "exits cleanly when the coordinator closes.",
    )
    parser.add_argument(
        "--coordinator",
        required=True,
        metavar="URL",
        help="coordinator base URL, e.g. http://127.0.0.1:8733",
    )
    # The worker is diskless by design: no cache/manifest/shard flags.
    add_runner_arguments(parser, cache=False, manifest=False, shard=False, lease=False)
    parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="idle polling interval (default: %(default)s)",
    )
    parser.add_argument(
        "--grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long to retry before the first successful contact "
        "(default: %(default)s)",
    )
    return parser


def build_merge_parser() -> argparse.ArgumentParser:
    """Parser of the ``merge-shards`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments merge-shards",
        description="Validate shard manifests (disjoint, complete, digest-"
        "consistent) and fuse them into one result set.",
    )
    parser.add_argument(
        "--cache-dir",
        default=".sweep-cache",
        metavar="DIR",
        help="merged result cache holding every shard's payloads "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="directory of the shard manifests (default: <cache-dir>/manifests)",
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="merge only this sweep's manifests (needed when several sweeps "
        "share the manifest directory)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the fused results (payloads included) as JSON",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="FILE",
        help="compare the merged checksums against this committed check "
        "document; non-zero exit on mismatch",
    )
    parser.add_argument(
        "--write-check",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the check document (job count + per-job digests + "
        "checksum) for committing as the CI expectation",
    )
    return parser


def _manifest_dir(args: argparse.Namespace) -> Path:
    """Resolve the manifest directory from ``--manifest-dir``/``--cache-dir``."""
    if args.manifest_dir is not None:
        return Path(args.manifest_dir)
    return Path(args.cache_dir) / "manifests"


def _write_json(path: Path, document: object) -> None:
    """Write ``document`` as indented, key-sorted JSON (parents created)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _main_merge(argv: List[str], out: TextIO) -> int:
    """Entry point of ``merge-shards``; every failure is one line and exit 1."""
    args = build_merge_parser().parse_args(argv)
    try:
        return _merge(args, out)
    except (SweepError, DocumentError, OSError) as exc:
        print(f"merge-shards: {exc}", file=out)
        return 1


def _merge(args: argparse.Namespace, out: TextIO) -> int:
    """Fuse, write and check the shards as ``args`` asks."""
    cache = ResultCache(args.cache_dir)
    manifests = discover_shard_manifests(_manifest_dir(args), spec_name=args.spec)
    report = merge_shards(manifests, cache=cache)
    print(
        f"[merge-shards] spec={report.spec_name} shards={report.shard_count} "
        f"jobs={report.jobs} checksum={report.checksum[:16]}… "
        f"merged_manifest={report.merged_manifest}",
        file=out,
    )
    if args.out is not None:
        _write_json(args.out, fused_results(report, manifests, cache))
        print(f"wrote fused results to {args.out}", file=out)
    if args.write_check is not None:
        _write_json(args.write_check, report.check_document())
        print(f"wrote check document to {args.write_check}", file=out)
    if args.check is not None:
        expected = read_document(args.check)
        if not isinstance(expected, dict):
            raise SweepError(f"check document {args.check} must be a JSON object")
        problems = report.compare(expected)
        if problems:
            print(
                f"determinism check FAILED against {args.check}:", file=out
            )
            for problem in problems:
                print(f"  - {problem}", file=out)
            return 1
        print(
            f"determinism check passed: {report.jobs} job(s) match {args.check}",
            file=out,
        )
    return 0


def _main_worker(argv: List[str], out: TextIO) -> int:
    """Entry point of the ``worker`` subcommand."""
    from repro.experiments.sweep.distributed import run_worker

    args = build_worker_parser().parse_args(argv)
    return run_worker(
        args.coordinator,
        workers=args.workers if args.workers is not None else 1,
        poll=args.poll,
        grace=args.grace,
        out=out,
    )


def _main_coordinate(argv: List[str], out: TextIO) -> int:
    """Entry point of the ``coordinate`` subcommand."""
    from repro.experiments.sweep.distributed import DistributedBackend

    args = build_coordinate_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args)
    except SweepError as exc:
        print(f"error: {exc}", file=out)
        return 2
    backend = DistributedBackend(
        host=args.host,
        port=args.port,
        jobs_per_lease=config.jobs_per_lease,
        lease_timeout=args.lease_timeout,
    )
    try:
        backend.start()
    except SweepError as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(
        f"[coordinate] figure={args.figure} serving leases at {backend.url} "
        f"(lease_timeout={args.lease_timeout:.0f}s, "
        f"jobs_per_lease={config.jobs_per_lease or 1})",
        file=out,
    )
    try:
        return _run_figure(args, config.with_backend(backend), out)
    finally:
        backend.close()


def main(argv: Optional[List[str]] = None, stream: Optional[TextIO] = None) -> int:
    """CLI entry point; returns a process exit code."""
    out = stream if stream is not None else sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "merge-shards":
        return _main_merge(argv[1:], out)
    if argv and argv[0] == "worker":
        return _main_worker(argv[1:], out)
    if argv and argv[0] == "coordinate":
        return _main_coordinate(argv[1:], out)
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args)
    except SweepError as exc:
        print(f"error: {exc}", file=out)
        return 2
    return _run_figure(args, config, out)


def _run_figure(args: argparse.Namespace, config: RunConfig, out: TextIO) -> int:
    """Run one figure harness through ``config`` and print the summary."""
    runner = _StatsRunner(config)

    started = time.perf_counter()
    sharded_out = None
    try:
        report = FIGURES[args.figure](args, runner)
    except ShardIncompleteError as exc:
        # Expected for a sharded run: the harness stopped at the first
        # payload another shard owns.  The executed slice is checkpointed
        # in the cache and manifest; merge-shards fuses the full grid.
        if config.shard is None:
            raise
        report = None
        sharded_out = str(exc)
    elapsed = time.perf_counter() - started

    if report is not None:
        print(report, file=out)
    else:
        print(
            f"[sweep] shard {config.shard.label} of figure {args.figure} "
            "complete; no figure report without the other shards "
            f"({sharded_out})",
            file=out,
        )
    cache_note = "disabled" if config.cache is None else str(config.cache.cache_dir)
    # workers_used can fall short of the request after a serial fallback
    # (no pool support) or when every job was served from the cache.
    print(
        f"\n[sweep] figure={args.figure} jobs={runner.total_jobs} "
        f"executed={runner.total_executed} cache_hits={runner.total_hits} "
        f"resumed={runner.total_resumed} missing={runner.total_missing} "
        f"workers={config.workers} workers_used={runner.max_workers_used} "
        f"cache={cache_note} elapsed={elapsed:.1f}s",
        file=out,
    )
    return 0
