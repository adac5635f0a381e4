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
finishes in minutes; ``--full`` switches to the paper-scale grids.  Both
are defined in the table of :mod:`repro.experiments.figures`, which
``pytest benchmarks`` runs too.  Results are cached on disk
(``--cache-dir``, default ``.sweep-cache``) keyed by job fingerprints, so
re-running a figure re-simulates only the jobs whose configuration or seed
changed; ``--no-cache`` disables the cache entirely.
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
from typing import List, Optional, TextIO

from repro.cli import non_negative_float, positive_float, run_command
from repro.errors import SweepError
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
    # Only run and coordinate load the figure table; worker and
    # merge-shards never name a figure.
    from repro.experiments.figures import FIGURES

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
    """Parser of a figure run, ``python -m repro.experiments FIGURE``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run a figure harness through the parallel sweep runner.",
    )
    _add_figure_arguments(parser)
    add_runner_arguments(parser)
    parser.set_defaults(run=_cmd_figure)
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
        type=positive_float,
        default=60.0,
        metavar="SECONDS",
        help="seconds a worker may hold a lease before it is reissued "
        "(default: %(default)s)",
    )
    parser.set_defaults(run=_cmd_coordinate)
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
        type=non_negative_float,
        default=0.5,
        metavar="SECONDS",
        help="idle polling interval (default: %(default)s)",
    )
    parser.add_argument(
        "--grace",
        type=non_negative_float,
        default=30.0,
        metavar="SECONDS",
        help="how long to retry before the first successful contact "
        "(default: %(default)s)",
    )
    parser.set_defaults(run=_cmd_worker)
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
        "document; exit 1 on mismatch",
    )
    parser.add_argument(
        "--write-check",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the check document (job count + per-job digests + "
        "checksum) for committing as the CI expectation",
    )
    parser.set_defaults(run=_cmd_merge)
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


def _cmd_merge(args: argparse.Namespace, out: TextIO) -> int:
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


def _cmd_worker(args: argparse.Namespace, out: TextIO) -> int:
    """Run the ``worker`` subcommand."""
    from repro.experiments.sweep.distributed import run_worker

    return run_worker(
        args.coordinator,
        workers=args.workers if args.workers is not None else 1,
        poll=args.poll,
        grace=args.grace,
        out=out,
    )


def _cmd_coordinate(args: argparse.Namespace, out: TextIO) -> int:
    """Run the ``coordinate`` subcommand."""
    from repro.experiments.sweep.distributed import DistributedBackend

    config = RunConfig.from_args(args)
    backend = DistributedBackend(
        host=args.host,
        port=args.port,
        jobs_per_lease=config.jobs_per_lease,
        lease_timeout=args.lease_timeout,
    )
    with backend:
        print(
            f"[coordinate] figure={args.figure} serving leases at {backend.url} "
            f"(lease_timeout={args.lease_timeout:.0f}s, "
            f"jobs_per_lease={config.jobs_per_lease or 1})",
            file=out,
        )
        return _run_figure(args, config.with_backend(backend), out)


def _cmd_figure(args: argparse.Namespace, out: TextIO) -> int:
    """Run one figure on this host."""
    return _run_figure(args, RunConfig.from_args(args), out)


#: The subcommands, by the first argument that names them; any other first
#: argument is a figure.
_SUBCOMMANDS = {
    "merge-shards": build_merge_parser,
    "worker": build_worker_parser,
    "coordinate": build_coordinate_parser,
}


def main(argv: Optional[List[str]] = None, stream: Optional[TextIO] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return run_command(_SUBCOMMANDS[argv[0]](), argv[1:], stream)
    return run_command(build_parser(), argv, stream)


def _run_figure(args: argparse.Namespace, config: RunConfig, out: TextIO) -> int:
    """Run one figure harness through ``config`` and print the summary."""
    from repro.experiments.figures import FIGURES

    runner = _StatsRunner(config)

    started = time.perf_counter()
    sharded_out = None
    try:
        _, report = FIGURES[args.figure](args.full, args.seed, runner)
    except ShardIncompleteError as exc:
        if config.shard is None:
            raise
        # Expected for a sharded run: the harness stopped at the first
        # payload another shard owns.  The executed slice is checkpointed
        # in the cache and manifest; merge-shards fuses the full grid.
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
