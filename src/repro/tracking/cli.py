"""``python -m repro.tracking`` — serve and query experiment state.

Examples
--------
::

    python -m repro.tracking serve --manifest-dir .sweep-manifests \\
        --models-dir .repro-models --bench-dir benchmarks/results
    python -m repro.tracking runs --manifest-dir .sweep-manifests
    python -m repro.tracking run quick-0of2 --manifest-dir .sweep-manifests
    python -m repro.tracking models --models-dir .repro-models
    python -m repro.tracking bench --bench-dir benchmarks/results

``serve`` starts the read-only JSON/HTTP tracking API until interrupted;
the other subcommands answer the same questions directly on the local
checkout, printing the identical JSON documents the API would serve —
one implementation (:class:`~repro.tracking.service.TrackingService`),
two transports.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import List, Optional, TextIO

from repro.cli import run_command
from repro.models.registry import DEFAULT_MODELS_DIR
from repro.tracking.http import TrackingServer
from repro.tracking.service import DEFAULT_TOLERANCE, TrackingService


def _add_dir_options(parser: argparse.ArgumentParser) -> None:
    """The shared document-directory options of every subcommand."""
    parser.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="directory of *.manifest.jsonl sweep manifests",
    )
    parser.add_argument(
        "--models-dir",
        default=None,
        metavar="DIR",
        help=f"model registry directory (e.g. {DEFAULT_MODELS_DIR})",
    )
    parser.add_argument(
        "--bench-dir",
        default=None,
        metavar="DIR",
        help="directory of BENCH_*.json perf reports",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="FRACTION",
        help="allowed rate regression before a BENCH point is flagged "
        "(default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro.tracking`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tracking",
        description="Read-only experiment tracking over on-disk documents.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve_parser = commands.add_parser(
        "serve", help="serve the tracking API until interrupted"
    )
    _add_dir_options(serve_parser)
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default: an ephemeral port, printed at startup)",
    )
    serve_parser.set_defaults(run=_cmd_serve)

    runs_parser = commands.add_parser(
        "runs", help="list sweep runs with live progress"
    )
    _add_dir_options(runs_parser)
    runs_parser.set_defaults(run=_cmd_runs)

    run_parser = commands.add_parser(
        "run", help="inspect one sweep run's per-job records"
    )
    run_parser.add_argument("run_id", help="run id (manifest filename stem)")
    _add_dir_options(run_parser)
    run_parser.set_defaults(run=_cmd_run)

    models_parser = commands.add_parser(
        "models", help="list registered models with provenance"
    )
    _add_dir_options(models_parser)
    models_parser.set_defaults(run=_cmd_models)

    bench_parser = commands.add_parser(
        "bench", help="chart the BENCH trajectory with regression flags"
    )
    _add_dir_options(bench_parser)
    bench_parser.set_defaults(run=_cmd_bench)
    return parser


def _service(args: argparse.Namespace) -> TrackingService:
    """Build the service from the shared directory options."""
    return TrackingService(
        manifest_dir=args.manifest_dir,
        models_dir=args.models_dir,
        bench_dir=args.bench_dir,
        tolerance=args.tolerance,
    )


def _print_document(document: object, out: TextIO) -> int:
    """Emit one JSON document exactly as the HTTP API would serialise it."""
    print(json.dumps(document, indent=2, sort_keys=True), file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    service = _service(args)
    server = TrackingServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(f"tracking API on {server.url}", file=out, flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted, shutting down", file=out)
    return 0


def _cmd_runs(args: argparse.Namespace, out: TextIO) -> int:
    return _print_document(_service(args).runs(), out)


def _cmd_run(args: argparse.Namespace, out: TextIO) -> int:
    return _print_document(_service(args).run(args.run_id), out)


def _cmd_models(args: argparse.Namespace, out: TextIO) -> int:
    return _print_document(_service(args).models(), out)


def _cmd_bench(args: argparse.Namespace, out: TextIO) -> int:
    return _print_document(_service(args).bench(), out)


def main(argv: Optional[List[str]] = None, stream: Optional[TextIO] = None) -> int:
    """CLI entry point; returns a process exit code."""
    return run_command(build_parser(), argv, stream)
