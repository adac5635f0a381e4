"""``python -m repro.serving`` — run and load-test the policy server.

Examples
--------
::

    python -m repro.serving serve qs-demo
    python -m repro.serving serve qs-demo --port 8123 --reload-interval 0.5
    python -m repro.serving loadtest --port 8123 --clients 8 --requests 50
    python -m repro.serving loadtest --port 8123 \\
        --slo benchmarks/results/BENCH_serving.json --scale quick \\
        --out latency-report.json

``serve`` loads a registered model and serves it until interrupted
(hot-reloading when the registry file's digest changes); ``loadtest``
drives a running server with deterministic seeded traffic, prints the
latency/throughput summary, and — given ``--slo`` — exits non-zero on any
SLO violation, which is how CI gates serving regressions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import List, Optional, TextIO

from repro.errors import DocumentError, ReproError, ServingError
from repro.store.io import read_document
from repro.models.registry import DEFAULT_MODELS_DIR, ModelRegistry
from repro.serving.http import ServingServer
from repro.serving.loadtest import check_slo, run_load, slo_for_scale
from repro.serving.service import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WHATIF_MAX_EVENTS,
    PolicyService,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro.serving`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Serve trained-policy decisions over JSON/HTTP.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve_parser = commands.add_parser(
        "serve", help="serve a registered model until interrupted"
    )
    serve_parser.add_argument("model", help="registered model name to serve")
    serve_parser.add_argument(
        "--models-dir",
        default=None,
        metavar="DIR",
        help=f"model registry directory (default: $REPRO_MODELS_DIR or {DEFAULT_MODELS_DIR})",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default: an ephemeral port, printed at startup)",
    )
    serve_parser.add_argument(
        "--reload-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="hot-reload poll interval; 0 disables polling (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--whatif-max-events",
        type=_positive_int,
        default=DEFAULT_WHATIF_MAX_EVENTS,
        metavar="N",
        help="per-request event-budget cap of what-if simulations (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=_positive_int,
        default=DEFAULT_MAX_BATCH,
        metavar="N",
        help="largest accepted decision batch (default: %(default)s)",
    )

    load_parser = commands.add_parser(
        "loadtest", help="drive a running server with deterministic load"
    )
    load_parser.add_argument(
        "--host", default="127.0.0.1", help="server address (default: %(default)s)"
    )
    load_parser.add_argument(
        "--port", type=int, required=True, help="server port (required)"
    )
    load_parser.add_argument(
        "--clients", type=_positive_int, default=8, help="concurrent connections"
    )
    load_parser.add_argument(
        "--requests",
        type=_positive_int,
        default=50,
        help="decision requests per client",
    )
    load_parser.add_argument(
        "--batch", type=_positive_int, default=64, help="states per request"
    )
    load_parser.add_argument(
        "--seed", type=int, default=17, help="root seed of the load streams"
    )
    load_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the full JSON load report here",
    )
    load_parser.add_argument(
        "--slo",
        default=None,
        metavar="FILE",
        help="serving benchmark baseline holding the SLO block "
        "(e.g. benchmarks/results/BENCH_serving.json)",
    )
    load_parser.add_argument(
        "--scale",
        choices=("quick", "default"),
        default="quick",
        help="which SLO block of the baseline to enforce (default: %(default)s)",
    )
    return parser


def run_serve(
    model: str,
    models_dir: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    reload_interval: float = 1.0,
    whatif_max_events: int = DEFAULT_WHATIF_MAX_EVENTS,
    max_batch: int = DEFAULT_MAX_BATCH,
    out: Optional[TextIO] = None,
) -> int:
    """Load ``model`` and serve it until interrupted; returns an exit code.

    This is ``python -m repro.serving serve``.
    """
    stream = out if out is not None else sys.stdout
    service = PolicyService(
        ModelRegistry(models_dir),
        model,
        whatif_max_events=whatif_max_events,
        max_batch=max_batch,
    )
    server = ServingServer(
        service, host=host, port=port, reload_interval=reload_interval
    )

    async def _serve() -> None:
        await server.start()
        snapshot = service.model
        print(
            f"serving model {snapshot.name!r} (digest {snapshot.digest[:12]}…, "
            f"scenario {snapshot.artifact.scenario}) on {server.url}",
            file=stream,
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted, shutting down", file=stream)
    return 0


def _cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    return run_serve(
        args.model,
        models_dir=args.models_dir,
        host=args.host,
        port=args.port,
        reload_interval=args.reload_interval,
        whatif_max_events=args.whatif_max_events,
        max_batch=args.max_batch,
        out=out,
    )


def _cmd_loadtest(args: argparse.Namespace, out: TextIO) -> int:
    try:
        report = run_load(
            args.host,
            args.port,
            clients=args.clients,
            requests=args.requests,
            batch=args.batch,
            seed=args.seed,
        )
    except OSError as exc:
        raise ServingError(
            f"cannot reach the server at {args.host}:{args.port}: {exc}"
        ) from exc
    print(
        f"[serving] {report.decisions:,} decisions over {report.duration_s:.2f}s "
        f"({report.decisions_per_s:,.0f}/s) from {report.clients} clients",
        file=out,
    )
    print(
        f"[serving] latency ms: p50={report.latency_ms['p50']:.3f} "
        f"p90={report.latency_ms['p90']:.3f} p99={report.latency_ms['p99']:.3f} "
        f"max={report.latency_ms['max']:.3f}",
        file=out,
    )
    print(
        f"[serving] digests={','.join(d[:12] for d in report.digests)} "
        f"errors={report.error_count}",
        file=out,
    )
    if args.out is not None:
        destination = Path(args.out)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"[serving] report written to {destination}", file=out)
    if args.slo is not None:
        try:
            baseline = read_document(Path(args.slo))
        except DocumentError as exc:
            raise ServingError(f"cannot read SLO baseline {args.slo}: {exc}") from exc
        violations = check_slo(report, slo_for_scale(baseline, args.scale))
        if violations:
            for violation in violations:
                print(f"[serving] SLO VIOLATION: {violation}", file=out)
            return 1
        print(f"[serving] SLO ({args.scale}) satisfied", file=out)
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
}


def main(argv: Optional[List[str]] = None, stream: Optional[TextIO] = None) -> int:
    """CLI entry point; returns a process exit code."""
    out = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
