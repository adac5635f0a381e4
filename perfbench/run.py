"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9 [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload untraced and traced, and reports the
per-layer metrics of the traced part plus ``trace.overhead_ratio``.
Every run checks the program's outputs.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
host metadata included, is written to a new file under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import SRC, WORK_DIR, Outcome, load_workloads

WORKLOADS = ("fig9", "dsp_stream", "serve_decide", "sweep_fanout")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if name in ("fig9", "dsp_stream"):
        import simulate

        config = load_workloads()[name]
        return (simulate.run_traced if trace else simulate.run)(name, config, seed, seconds)
    if name == "serve_decide":
        import serve as module
    else:
        import sweep as module
    return (module.run_traced if trace else module.run)(seed, seconds)


def write_record(args: argparse.Namespace, seed: int, outcome: Outcome) -> str:
    """Write the full result to a file name no earlier run has used."""
    from repro.utils.host import host_metadata

    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / f"{args.workload}-seed{seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in outcome.metrics.items()},
        "details": outcome.details,
    }
    with open(path, "x") as handle:  # "x": never overwrite an earlier result
        json.dump(record, handle, indent=2, sort_keys=True, default=str)
    return str(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        print(f"error: --seconds must be positive, not {args.seconds}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    seed = args.seed if args.seed is not None else load_workloads()[args.workload]["default_seed"]
    outcome = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    path = write_record(args, seed, outcome)

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  record {path}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    for name, value in outcome.details.items():
        if isinstance(value, (int, float, str)):
            print(f"  {name:<42} {value}")
    for name, held in outcome.checks.items():
        print(f"  check {name}: {'ok' if held else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
