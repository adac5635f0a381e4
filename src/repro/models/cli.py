"""``python -m repro.models`` — train, inspect, export, and evaluate models.

Examples
--------
::

    python -m repro.models train quickstart --name qs-demo
    python -m repro.models train soc1-mixed-traffic --name soc1 --seed 7
    python -m repro.models list
    python -m repro.models describe qs-demo
    python -m repro.models export qs-demo --out artifact.json
    python -m repro.models eval qs-demo
    python -m repro.models eval soc1 --scenario soc2-mixed-traffic

``train`` accepts a registered scenario name or a ``.toml``/``.json``
scenario-file path and dispatches the training run through the sweep
runner (so a retrain with unchanged inputs is a cache hit).  ``eval``
evaluates a frozen artifact on any scenario — by default the one it was
trained on; pointing it elsewhere is the cross-platform transfer study.
``python -m repro.serving serve`` serves a registered model.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import List, Optional, TextIO

from repro.cli import positive_int, run_command
from repro.errors import ModelError
from repro.experiments.sweep.config import add_runner_arguments
from repro.experiments.sweep.pool import SweepRunner
from repro.models.registry import DEFAULT_MODELS_DIR, ModelRegistry
from repro.utils.tables import format_table


def _add_models_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--models-dir",
        default=None,
        metavar="DIR",
        help=f"model registry directory (default: $REPRO_MODELS_DIR or {DEFAULT_MODELS_DIR})",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro.models`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.models",
        description="Train, inspect, export, and evaluate trained-policy artifacts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train_parser = commands.add_parser(
        "train", help="train a Cohmeleon policy on a scenario and register it"
    )
    train_parser.add_argument("scenario", help="scenario name or scenario-file path")
    train_parser.add_argument(
        "--name",
        default=None,
        metavar="NAME",
        help="registry name for the artifact (default: the scenario name)",
    )
    train_parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario's default seed"
    )
    train_parser.add_argument(
        "--training-iterations",
        type=positive_int,
        default=None,
        metavar="N",
        help="override the scenario's training schedule length",
    )
    train_parser.add_argument(
        "--force", action="store_true", help="overwrite an existing same-named model"
    )
    _add_models_dir(train_parser)
    add_runner_arguments(train_parser)
    train_parser.set_defaults(run=_cmd_train)

    list_parser = commands.add_parser("list", help="list registered models")
    list_parser.add_argument(
        "--json", action="store_true", dest="as_json", help="emit JSON"
    )
    _add_models_dir(list_parser)
    list_parser.set_defaults(run=_cmd_list)

    describe_parser = commands.add_parser(
        "describe", help="show one model's provenance, stats, and digest"
    )
    describe_parser.add_argument("name", help="registered model name")
    describe_parser.add_argument(
        "--json", action="store_true", dest="as_json", help="emit JSON"
    )
    _add_models_dir(describe_parser)
    describe_parser.set_defaults(run=_cmd_describe)

    export_parser = commands.add_parser(
        "export", help="write one model's canonical artifact document to a file"
    )
    export_parser.add_argument("name", help="registered model name")
    export_parser.add_argument(
        "--out",
        default="-",
        metavar="FILE",
        help="destination path ('-' for stdout, the default)",
    )
    _add_models_dir(export_parser)
    export_parser.set_defaults(run=_cmd_export)

    eval_parser = commands.add_parser(
        "eval", help="evaluate a frozen model on a scenario (transfer evaluation)"
    )
    eval_parser.add_argument("name", help="registered model name")
    eval_parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="scenario to evaluate on (default: the model's training scenario)",
    )
    eval_parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario's default seed"
    )
    eval_parser.add_argument(
        "--policies",
        default=None,
        metavar="KINDS",
        help="comma-separated policy kinds to compare against "
        "(default: the scenario's own set; 'cohmeleon' always evaluates the model)",
    )
    _add_models_dir(eval_parser)
    add_runner_arguments(eval_parser)
    eval_parser.set_defaults(run=_cmd_eval)
    return parser


def _cmd_train(args: argparse.Namespace, out: TextIO) -> int:
    from repro.models.train import train_artifact
    from repro.scenarios.registry import load_scenario_target

    scenario = load_scenario_target(args.scenario)
    name = args.name if args.name is not None else scenario.name
    registry = ModelRegistry(args.models_dir)
    # Fail fast: an illegal name, a refused overwrite or a registry
    # directory that cannot be created must surface before the training
    # run, not after it has burned the schedule.
    destination = registry.path_for(name)
    if destination.exists() and not args.force:
        raise ModelError(
            f"model {name!r} already exists at {destination}; pass --force to overwrite"
        )
    runner = SweepRunner.from_args(args)
    try:
        registry.root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ModelError(
            f"cannot write model {name!r} to {destination}: {exc.strerror or exc}"
        ) from exc
    started = time.perf_counter()
    run = train_artifact(
        scenario,
        name=name,
        seed=args.seed,
        training_iterations=args.training_iterations,
        runner=runner,
    )
    elapsed = time.perf_counter() - started
    path = registry.save(run.artifact, replace=args.force)
    provenance = run.artifact.provenance
    print(
        f"trained {name!r} on scenario {provenance['scenario']} "
        f"(seed {provenance['seed']}, "
        f"{provenance['training_iterations']} iterations)",
        file=out,
    )
    print(f"digest: {run.artifact.digest}", file=out)
    print(
        f"saved: {path} "
        f"(executed={run.executed} cache_hits={run.cache_hits} "
        f"elapsed={elapsed:.1f}s)",
        file=out,
    )
    return 0


def _cmd_list(args: argparse.Namespace, out: TextIO) -> int:
    registry = ModelRegistry(args.models_dir)
    artifacts = registry.load_all()
    if args.as_json:
        document = [
            {"name": a.name, "digest": a.digest, **a.provenance, **a.stats}
            for a in artifacts
        ]
        print(json.dumps(document, indent=2, sort_keys=True), file=out)
        return 0
    rows = [artifact.summary_row() for artifact in artifacts]
    print(
        format_table(
            ["model", "scenario", "seed", "iterations", "coverage", "digest"],
            rows,
            title=f"Registered models in {registry.root} ({len(rows)})",
        ),
        file=out,
    )
    return 0


def _cmd_describe(args: argparse.Namespace, out: TextIO) -> int:
    artifact = ModelRegistry(args.models_dir).load(args.name)
    description = {
        "name": artifact.name,
        "digest": artifact.digest,
        "source": artifact.source,
        "provenance": artifact.provenance,
        "stats": artifact.stats,
    }
    if args.as_json:
        print(json.dumps(description, indent=2, sort_keys=True), file=out)
        return 0
    print(f"{artifact.name} — trained on {artifact.scenario}", file=out)
    print(f"digest: {artifact.digest}", file=out)
    print(f"source: {artifact.source}", file=out)
    print(file=out)
    print(
        format_table(
            ["field", "value"],
            sorted((k, v) for k, v in artifact.provenance.items()),
            title="Provenance",
        ),
        file=out,
    )
    print(file=out)
    print(
        format_table(
            ["stat", "value"],
            sorted((k, v) for k, v in artifact.stats.items()),
            title="Training stats",
        ),
        file=out,
    )
    return 0


def _cmd_export(args: argparse.Namespace, out: TextIO) -> int:
    artifact = ModelRegistry(args.models_dir).load(args.name)
    text = artifact.dumps()
    if args.out == "-":
        print(text, file=out)
        return 0
    destination = Path(args.out)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(text + "\n")
    print(f"exported {artifact.name!r} ({artifact.digest[:12]}…) to {destination}", file=out)
    return 0


def _cmd_eval(args: argparse.Namespace, out: TextIO) -> int:
    from repro.scenarios.registry import load_scenario_target
    from repro.scenarios.run import run_scenario

    artifact = ModelRegistry(args.models_dir).load(args.name)
    scenario_name = args.scenario if args.scenario is not None else artifact.scenario
    scenario = load_scenario_target(scenario_name)
    policy_kinds: Optional[List[str]] = None
    if args.policies is not None:
        policy_kinds = [kind for kind in args.policies.split(",") if kind]
    elif "cohmeleon" not in scenario.policy_kinds:
        policy_kinds = list(scenario.policy_kinds) + ["cohmeleon"]
    runner = SweepRunner.from_args(args)
    started = time.perf_counter()
    result = run_scenario(
        scenario,
        policy_kinds=policy_kinds,
        seed=args.seed,
        runner=runner,
        pretrained=artifact,
    )
    elapsed = time.perf_counter() - started
    transfer = (
        "" if scenario.name == artifact.scenario
        else f" (transfer from {artifact.scenario})"
    )
    print(f"evaluating model {artifact.name!r} on {scenario.name}{transfer}", file=out)
    print(result.report(), file=out)
    print(
        f"\n[models] model={artifact.name} digest={artifact.digest[:12]} "
        f"scenario={scenario.name} executed={result.executed} "
        f"cache_hits={result.cache_hits} elapsed={elapsed:.1f}s",
        file=out,
    )
    return 0


def main(argv: Optional[List[str]] = None, stream: Optional[TextIO] = None) -> int:
    """CLI entry point; returns a process exit code."""
    return run_command(build_parser(), argv, stream)
