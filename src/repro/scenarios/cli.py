"""``python -m repro.scenarios`` — list, describe, and run scenarios.

Examples
--------
::

    python -m repro.scenarios list
    python -m repro.scenarios list --markdown --tag frontier
    python -m repro.scenarios describe multi-tenant-inference
    python -m repro.scenarios run quickstart --workers 4
    python -m repro.scenarios run soc5-autonomous --policies all
    python -m repro.scenarios run my-scenario.toml --no-cache
    python -m repro.scenarios run quickstart --pretrained qs-demo
    python -m repro.scenarios generate --spec fleet.toml --count 100 --validate
    python -m repro.scenarios matrix --all-models --spec fleet.toml --count 8
    python -m repro.scenarios gallery --check

``run`` accepts a registered scenario name or a path to a ``.toml`` /
``.json`` scenario file and dispatches one sweep job per policy through
the same runner/cache machinery as ``python -m repro.experiments``; a
rerun with an unchanged configuration is served entirely from the cache.
``generate`` samples scenarios from a declarative generation spec (see
``docs/generation.md``) and ``matrix`` evaluates saved trained-policy
models across a scenario fleet into a robustness/transfer matrix.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import List, Optional, TextIO

from repro.cli import positive_int, run_command
from repro.errors import ConfigurationError
from repro.experiments.common import STANDARD_POLICY_KINDS
from repro.experiments.sweep.config import add_runner_arguments
from repro.experiments.sweep.pool import SweepRunner
from repro.experiments.sweep.shard import ShardIncompleteError
from repro.scenarios.registry import all_scenarios, load_scenario_target
from repro.utils.tables import format_table


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro.scenarios`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="List, describe, and run registered workload scenarios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list registered scenarios")
    list_parser.add_argument(
        "--markdown", action="store_true", help="emit a markdown table"
    )
    list_parser.add_argument("--tag", default=None, help="only scenarios with this tag")
    list_parser.add_argument(
        "--category", default=None, help="only scenarios in this category"
    )
    list_parser.set_defaults(run=_cmd_list)

    describe_parser = commands.add_parser(
        "describe", help="show one scenario's materialized configuration"
    )
    describe_parser.add_argument("name", help="scenario name or scenario-file path")
    describe_parser.add_argument(
        "--seed", type=int, default=None, help="materialize with this seed"
    )
    describe_parser.add_argument(
        "--json", action="store_true", dest="as_json", help="emit JSON"
    )
    describe_parser.set_defaults(run=_cmd_describe)

    run_parser = commands.add_parser(
        "run", help="run a scenario's policy comparison through the sweep runner"
    )
    run_parser.add_argument("name", help="scenario name or scenario-file path")
    add_runner_arguments(run_parser)
    run_parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario's default seed"
    )
    run_parser.add_argument(
        "--training-iterations",
        type=int,
        default=None,
        metavar="N",
        help="override the scenario's training budget",
    )
    run_parser.add_argument(
        "--policies",
        default=None,
        metavar="KINDS",
        help="comma-separated policy kinds, or 'all' for the full standard set",
    )
    run_parser.add_argument(
        "--pretrained",
        default=None,
        metavar="MODEL",
        help="evaluate this trained-policy artifact (a registry name or an "
        "artifact-file path) frozen for the cohmeleon policy instead of "
        "retraining (see python -m repro.models)",
    )
    run_parser.add_argument(
        "--models-dir",
        default=None,
        metavar="DIR",
        help="model registry directory used by --pretrained "
        "(default: $REPRO_MODELS_DIR or .repro-models)",
    )
    run_parser.set_defaults(run=_cmd_run)

    generate_parser = commands.add_parser(
        "generate",
        help="procedurally generate scenarios from a declarative spec",
    )
    generate_parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="generation spec (.toml/.json; default: the built-in default spec)",
    )
    generate_parser.add_argument(
        "--count",
        type=positive_int,
        default=None,
        metavar="N",
        help="override the spec's scenario count",
    )
    generate_parser.add_argument(
        "--seed", type=int, default=None, help="override the spec's base seed"
    )
    generate_parser.add_argument(
        "--prefix",
        default=None,
        metavar="NAME",
        help="override the spec's scenario-name prefix",
    )
    generate_parser.add_argument(
        "--validate",
        action="store_true",
        help="additionally assemble each scenario's SoC and applications",
    )
    generate_parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write one scenario file per generated scenario into DIR",
    )
    generate_parser.add_argument(
        "--format",
        choices=("toml", "json"),
        default="toml",
        help="scenario-file format for --out (default: %(default)s)",
    )
    generate_parser.add_argument(
        "--digests",
        default=None,
        metavar="FILE",
        help="write the (spec digest, per-scenario digests) manifest as JSON",
    )
    generate_parser.set_defaults(run=_cmd_generate)

    matrix_parser = commands.add_parser(
        "matrix",
        help="evaluate saved models across a scenario fleet "
        "(robustness/transfer matrix)",
    )
    matrix_parser.add_argument(
        "--models",
        default=None,
        metavar="NAMES",
        help="comma-separated model-registry names (or artifact-file paths)",
    )
    matrix_parser.add_argument(
        "--all-models",
        action="store_true",
        help="evaluate every model in the registry",
    )
    matrix_parser.add_argument(
        "--models-dir",
        default=None,
        metavar="DIR",
        help="model registry directory (default: $REPRO_MODELS_DIR or .repro-models)",
    )
    matrix_parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="a scenario name or scenario-file path (repeatable)",
    )
    matrix_parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="also evaluate on scenarios generated from this spec",
    )
    matrix_parser.add_argument(
        "--count",
        type=positive_int,
        default=None,
        metavar="N",
        help="override the generation spec's scenario count",
    )
    matrix_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed for every cell (default: each scenario's own seed)",
    )
    matrix_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the matrix document as canonical JSON",
    )
    add_runner_arguments(matrix_parser)
    matrix_parser.set_defaults(run=_cmd_matrix)

    gallery_parser = commands.add_parser(
        "gallery", help="regenerate the README/docs scenario gallery"
    )
    gallery_parser.add_argument(
        "--check",
        action="store_true",
        help="verify the generated files are up to date instead of writing",
    )
    gallery_parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="repository root (default: autodetected from this file)",
    )
    gallery_parser.set_defaults(run=_cmd_gallery)
    return parser


def _cmd_list(args: argparse.Namespace, out: TextIO) -> int:
    scenarios = all_scenarios()
    if args.tag:
        scenarios = [s for s in scenarios if args.tag in s.tags]
    if args.category:
        scenarios = [s for s in scenarios if s.category == args.category]
    if args.markdown:
        from repro.scenarios.gallery import gallery_table

        print(gallery_table(scenarios), file=out)
        return 0
    rows = [scenario.summary_row() for scenario in scenarios]
    print(
        format_table(
            ["scenario", "category", "SoC", "tiles", "NoC", "policies", "title"],
            rows,
            title=f"Registered scenarios ({len(rows)})",
        ),
        file=out,
    )
    return 0


def _cmd_describe(args: argparse.Namespace, out: TextIO) -> int:
    scenario = load_scenario_target(args.name)
    description = scenario.describe(seed=args.seed)
    if args.as_json:
        print(json.dumps(description, indent=2, sort_keys=True), file=out)
        return 0
    print(f"{description['name']} — {description['title']}", file=out)
    print(f"category: {description['category']}  tags: {', '.join(description['tags']) or '-'}", file=out)
    if scenario.source:
        print(f"source: {scenario.source}", file=out)
    print(file=out)
    print(description["description"], file=out)
    print(file=out)
    soc = description["soc"]
    print(
        format_table(
            ["parameter", "value"], sorted(soc.items()), title="SoC configuration"
        ),
        file=out,
    )
    print(file=out)
    accelerators = description["accelerators"]
    print(
        format_table(
            ["accelerator", "instances"],
            sorted(accelerators.items()),
            title="Accelerator binding",
        ),
        file=out,
    )
    print(file=out)
    application = description["application"]
    print(
        format_table(
            ["phase", "threads", "invocations", "accelerators"],
            [
                [
                    phase["name"],
                    phase["threads"],
                    phase["invocations"],
                    ", ".join(phase["accelerators"]),
                ]
                for phase in application["phases"]
            ],
            title=f"Test application {application['name']} "
            f"({application['total_invocations']} invocations)",
        ),
        file=out,
    )
    print(file=out)
    print(
        f"policies: {', '.join(description['policies'])}\n"
        f"defaults: seed {description['default_seed']}, "
        f"{description['training_iterations']} training iterations",
        file=out,
    )
    return 0


def _cmd_run(args: argparse.Namespace, out: TextIO) -> int:
    from repro.scenarios.run import run_scenario

    scenario = load_scenario_target(args.name)
    policy_kinds: Optional[List[str]] = None
    if args.policies is not None:
        if args.policies == "all":
            policy_kinds = list(STANDARD_POLICY_KINDS)
        else:
            policy_kinds = [kind for kind in args.policies.split(",") if kind]
    pretrained = None
    if args.pretrained is not None:
        from repro.models.registry import resolve_pretrained

        pretrained = resolve_pretrained(args.pretrained, models_dir=args.models_dir)
    runner = SweepRunner.from_args(args)

    started = time.perf_counter()
    try:
        result = run_scenario(
            scenario,
            policy_kinds=policy_kinds,
            seed=args.seed,
            training_iterations=args.training_iterations,
            runner=runner,
            pretrained=pretrained,
        )
    except ShardIncompleteError as exc:
        # Same contract as python -m repro.experiments --shard: the owned
        # slice is checkpointed; the report needs the sibling shards.
        if runner.config.shard is None:
            raise
        print(
            f"[scenario] shard {runner.config.shard.label} of scenario "
            f"{scenario.name} complete; no report without the other "
            f"shards ({exc})",
            file=out,
        )
        return 0
    elapsed = time.perf_counter() - started

    print(result.report(), file=out)
    cache = runner.config.cache
    cache_note = "disabled" if cache is None else str(cache.cache_dir)
    pretrained_note = (
        "" if pretrained is None else f" pretrained={pretrained.digest[:12]}"
    )
    print(
        f"\n[scenario] name={scenario.name} jobs={len(result.evaluations)} "
        f"executed={result.executed} cache_hits={result.cache_hits} "
        f"resumed={result.resumed} "
        f"workers={runner.config.workers} workers_used={result.workers_used} "
        f"cache={cache_note}{pretrained_note} elapsed={elapsed:.1f}s",
        file=out,
    )
    return 0


def _generation_spec(args: argparse.Namespace):
    """Load the generation spec and apply the CLI overrides."""
    from dataclasses import replace

    from repro.scenarios.generate import GenerationSpec, load_generation_spec

    spec = GenerationSpec() if args.spec is None else load_generation_spec(args.spec)
    overrides = {}
    if args.count is not None:
        overrides["count"] = args.count
    if getattr(args, "seed", None) is not None and args.command == "generate":
        overrides["seed"] = args.seed
    if getattr(args, "prefix", None) is not None:
        overrides["name_prefix"] = args.prefix
    return replace(spec, **overrides) if overrides else spec


def _cmd_generate(args: argparse.Namespace, out: TextIO) -> int:
    from repro.scenarios.generate import (
        document_json,
        document_toml,
        generate_scenarios,
        spec_digest,
    )

    spec = _generation_spec(args)
    # Fail before generating, not after, if an output has no home.
    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    if args.digests is not None:
        Path(args.digests).parent.mkdir(parents=True, exist_ok=True)
    generated = generate_scenarios(spec)
    rows: List[List[object]] = []
    for item in generated:
        # .scenario() runs the full loader validation; --validate goes
        # further and assembles the SoC plus both application instances.
        scenario = item.scenario()
        if args.validate:
            setup = scenario.build_setup()
            scenario.applications(setup)
        soc = item.document["soc"]
        phases = item.document["application"]["phases"]
        rows.append(
            [
                item.index,
                item.name,
                f"{soc['noc_rows']}x{soc['noc_cols']}",
                soc["accelerator_tiles"],
                len(phases),
                "yes" if "non-stationary" in item.document["scenario"]["tags"] else "no",
            ]
        )
    print(
        format_table(
            ["#", "scenario", "NoC", "tiles", "phases", "non-stationary"],
            rows,
            title=f"Generated scenarios (spec {spec_digest(spec)[:12]}, "
            f"seed {spec.seed})",
        ),
        file=out,
    )
    if args.out is not None:
        out_dir = Path(args.out)
        for item in generated:
            render = document_toml if args.format == "toml" else document_json
            path = out_dir / f"{item.name}.{args.format}"
            path.write_text(render(item.document), encoding="utf-8")
        print(f"wrote {len(generated)} scenario files to {out_dir}", file=out)
    if args.digests is not None:
        manifest = {
            "spec": spec_digest(spec),
            "seed": spec.seed,
            "scenarios": [
                {"index": item.index, "name": item.name, "digest": item.digest}
                for item in generated
            ],
        }
        Path(args.digests).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    validated = " validated=yes" if args.validate else ""
    print(
        f"\n[generate] spec={spec_digest(spec)[:12]} count={len(generated)}"
        f"{validated}",
        file=out,
    )
    return 0


def _cmd_matrix(args: argparse.Namespace, out: TextIO) -> int:
    from repro.experiments.report import report_transfer_matrix
    from repro.models import ModelRegistry, transfer_matrix
    from repro.models.registry import resolve_pretrained
    from repro.scenarios.generate import generate_scenarios

    # Flag contradictions, and an --out with no home, fail before any
    # model/scenario loading starts.
    runner = SweepRunner.from_args(args)
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    if args.all_models:
        registry = ModelRegistry(args.models_dir)
        artifacts = registry.load_all()
        if not artifacts:
            raise ConfigurationError(
                f"no models registered under {registry.root}; train one "
                "with python -m repro.models train"
            )
    elif args.models:
        artifacts = [
            resolve_pretrained(name, models_dir=args.models_dir)
            for name in args.models.split(",")
            if name
        ]
    else:
        raise ConfigurationError("matrix needs --models NAMES or --all-models")

    scenarios = [load_scenario_target(name) for name in (args.scenario or [])]
    if args.spec is not None:
        spec = _generation_spec(args)
        scenarios.extend(item.scenario() for item in generate_scenarios(spec))
    if not scenarios:
        raise ConfigurationError("matrix needs --scenario NAME and/or --spec FILE")

    started = time.perf_counter()
    try:
        matrix = transfer_matrix(artifacts, scenarios, runner=runner, seed=args.seed)
    except ShardIncompleteError as exc:
        if runner.config.shard is None:
            raise
        print(
            f"[matrix] shard {runner.config.shard.label} complete; no matrix "
            f"without the other shards ({exc})",
            file=out,
        )
        return 0
    elapsed = time.perf_counter() - started

    print(report_transfer_matrix(matrix), file=out)
    if args.out is not None:
        Path(args.out).write_text(matrix.dumps(), encoding="utf-8")
        print(f"\nwrote matrix document to {args.out}", file=out)
    cache = runner.config.cache
    cache_note = "disabled" if cache is None else str(cache.cache_dir)
    print(
        f"\n[matrix] models={len(artifacts)} scenarios={len(scenarios)} "
        f"cells={len(matrix.cells)} executed={matrix.executed} "
        f"cache_hits={matrix.cache_hits} workers={runner.config.workers} "
        f"workers_used={matrix.workers_used} cache={cache_note} "
        f"elapsed={elapsed:.1f}s",
        file=out,
    )
    return 0


def _cmd_gallery(args: argparse.Namespace, out: TextIO) -> int:
    from repro.scenarios.gallery import sync_gallery

    if args.root is not None:
        root = Path(args.root)
    else:
        root = Path(__file__).resolve().parents[3]
    try:
        stale = sync_gallery(root, check=args.check)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot sync the scenario gallery under {root}: {exc}"
        ) from exc
    if args.check and stale:
        print(
            "stale generated files: "
            + ", ".join(stale)
            + " (run `python -m repro.scenarios gallery`)",
            file=out,
        )
        return 1
    if stale:
        print("updated: " + ", ".join(stale), file=out)
    else:
        print("gallery up to date", file=out)
    return 0


def main(argv: Optional[List[str]] = None, stream: Optional[TextIO] = None) -> int:
    """CLI entry point; returns a process exit code."""
    return run_command(build_parser(), argv, stream)
