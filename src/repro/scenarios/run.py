"""Execute scenarios through the sweep runner (one job per policy).

:func:`run_scenario` turns a scenario into a
:class:`~repro.experiments.sweep.SweepSpec` with one job per policy kind
and dispatches it through :func:`~repro.experiments.sweep.run_spec`, so
scenario runs inherit everything the sweep subsystem provides: parallel
workers, the on-disk result cache, and the fingerprint-derived seeding
contract.  Job parameters are primitives only (scenario name or file path,
policy kind, seed, iteration count), so fingerprints are stable across
processes and cache hits survive interpreter restarts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.common import (
    REFERENCE_POLICY,
    PolicyEvaluation,
    evaluate_one_policy,
    make_standard_policies,
)
from repro.experiments.sweep import Job, SweepRunner, SweepSpec, run_spec
from repro.experiments.sweep.sweep import canonical_json
from repro.scenarios.scenario import Scenario
from repro.utils.stats import geometric_mean
from repro.utils.tables import format_table


def resolve_scenario(
    name: str,
    source: Optional[str] = None,
    generated: Optional[Dict[str, object]] = None,
) -> Scenario:
    """Find the scenario a sweep job refers to.

    File-based scenarios are re-loaded from their source path and
    procedurally generated scenarios are re-generated from their
    ``generated`` parameters (the spec mapping plus index stamped into
    scenario metadata by :mod:`repro.scenarios.generate`), so worker
    processes never depend on the parent's registry state; registered
    scenarios are looked up by name after discovery.  Also used by the
    :mod:`repro.models` training jobs, which resolve scenarios the same
    way inside worker processes.
    """
    if generated is not None:
        from repro.scenarios.generate import scenario_from_generated

        scenario = scenario_from_generated(generated)
        if scenario.name != name:
            raise ConfigurationError(
                f"generated-scenario parameters produce {scenario.name!r}, "
                f"expected {name!r}"
            )
        return scenario
    if source is not None:
        from repro.scenarios.loader import load_scenario_file

        scenario = load_scenario_file(source)
        if scenario.name != name:
            raise ConfigurationError(
                f"scenario file {source} defines {scenario.name!r}, expected {name!r}"
            )
        return scenario
    from repro.scenarios.registry import get_scenario

    return get_scenario(name)


def scenario_definition_digest(scenario: Scenario, seed: Optional[int] = None) -> str:
    """Content digest of what the scenario materializes at ``seed``.

    Covers the SoC configuration, the accelerator binding, and the
    training/testing application pair — everything (besides the policy and
    the training budget, which are separate job parameters) that
    determines a scenario evaluation's result.  Embedding this digest in
    the sweep-job parameters makes job fingerprints sensitive to scenario
    *content*: editing a scenario file or a builtin definition misses the
    cache instead of silently reusing a stale payload.
    """
    setup = scenario.build_setup(seed=seed)
    training_app, test_app = scenario.applications(setup, seed=seed)
    text = canonical_json(
        {
            "config": setup.soc_config,
            "accelerators": list(setup.accelerators),
            "training_app": training_app,
            "test_app": test_app,
        }
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def evaluate_scenario_policy(
    scenario: Scenario,
    policy_kind: str,
    seed: Optional[int] = None,
    training_iterations: Optional[int] = None,
    pretrained: Optional[object] = None,
    max_events: Optional[int] = None,
) -> PolicyEvaluation:
    """Evaluate one policy kind on ``scenario`` in the current process.

    Builds the setup and the (training, testing) application pair, trains
    learning policies for ``training_iterations`` runs, and evaluates on
    the testing instance.  The profiled ``fixed-hetero`` baseline runs its
    isolation profiling pass first, exactly as the figure harnesses do.

    With ``pretrained`` (a :class:`repro.models.PolicyArtifact`) and
    ``policy_kind='cohmeleon'``, online training is skipped entirely: the
    artifact's frozen policy — Q-table, hyper-parameters, and the exact
    RNG position it froze with — is evaluated as-is on the testing
    instance (the warm-start contract; see ``docs/models.md``).

    ``max_events`` bounds every simulated phase's event budget — the
    per-request bound of the :mod:`repro.serving` what-if path; exceeding
    it raises :class:`~repro.errors.SimulationError`.
    """
    seed = scenario.default_seed if seed is None else seed
    iterations = (
        scenario.training_iterations if training_iterations is None else training_iterations
    )
    setup = scenario.build_setup(seed=seed)
    training_app, test_app = scenario.applications(setup, seed=seed)
    if pretrained is not None:
        if policy_kind != "cohmeleon":
            raise ConfigurationError(
                f"pretrained artifacts apply to the 'cohmeleon' policy, not {policy_kind!r}"
            )
        policy = pretrained.build_policy()  # type: ignore[attr-defined]
        return evaluate_one_policy(
            setup=setup,
            policy=policy,
            test_app=test_app,
            training_app=None,
            training_iterations=0,
            policy_name=policy_kind,
            max_events=max_events,
        )
    hetero = None
    if policy_kind == "fixed-hetero":
        from repro.experiments.isolation import fixed_hetero_modes

        hetero = fixed_hetero_modes(setup)
    policies = make_standard_policies([policy_kind], seed, fixed_hetero_modes=hetero)
    return evaluate_one_policy(
        setup=setup,
        policy=policies[policy_kind],
        test_app=test_app,
        training_app=training_app,
        training_iterations=iterations,
        policy_name=policy_kind,
        max_events=max_events,
    )


def _scenario_policy_job(params: Dict[str, object], rng) -> Dict[str, object]:
    """Sweep job: one (scenario, policy) evaluation (see :func:`run_scenario`).

    When the job carries ``pretrained``/``pretrained_digest`` parameters,
    the artifact is re-loaded from its path inside the worker and
    digest-verified against the fingerprinted digest before use — the
    digest gate holds even when the file changed between scheduling and
    execution.
    """
    scenario = resolve_scenario(
        str(params["scenario"]),
        params.get("source"),  # type: ignore[arg-type]
        params.get("generated"),  # type: ignore[arg-type]
    )
    pretrained = None
    if params.get("_pretrained_path") is not None:
        from repro.models.artifact import load_artifact

        pretrained = load_artifact(
            str(params["_pretrained_path"]),
            expected_digest=str(params["pretrained_digest"]),
        )
    max_events = params.get("max_events")
    evaluation = evaluate_scenario_policy(
        scenario,
        policy_kind=str(params["policy_kind"]),
        seed=int(params["seed"]),  # type: ignore[arg-type]
        training_iterations=int(params["training_iterations"]),  # type: ignore[arg-type]
        pretrained=pretrained,
        max_events=None if max_events is None else int(max_events),  # type: ignore[arg-type]
    )
    return evaluation.to_dict()


def scenario_job_params(
    scenario: Scenario,
    policy_kind: str,
    seed: int,
    training_iterations: int,
    definition: Optional[str] = None,
    pretrained: Optional[object] = None,
    max_events: Optional[int] = None,
) -> Dict[str, object]:
    """Build the parameter mapping for one (scenario, policy) sweep job.

    This is the single definition of the job-parameter schema
    :func:`_scenario_policy_job` consumes — :func:`run_scenario` and the
    transfer-matrix builder (:func:`repro.models.transfer_matrix`) both
    construct jobs through it so their fingerprints agree and cache
    entries are shared.  Parameters are primitives only; procedurally
    generated scenarios contribute their ``generated`` metadata (spec
    mapping + index) so worker processes can regenerate them without a
    registry or a file on disk.
    """
    if definition is None:
        definition = scenario_definition_digest(scenario, seed=seed)
    params: Dict[str, object] = {
        "scenario": scenario.name,
        "source": scenario.source,
        "definition": definition,
        "policy_kind": policy_kind,
        "seed": seed,
        "training_iterations": training_iterations,
    }
    if scenario.source is None and "generated" in scenario.metadata:
        params["generated"] = scenario.metadata["generated"]
    if max_events is not None:
        # A bounded run simulates different work than an unbounded one, so
        # the budget joins the fingerprint.  It is only added when set,
        # keeping every pre-existing (unbounded) fingerprint — and its
        # cache entries — byte-identical.
        params["max_events"] = int(max_events)
    if pretrained is not None and policy_kind == "cohmeleon":
        # The artifact digest joins the fingerprint (cache correctness:
        # two different tables can never share a payload) and training
        # is pinned to zero so the same frozen evaluation fingerprints
        # identically regardless of the surrounding training budget.
        # The load path is transport-only (underscore prefix): the
        # digest alone is the artifact's identity, so renaming or
        # relocating the registry never misses the cache.
        params.update(
            {
                "training_iterations": 0,
                "pretrained_digest": pretrained.digest,  # type: ignore[attr-defined]
                "_pretrained_path": str(pretrained.source),  # type: ignore[attr-defined]
            }
        )
    return params


@dataclass
class ScenarioRunResult:
    """Outcome of one scenario run across its policy comparison."""

    scenario_name: str
    seed: int
    #: Per-policy evaluations, in policy order.
    evaluations: Dict[str, PolicyEvaluation]
    #: Jobs served from the result cache vs. actually executed.
    cache_hits: int = 0
    executed: int = 0
    #: Jobs skipped via a resumed sweep manifest (digest-verified).
    resumed: int = 0
    workers_used: int = 1
    #: Policy the normalized columns are relative to.
    reference_policy: str = REFERENCE_POLICY
    #: Digest of the pretrained artifact the cohmeleon job evaluated, if any.
    pretrained_digest: Optional[str] = None

    def normalized(self) -> Dict[str, Dict[str, float]]:
        """Per policy, geomean execution time and off-chip accesses normalized
        to the reference policy (1.0 = parity; absent reference -> raw sums).
        """
        reference = self.evaluations.get(self.reference_policy)
        table: Dict[str, Dict[str, float]] = {}
        for name, evaluation in self.evaluations.items():
            if reference is None:
                table[name] = {
                    "exec": evaluation.result.total_execution_cycles,
                    "mem": float(evaluation.result.total_ddr_accesses),
                }
                continue
            table[name] = {
                "exec": _geomean_ratio(
                    evaluation.per_phase_exec, reference.per_phase_exec
                ),
                "mem": _geomean_ratio(evaluation.per_phase_ddr, reference.per_phase_ddr),
            }
        return table

    def report(self) -> str:
        """Render the run as the standard policy-comparison table."""
        normalized = self.normalized()
        rows: List[List[object]] = []
        for name, evaluation in self.evaluations.items():
            entry = normalized[name]
            rows.append(
                [
                    name,
                    f"{evaluation.result.total_execution_cycles:,.0f}",
                    f"{entry['exec']:.3f}",
                    evaluation.result.total_ddr_accesses,
                    f"{entry['mem']:.3f}",
                ]
            )
        pretrained_note = (
            f", pretrained {self.pretrained_digest[:12]}"
            if self.pretrained_digest
            else ""
        )
        return format_table(
            [
                "policy",
                "execution cycles",
                "norm exec",
                "off-chip accesses",
                "norm mem",
            ],
            rows,
            title=f"Scenario {self.scenario_name} (seed {self.seed}, "
            f"normalized to {self.reference_policy}{pretrained_note})",
        )


def _geomean_ratio(values: Dict[str, float], reference: Dict[str, float]) -> float:
    """Geometric mean of per-phase ratios against a reference (socs.py idiom)."""
    ratios = []
    for phase_name, reference_value in reference.items():
        value = values.get(phase_name, 0.0)
        if reference_value > 0:
            ratios.append(value / reference_value)
        elif value == 0:
            ratios.append(1.0)
    return geometric_mean(ratios) if ratios else 0.0


def run_scenario(
    scenario: Scenario,
    policy_kinds: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    training_iterations: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
    pretrained: Optional[object] = None,
    max_events: Optional[int] = None,
) -> ScenarioRunResult:
    """Run ``scenario``'s policy comparison through the sweep runner.

    Parameters
    ----------
    scenario:
        The scenario to run (from the registry or a loaded file).
    policy_kinds:
        Policies to compare; defaults to the scenario's ``policy_kinds``.
    seed:
        Root seed; defaults to the scenario's ``default_seed``.
    training_iterations:
        Online-training budget for learning policies; defaults to the
        scenario's ``training_iterations``.
    runner:
        A configured :class:`SweepRunner` (workers + cache); ``None`` runs
        serially without a cache.
    pretrained:
        A saved :class:`repro.models.PolicyArtifact`: the ``cohmeleon``
        job evaluates this frozen pretrained table instead of retraining.
        The artifact must have been saved to disk (workers re-load it from
        its path) and its digest becomes part of the job fingerprint, so
        the result cache distinguishes every table evaluated.
    max_events:
        Per-phase event budget for every job (``None`` = unbounded); a
        bounded run fingerprints differently from an unbounded one.

    Returns
    -------
    ScenarioRunResult
        Per-policy evaluations plus cache/executed statistics from the
        sweep, with helpers to normalize and render the comparison.
    """
    kinds = tuple(policy_kinds if policy_kinds is not None else scenario.policy_kinds)
    if not kinds:
        raise ConfigurationError(f"scenario {scenario.name}: no policies to run")
    if pretrained is not None:
        if "cohmeleon" not in kinds:
            raise ConfigurationError(
                f"scenario {scenario.name}: a pretrained artifact was given but "
                "'cohmeleon' is not among the policies to run"
            )
        if getattr(pretrained, "source", None) is None:
            raise ConfigurationError(
                "the pretrained artifact has no on-disk source; save it to a "
                "registry first so sweep workers can re-load it"
            )
    run_seed = scenario.default_seed if seed is None else seed
    iterations = (
        scenario.training_iterations if training_iterations is None else training_iterations
    )
    # The digest ties the fingerprint to the materialized content, so a
    # cached payload can never outlive an edit to the scenario definition.
    definition = scenario_definition_digest(scenario, seed=run_seed)
    jobs = []
    for kind in kinds:
        params = scenario_job_params(
            scenario,
            policy_kind=kind,
            seed=run_seed,
            training_iterations=iterations,
            definition=definition,
            pretrained=pretrained,
            max_events=max_events,
        )
        jobs.append(Job(key=kind, fn=_scenario_policy_job, params=params, seed=run_seed))
    spec = SweepSpec(name=f"scenario-{scenario.name}", jobs=jobs)
    outcome = run_spec(spec, runner)
    evaluations = {
        kind: PolicyEvaluation.from_dict(outcome[kind]) for kind in kinds
    }
    reference = REFERENCE_POLICY if REFERENCE_POLICY in evaluations else kinds[0]
    return ScenarioRunResult(
        scenario_name=scenario.name,
        seed=run_seed,
        evaluations=evaluations,
        cache_hits=outcome.cache_hits,
        executed=outcome.executed,
        resumed=outcome.resumed,
        workers_used=outcome.workers_used,
        reference_policy=reference,
        pretrained_digest=None if pretrained is None else pretrained.digest,  # type: ignore[attr-defined]
    )
