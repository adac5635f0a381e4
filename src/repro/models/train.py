"""Train Cohmeleon policies into artifacts, through the sweep runner.

Training is dispatched as a single sweep job, so it inherits everything
the PR 1 runner provides: the on-disk result cache (retraining the same
scenario at the same seed and schedule is a cache hit, not a re-run), the
fingerprint-derived seeding contract, and process isolation.  The job's
parameters are primitives plus the scenario-definition digest, so its
fingerprint — and therefore the cached artifact payload — is stable
across interpreter restarts and sensitive to scenario content edits.

The trained state is captured exactly where the figure harnesses freeze
their policies (after :func:`~repro.experiments.common.train_policy` and
``freeze()``), including the agent RNG stream's position, so a frozen
evaluation of the saved artifact is bit-identical to an in-process
train-then-evaluate run of the same scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ModelError
from repro.experiments.common import make_standard_policies, train_policy
from repro.experiments.sweep import Job, SweepRunner, SweepSpec, run_spec
from repro.models.artifact import PolicyArtifact, build_provenance
from repro.scenarios.run import resolve_scenario, scenario_job_params
from repro.scenarios.scenario import Scenario


def _train_policy_job(params: Dict[str, object], rng) -> Dict[str, object]:
    """Sweep job: train one Cohmeleon policy and serialise its state.

    Mirrors the training half of the scenario evaluation path bit for bit
    (same policy seeding, same training application, same freeze point),
    so the artifact this job emits reproduces exactly what an in-process
    train-then-evaluate run would have evaluated.
    """
    scenario = resolve_scenario(
        str(params["scenario"]),
        params.get("source"),  # type: ignore[arg-type]
        params.get("generated"),  # type: ignore[arg-type]
    )
    seed = int(params["seed"])  # type: ignore[arg-type]
    iterations = int(params["training_iterations"])  # type: ignore[arg-type]
    setup = scenario.build_setup(seed=seed)
    training_app, _ = scenario.applications(setup, seed=seed)
    policy = make_standard_policies(["cohmeleon"], seed)["cohmeleon"]
    training_results = train_policy(setup, policy, training_app, iterations)
    policy.freeze()
    policy.clear_history()
    provenance = build_provenance(
        scenario=scenario.name,
        scenario_definition=str(params["definition"]),
        seed=seed,
        training_iterations=iterations,
        scenario_source=scenario.source,
    )
    # The name is stamped by the caller (it is registry metadata, not
    # trained content), so the same training run can be registered under
    # any name while hitting the same cache entry.
    artifact = PolicyArtifact.from_policy(policy, name="unnamed", provenance=provenance)
    return {
        "payload": artifact.payload,
        "digest": artifact.digest,
        "training": {
            "iterations": len(training_results),
            "execution_cycles": [
                result.total_execution_cycles for result in training_results
            ],
        },
    }


@dataclass
class TrainingRun:
    """Outcome of one artifact-training run through the sweep runner."""

    artifact: PolicyArtifact
    #: Whether the payload came from the result cache instead of training.
    cache_hits: int = 0
    executed: int = 0
    workers_used: int = 1
    #: Per-iteration execution cycles of the training application.
    training_cycles: tuple = ()


def train_artifact(
    scenario: Scenario,
    name: str,
    seed: Optional[int] = None,
    training_iterations: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> TrainingRun:
    """Train ``scenario``'s Cohmeleon policy and capture it as an artifact.

    Parameters
    ----------
    scenario:
        The scenario to train on (registered or loaded from a file).
    name:
        Registry name to stamp on the artifact.
    seed:
        Root seed; defaults to the scenario's ``default_seed``.
    training_iterations:
        Training schedule length; defaults to the scenario's budget.
    runner:
        A configured :class:`SweepRunner`; ``None`` trains serially
        without a cache.

    Returns
    -------
    TrainingRun
        The (unsaved) artifact plus sweep statistics; call
        :meth:`repro.models.ModelRegistry.save` to register it.
    """
    run_seed = scenario.default_seed if seed is None else seed
    iterations = (
        scenario.training_iterations
        if training_iterations is None
        else training_iterations
    )
    if iterations <= 0:
        raise ModelError(
            f"training an artifact needs at least one iteration, got {iterations}"
        )
    params = scenario_job_params(scenario, "cohmeleon", run_seed, iterations)
    job = Job(
        key="train",
        fn=_train_policy_job,
        params=params,
        seed=run_seed,
    )
    outcome = run_spec(SweepSpec(name=f"train-{scenario.name}", jobs=[job]), runner)
    payload = outcome["train"]
    artifact = PolicyArtifact(name=name, payload=dict(payload["payload"]))  # type: ignore[arg-type]
    recorded = str(payload["digest"])
    if artifact.digest != recorded:
        raise ModelError(
            f"training payload digest mismatch: job recorded {recorded[:12]}…, "
            f"payload hashes to {artifact.digest[:12]}… (corrupt cache entry?)"
        )
    return TrainingRun(
        artifact=artifact,
        cache_hits=outcome.cache_hits,
        executed=outcome.executed,
        workers_used=outcome.workers_used,
        training_cycles=tuple(payload.get("training", {}).get("execution_cycles", ())),  # type: ignore[union-attr]
    )
