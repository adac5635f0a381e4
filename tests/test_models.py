"""Tests for repro.models: artifacts, the registry, training, warm starts.

The acceptance spine is the full round trip — train through the sweep
runner, save, reload, evaluate frozen — being *bit-identical* (payload
digests equal) to an in-process train-then-evaluate run, plus the digest
gate rejecting corrupt, truncated, tampered, and version-mismatched
artifacts before any Q-value is trusted.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.policies import CohmeleonPolicy
from repro.errors import ConfigurationError, ModelError
from repro.experiments.sweep import ResultCache, RunConfig, SweepRunner
from repro.experiments.sweep.manifest import payload_digest as sweep_payload_digest
from repro.models import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ModelRegistry,
    PolicyArtifact,
    PROVENANCE_FIELDS,
    build_provenance,
    load_artifact,
    train_artifact,
    validate_model_name,
)
from repro.models.cli import main as models_cli
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.cli import main as scenarios_cli
from repro.scenarios.run import evaluate_scenario_policy
from repro.utils.rng import SeededRNG

QUICK_ITERATIONS = 2


@pytest.fixture(scope="module")
def quickstart_training(tmp_path_factory):
    """One trained quickstart artifact, saved to a module-scoped registry."""
    root = tmp_path_factory.mktemp("models")
    scenario = get_scenario("quickstart")
    runner = SweepRunner(config=RunConfig(workers=1, cache=ResultCache(root / "cache")))
    run = train_artifact(
        scenario, name="qs-demo", training_iterations=QUICK_ITERATIONS, runner=runner
    )
    registry = ModelRegistry(root / "registry")
    registry.save(run.artifact)
    return {"root": root, "registry": registry, "run": run, "scenario": scenario}


# ----------------------------------------------------------------------
# Artifact format
# ----------------------------------------------------------------------

def _toy_artifact(name: str = "toy") -> PolicyArtifact:
    policy = CohmeleonPolicy(rng=SeededRNG(7))
    provenance = build_provenance(
        scenario="toy-scenario",
        scenario_definition="0" * 64,
        seed=7,
        training_iterations=1,
    )
    return PolicyArtifact.from_policy(policy, name=name, provenance=provenance)


def test_artifact_digest_is_canonical_and_stable(tmp_path):
    """The digest covers the payload only and survives a save/load cycle."""
    artifact = _toy_artifact()
    assert artifact.digest == _toy_artifact("renamed").digest
    path = artifact.save(tmp_path / "toy.json")
    reloaded = load_artifact(path)
    assert reloaded.digest == artifact.digest
    assert reloaded.payload == artifact.payload
    assert reloaded.dumps() == artifact.dumps()


def test_artifact_provenance_fields_complete():
    """Every promised provenance field is present and deterministic."""
    artifact = _toy_artifact()
    assert set(PROVENANCE_FIELDS) <= set(artifact.provenance)
    assert artifact.provenance["repro_version"]
    # No wall-clock, hostname, or other nondeterminism may leak in.
    assert _toy_artifact().dumps() == _toy_artifact().dumps()


def test_artifact_rebuilds_a_frozen_policy():
    """build_policy() restores table, config, weights, and the RNG stream."""
    policy = CohmeleonPolicy(rng=SeededRNG(3))
    policy.agent.qtable.update(0, policy.agent.qtable.best_mode(0), 0.5, 0.25)
    policy.agent.rng.random()  # advance the stream past its seed state
    policy.freeze()
    artifact = PolicyArtifact.from_policy(
        policy, "t", build_provenance("s", "0" * 64, 3, 1)
    )
    rebuilt = artifact.build_policy()
    assert rebuilt.agent.learning_enabled is False
    assert rebuilt.agent.epsilon == 0.0 and rebuilt.agent.alpha == 0.0
    assert rebuilt.agent.qtable.values == policy.agent.qtable.values
    assert rebuilt.agent.rng.state() == policy.agent.rng.state()
    assert rebuilt.reward_tracker.weights == policy.reward_tracker.weights


def test_corrupt_truncated_and_mismatched_artifacts_rejected(tmp_path):
    """The load path rejects every malformed document with ModelError."""
    artifact = _toy_artifact()
    path = artifact.save(tmp_path / "toy.json")
    good = json.loads(path.read_text())

    # Truncated file (killed writer, partial download).
    (tmp_path / "truncated.json").write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(ModelError, match="corrupt or truncated"):
        load_artifact(tmp_path / "truncated.json")

    # Not JSON at all.
    (tmp_path / "garbage.json").write_text("not an artifact")
    with pytest.raises(ModelError, match="corrupt or truncated"):
        load_artifact(tmp_path / "garbage.json")

    # Tampered payload: digest gate.
    tampered = json.loads(json.dumps(good))
    tampered["payload"]["policy"]["qtable"]["values"][0][0] = 123.0
    (tmp_path / "tampered.json").write_text(json.dumps(tampered))
    with pytest.raises(ModelError, match="digest mismatch"):
        load_artifact(tmp_path / "tampered.json")

    # Wrong format marker.
    wrong_format = json.loads(json.dumps(good))
    wrong_format["format"] = "something-else"
    (tmp_path / "format.json").write_text(json.dumps(wrong_format))
    with pytest.raises(ModelError, match="not a trained-policy artifact"):
        load_artifact(tmp_path / "format.json")

    # Future layout version.
    future = json.loads(json.dumps(good))
    future["version"] = ARTIFACT_VERSION + 1
    (tmp_path / "future.json").write_text(json.dumps(future))
    with pytest.raises(ModelError, match="layout version"):
        load_artifact(tmp_path / "future.json")

    # Missing envelope fields.
    for field in ("format", "version", "name", "digest", "payload"):
        broken = json.loads(json.dumps(good))
        del broken[field]
        (tmp_path / "missing.json").write_text(json.dumps(broken))
        with pytest.raises(ModelError, match=field):
            load_artifact(tmp_path / "missing.json")

    # Caller-supplied expected digest (the fingerprint gate in workers).
    with pytest.raises(ModelError, match="does not match the"):
        load_artifact(path, expected_digest="f" * 64)

    # Missing file.
    with pytest.raises(ModelError, match="cannot read"):
        load_artifact(tmp_path / "nope.json")


def test_artifact_with_poisoned_qtable_fails_to_build(tmp_path):
    """A digest-valid artifact holding a bad table still cannot build."""
    artifact = _toy_artifact()
    artifact.payload["policy"]["qtable"]["values"][0][0] = float("nan")
    artifact.digest = ""
    artifact.__post_init__()  # re-stamp the digest over the poisoned payload
    path = artifact.save(tmp_path / "poisoned.json")
    reloaded = load_artifact(path)  # digest gate passes...
    with pytest.raises(ModelError, match="valid policy"):
        reloaded.build_policy()  # ...but the hardened QTable.from_dict refuses


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_save_load_list_delete(tmp_path):
    registry = ModelRegistry(tmp_path / "reg")
    artifact = _toy_artifact("model-a")
    registry.save(artifact)
    assert "model-a" in registry
    assert registry.names() == ["model-a"]
    with pytest.raises(ModelError, match="already exists"):
        registry.save(_toy_artifact("model-a"))
    registry.save(_toy_artifact("model-a"), replace=True)
    loaded = registry.load("model-a")
    assert loaded.digest == artifact.digest
    assert registry.delete("model-a") is True
    assert registry.delete("model-a") is False
    assert registry.names() == []
    with pytest.raises(ModelError, match="no model named"):
        registry.load("model-a")


def test_registry_rejects_path_escaping_names(tmp_path):
    registry = ModelRegistry(tmp_path)
    for bad in ("../escape", "a/b", "", ".hidden", "UPPER"):
        with pytest.raises(ModelError, match="invalid model name"):
            registry.path_for(bad)
    assert validate_model_name("soc1-baseline.v2") == "soc1-baseline.v2"


# ----------------------------------------------------------------------
# Training through the sweep runner + the warm-start round trip
# ----------------------------------------------------------------------

def test_retraining_hits_the_cache_and_is_name_independent(quickstart_training):
    """Same scenario/seed/schedule: cache hit; the name is registry metadata."""
    run = quickstart_training["run"]
    assert run.executed == 1 and run.cache_hits == 0
    assert len(run.training_cycles) == QUICK_ITERATIONS
    rerun = train_artifact(
        quickstart_training["scenario"],
        name="different-name",
        training_iterations=QUICK_ITERATIONS,
        runner=SweepRunner(
            config=RunConfig(
                workers=1, cache=ResultCache(quickstart_training["root"] / "cache")
            )
        ),
    )
    assert rerun.cache_hits == 1 and rerun.executed == 0
    assert rerun.artifact.digest == run.artifact.digest
    assert rerun.artifact.name == "different-name"


def test_training_job_fingerprint_is_pinned(monkeypatch):
    """The training job's fingerprint (and so every cached training) holds."""
    import repro.models.train as train_module

    class Captured(Exception):
        pass

    jobs = []

    def capture(spec, runner):
        jobs.extend(spec.jobs)
        raise Captured

    monkeypatch.setattr(train_module, "run_spec", capture)
    with pytest.raises(Captured):
        train_artifact(get_scenario("quickstart"), "pin", seed=7, training_iterations=3)
    (job,) = jobs
    assert job.fingerprint() == (
        "a70a9bad0dea32988486d30f94745ea850f76260a22393f9981003dfc38f3798"
    )


def test_train_requires_a_positive_schedule(quickstart_training):
    with pytest.raises(ModelError, match="at least one iteration"):
        train_artifact(
            quickstart_training["scenario"], name="x", training_iterations=0
        )


def test_round_trip_is_bit_identical_to_in_process_training(quickstart_training):
    """train -> export -> reload -> frozen eval == in-process train+freeze.

    The acceptance criterion: payload digests of the evaluation results
    must be equal, not merely close.
    """
    scenario = quickstart_training["scenario"]
    reloaded = quickstart_training["registry"].load("qs-demo")
    in_process = evaluate_scenario_policy(
        scenario, "cohmeleon", training_iterations=QUICK_ITERATIONS
    )
    warm = evaluate_scenario_policy(scenario, "cohmeleon", pretrained=reloaded)
    assert sweep_payload_digest(warm.result.to_dict()) == sweep_payload_digest(
        in_process.result.to_dict()
    )


def test_pretrained_run_worker_invariant_and_resumable(quickstart_training, tmp_path):
    """--pretrained payloads are identical for 1 vs N workers, cold vs resume."""
    scenario = quickstart_training["scenario"]
    artifact = quickstart_training["registry"].load("qs-demo")
    kinds = ("fixed-non-coh-dma", "cohmeleon")

    def digests(result):
        return {k: sweep_payload_digest(v.to_dict()) for k, v in result.evaluations.items()}

    serial = run_scenario(
        scenario,
        policy_kinds=kinds,
        runner=SweepRunner(config=RunConfig(workers=1)),
        pretrained=artifact,
    )
    parallel = run_scenario(
        scenario,
        policy_kinds=kinds,
        runner=SweepRunner(config=RunConfig(workers=4)),
        pretrained=artifact,
    )
    assert digests(serial) == digests(parallel)

    cache = ResultCache(tmp_path / "cache")
    manifest_dir = tmp_path / "cache" / "manifests"
    cold = run_scenario(
        scenario,
        policy_kinds=kinds,
        runner=SweepRunner(config=RunConfig(workers=2, cache=cache, manifest_dir=manifest_dir)),
        pretrained=artifact,
    )
    resumed = run_scenario(
        scenario,
        policy_kinds=kinds,
        runner=SweepRunner(
            config=RunConfig(
                workers=2, cache=cache, manifest_dir=manifest_dir, resume=True
            )
        ),
        pretrained=artifact,
    )
    assert resumed.executed == 0 and resumed.resumed == len(kinds)
    assert digests(cold) == digests(resumed) == digests(serial)
    assert cold.pretrained_digest == artifact.digest


def test_pretrained_fingerprints_incorporate_the_digest(quickstart_training, tmp_path):
    """A different table at the same path can never reuse a cached payload."""
    scenario = quickstart_training["scenario"]
    registry = quickstart_training["registry"]
    artifact = registry.load("qs-demo")
    cache = ResultCache(tmp_path / "cache")
    runner = SweepRunner(config=RunConfig(workers=1, cache=cache))
    kinds = ("cohmeleon",)
    run_scenario(scenario, policy_kinds=kinds, runner=runner, pretrained=artifact)

    # Retrain with a different schedule -> different digest, same path.
    retrained = train_artifact(
        scenario, name="qs-demo", training_iterations=QUICK_ITERATIONS + 1
    )
    registry.save(retrained.artifact, replace=True)
    updated = registry.load("qs-demo")
    assert updated.digest != artifact.digest
    second = run_scenario(scenario, policy_kinds=kinds, runner=runner, pretrained=updated)
    assert second.cache_hits == 0 and second.executed == 1


def test_relocated_artifact_still_hits_the_cache(quickstart_training, tmp_path):
    """The digest, not the registry name or path, is the artifact identity.

    Copying the artifact file elsewhere (or registering it under another
    name) must reuse cached payloads: the load path is transport-only in
    the job fingerprint.
    """
    scenario = quickstart_training["scenario"]
    artifact = quickstart_training["registry"].load("qs-demo")
    cache = ResultCache(tmp_path / "cache")
    runner = SweepRunner(config=RunConfig(workers=1, cache=cache))
    kinds = ("cohmeleon",)
    first = run_scenario(scenario, policy_kinds=kinds, runner=runner, pretrained=artifact)
    assert first.executed == 1

    moved_registry = ModelRegistry(tmp_path / "moved")
    renamed = PolicyArtifact(name="renamed-copy", payload=artifact.payload)
    moved_registry.save(renamed)
    relocated = moved_registry.load("renamed-copy")
    assert relocated.digest == artifact.digest
    second = run_scenario(
        scenario, policy_kinds=kinds, runner=runner, pretrained=relocated
    )
    assert second.executed == 0 and second.cache_hits == 1


def test_stale_pretrained_digest_is_rejected_at_execution(quickstart_training, tmp_path):
    """The worker re-verifies the digest against the fingerprinted value."""
    scenario = quickstart_training["scenario"]
    artifact = quickstart_training["registry"].load("qs-demo")
    # Swap the file underneath the scheduled digest.
    doc = json.loads(artifact.dumps())
    doc["payload"]["policy"]["qtable"]["values"][0][0] = 42.0
    doc["digest"] = PolicyArtifact(name="x", payload=doc["payload"]).digest
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(doc))
    swapped = load_artifact(path)  # self-consistent, but a different table
    swapped.digest = artifact.digest  # caller believes it is the old one
    with pytest.raises(ModelError, match="does not match the"):
        run_scenario(
            scenario,
            policy_kinds=("cohmeleon",),
            runner=SweepRunner(config=RunConfig(workers=1)),
            pretrained=swapped,
        )


def test_pretrained_needs_cohmeleon_and_a_saved_source(quickstart_training):
    scenario = quickstart_training["scenario"]
    artifact = quickstart_training["registry"].load("qs-demo")
    with pytest.raises(ConfigurationError, match="cohmeleon"):
        run_scenario(
            scenario, policy_kinds=("manual",), pretrained=artifact
        )
    unsaved = _toy_artifact()
    with pytest.raises(ConfigurationError, match="no on-disk source"):
        run_scenario(
            scenario, policy_kinds=("cohmeleon",), pretrained=unsaved
        )


def test_transfer_evaluation_on_another_scenario(quickstart_training):
    """A table trained on one platform evaluates frozen on another."""
    artifact = quickstart_training["registry"].load("qs-demo")
    other = get_scenario("mode-exploration")
    result = run_scenario(
        other,
        policy_kinds=("fixed-non-coh-dma", "cohmeleon"),
        runner=SweepRunner(config=RunConfig(workers=1)),
        pretrained=artifact,
    )
    assert result.pretrained_digest == artifact.digest
    assert result.evaluations["cohmeleon"].result.total_execution_cycles > 0
    assert result.evaluations["cohmeleon"].training_results == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_models_cli_full_round_trip(tmp_path):
    """train / list / describe / export / eval against one registry."""
    models_dir = str(tmp_path / "registry")
    cache_dir = str(tmp_path / "cache")
    argv_common = ["--models-dir", models_dir]
    stream = io.StringIO()
    assert (
        models_cli(
            [
                "train",
                "quickstart",
                "--name",
                "cli-demo",
                "--training-iterations",
                str(QUICK_ITERATIONS),
                "--workers",
                "1",
                "--cache-dir",
                cache_dir,
                *argv_common,
            ],
            stream=stream,
        )
        == 0
    )
    text = stream.getvalue()
    assert "digest: " in text and "cli-demo" in text
    digest = text.split("digest: ")[1].split()[0]

    # Re-training the same name without --force is refused.
    assert (
        models_cli(
            ["train", "quickstart", "--name", "cli-demo", "--training-iterations",
             str(QUICK_ITERATIONS), "--workers", "1", "--cache-dir", cache_dir,
             *argv_common],
            stream=io.StringIO(),
        )
        == 2
    )

    stream = io.StringIO()
    assert models_cli(["list", "--json", *argv_common], stream=stream) == 0
    listing = json.loads(stream.getvalue())
    assert [entry["name"] for entry in listing] == ["cli-demo"]
    assert listing[0]["digest"] == digest

    stream = io.StringIO()
    assert models_cli(["describe", "cli-demo", "--json", *argv_common], stream=stream) == 0
    description = json.loads(stream.getvalue())
    assert description["provenance"]["scenario"] == "quickstart"
    assert description["digest"] == digest

    out_path = tmp_path / "exported.json"
    assert (
        models_cli(["export", "cli-demo", "--out", str(out_path), *argv_common],
                   stream=io.StringIO())
        == 0
    )
    exported = load_artifact(out_path)
    assert exported.digest == digest

    stream = io.StringIO()
    assert (
        models_cli(
            ["eval", "cli-demo", "--workers", "1", "--cache-dir", cache_dir,
             *argv_common],
            stream=stream,
        )
        == 0
    )
    assert f"digest={digest[:12]}" in stream.getvalue()

    # The scenarios CLI accepts the same registry via --pretrained.
    stream = io.StringIO()
    assert (
        scenarios_cli(
            [
                "run",
                "quickstart",
                "--pretrained",
                "cli-demo",
                "--models-dir",
                models_dir,
                "--workers",
                "1",
                "--cache-dir",
                cache_dir,
                "--policies",
                "fixed-non-coh-dma,cohmeleon",
            ],
            stream=stream,
        )
        == 0
    )
    assert f"pretrained={digest[:12]}" in stream.getvalue()


def test_models_cli_errors_exit_nonzero(tmp_path):
    assert models_cli(
        ["describe", "missing", "--models-dir", str(tmp_path)], stream=io.StringIO()
    ) == 2
    assert models_cli(
        ["eval", "missing", "--models-dir", str(tmp_path)], stream=io.StringIO()
    ) == 2


# ----------------------------------------------------------------------
# Registry read-retry helper (serving hot-reload path)
# ----------------------------------------------------------------------

def test_load_retry_matches_load_on_the_happy_path(tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.save(_toy_artifact("steady"))
    direct = registry.load("steady")
    retried = registry.load_retry("steady")
    assert retried.digest == direct.digest
    assert retried.name == "steady"


def test_load_retry_still_raises_for_a_genuinely_missing_model(tmp_path):
    registry = ModelRegistry(tmp_path)
    with pytest.raises(ModelError, match="no model named"):
        registry.load_retry("ghost", attempts=3, delay_s=0.001)


def test_load_retry_enforces_the_expected_digest(tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.save(_toy_artifact("steady"))
    with pytest.raises(ModelError, match="digest"):
        registry.load_retry("steady", expected_digest="0" * 64, attempts=2, delay_s=0.001)
