"""Trained-policy persistence: artifacts, the model registry, and warm starts.

The paper's headline result is an *online-trained* Q-table that Cohmeleon
learns per platform — yet retraining it from scratch inside every sweep
job pays the training cost over and over and makes cross-platform
transfer studies impossible to express.  This package makes trained
policies first-class, persistent artifacts:

* :mod:`repro.models.artifact` — the versioned on-disk format: one
  canonical-JSON document wrapping the Q-table, the agent
  hyper-parameters, the reward weights, and the agent RNG stream, plus
  provenance (scenario, definition digest, seed, schedule, library
  version) and a SHA-256 digest gate over the whole payload;
* :mod:`repro.models.registry` — a directory of named artifacts
  (``.repro-models`` by default, ``REPRO_MODELS_DIR`` to relocate);
* :mod:`repro.models.train` — training through the PR 1 sweep runner, so
  repeated training runs hit the result cache;
* :mod:`repro.models.cli` — ``python -m repro.models
  train|list|describe|export|eval``.

The warm-start contract: ``python -m repro.scenarios run <scenario>
--pretrained <model>`` (or ``run_scenario(..., pretrained=artifact)``)
evaluates the frozen pretrained table instead of retraining, with the
artifact digest folded into the sweep-job fingerprint so the result
cache, manifests, and shard machinery stay bit-identical-correct.
Evaluating a model on a scenario other than the one it was trained on is
the cross-platform transfer study (``python -m repro.models eval <model>
--scenario <other>``); see ``docs/models.md``.

Quickstart
----------
>>> from repro.models import PolicyArtifact, ARTIFACT_FORMAT
>>> ARTIFACT_FORMAT
'cohmeleon-policy-artifact'
"""

from repro import lazy_exports
from repro.models.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    PROVENANCE_FIELDS,
    PolicyArtifact,
    build_provenance,
    load_artifact,
    parse_artifact,
    payload_digest,
)
from repro.models.registry import (
    DEFAULT_MODELS_DIR,
    MODELS_DIR_ENV,
    ModelRegistry,
    default_models_dir,
    resolve_pretrained,
    validate_model_name,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "DEFAULT_MODELS_DIR",
    "MATRIX_FORMAT",
    "MATRIX_VERSION",
    "MODELS_DIR_ENV",
    "ModelRegistry",
    "PROVENANCE_FIELDS",
    "PolicyArtifact",
    "TrainingRun",
    "TransferCell",
    "TransferMatrix",
    "build_provenance",
    "default_models_dir",
    "load_artifact",
    "parse_artifact",
    "payload_digest",
    "resolve_pretrained",
    "train_artifact",
    "transfer_matrix",
    "validate_model_name",
]

# Training and transfer studies run sweeps: importing them here would load the
# sweep runner, the experiment harness and the scenario registry into every
# process that only loads an artifact (the policy server, the tracking API).
__getattr__ = lazy_exports(
    globals(),
    {
        "TrainingRun": "repro.models.train",
        "train_artifact": "repro.models.train",
        "MATRIX_FORMAT": "repro.models.transfer",
        "MATRIX_VERSION": "repro.models.transfer",
        "TransferCell": "repro.models.transfer",
        "TransferMatrix": "repro.models.transfer",
        "transfer_matrix": "repro.models.transfer",
    },
)
