"""Batch robustness/transfer evaluation: models x scenarios in one sweep.

The PR 5 warm-start contract evaluates one pretrained artifact on one
scenario; a robustness study needs the full cross product — every saved
model evaluated on every scenario in a fleet (typically procedurally
generated by :mod:`repro.scenarios.generate`), each cell normalized to
the fixed reference policy run on the same scenario.  This module builds
that cross product as a *single* :class:`~repro.experiments.sweep.SweepSpec`
— one reference job per scenario plus one frozen pretrained job per
(model, scenario) pair — and dispatches it through the sharded sweep
runner, so the whole matrix parallelizes across workers, dedupes through
the on-disk result cache, and stays bit-identical for any worker count.

Every cell carries a SHA-256 digest of its canonical result payload.
Because sweep payloads are bit-identical across reruns and backends, the
per-cell digests are too — re-running the matrix and diffing digests is
the cheapest possible equivalence check.

``python -m repro.scenarios matrix`` is the command-line entry point;
see ``docs/generation.md`` for the workflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.experiments.common import REFERENCE_POLICY, PolicyEvaluation
from repro.experiments.sweep import Job, SweepRunner, SweepSpec, run_spec
from repro.models.artifact import PolicyArtifact
from repro.scenarios.run import (
    _scenario_policy_job,
    scenario_definition_digest,
    scenario_job_params,
)
from repro.scenarios.scenario import Scenario
from repro.store.io import canonical_digest
from repro.utils.stats import geomean_ratio

#: Transfer-matrix format marker.
MATRIX_FORMAT = "cohmeleon-transfer-matrix"

#: Transfer-matrix layout version.
MATRIX_VERSION = 1


def _payload_digest(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON form of one cell's result payload."""
    return canonical_digest(payload)


@dataclass
class TransferCell:
    """One (model, scenario) cell of the transfer matrix."""

    model: str
    scenario: str
    seed: int
    #: SHA-256 of the cell's canonical result payload (rerun-stable).
    digest: str
    #: Geomean per-phase ratios against the reference policy on the same
    #: scenario (1.0 = parity, lower is better).
    norm_exec: float
    norm_mem: float
    exec_cycles: float
    ddr_accesses: int
    #: Whether this is a cross-scenario (transfer) evaluation rather than
    #: an evaluation on the model's own training scenario.
    transfer: bool

    def to_mapping(self) -> Dict[str, object]:
        """JSON form of the cell."""
        return {
            "model": self.model,
            "scenario": self.scenario,
            "seed": self.seed,
            "digest": self.digest,
            "norm_exec": self.norm_exec,
            "norm_mem": self.norm_mem,
            "exec_cycles": self.exec_cycles,
            "ddr_accesses": self.ddr_accesses,
            "transfer": self.transfer,
        }


@dataclass
class TransferMatrix:
    """Models x scenarios transfer-evaluation results.

    Rows are saved :class:`~repro.models.PolicyArtifact` models, columns
    are scenarios, and every cell holds the frozen model's normalized
    performance on that scenario plus a content digest of the underlying
    result payload.  :meth:`to_document`/:meth:`dumps` give the canonical
    JSON form and :meth:`report` the plain-text table.
    """

    reference_policy: str
    #: Per model: name, artifact digest, training scenario.
    models: List[Dict[str, object]] = field(default_factory=list)
    #: Per scenario: name, seed, definition digest, reference-cell digest.
    scenarios: List[Dict[str, object]] = field(default_factory=list)
    cells: List[TransferCell] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    workers_used: int = 1

    def cell(self, model: str, scenario: str) -> TransferCell:
        """Look up one cell by model and scenario name."""
        for entry in self.cells:
            if entry.model == model and entry.scenario == scenario:
                return entry
        raise ModelError(f"no matrix cell for model {model!r} on scenario {scenario!r}")

    def to_document(self) -> Dict[str, object]:
        """The canonical JSON document for the whole matrix."""
        return {
            "format": MATRIX_FORMAT,
            "version": MATRIX_VERSION,
            "reference_policy": self.reference_policy,
            "models": list(self.models),
            "scenarios": list(self.scenarios),
            "cells": [cell.to_mapping() for cell in self.cells],
            "sweep": {
                "cache_hits": self.cache_hits,
                "executed": self.executed,
                "workers_used": self.workers_used,
            },
        }

    def dumps(self) -> str:
        """Canonical JSON text (sorted keys, newline-terminated)."""
        return json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n"

    def report(self) -> str:
        """Render the matrix as the standard plain-text table."""
        from repro.experiments.report import report_transfer_matrix

        return report_transfer_matrix(self)


def transfer_matrix(
    artifacts: Sequence[PolicyArtifact],
    scenarios: Sequence[Scenario],
    runner: Optional[SweepRunner] = None,
    seed: Optional[int] = None,
) -> TransferMatrix:
    """Evaluate every saved model on every scenario, in one sweep.

    Parameters
    ----------
    artifacts:
        Saved models (each must have an on-disk ``source`` so sweep
        workers can re-load it under its digest gate).
    scenarios:
        Scenarios to evaluate on — registered, file-loaded, or
        procedurally generated (generated scenarios are regenerated
        inside workers from their spec metadata).
    runner:
        A configured :class:`SweepRunner`; ``None`` runs serially
        without a cache.
    seed:
        Root seed for every cell; ``None`` uses each scenario's own
        ``default_seed`` (the registry default, so matrix cells share
        fingerprints — and cached payloads — with standalone
        ``run_scenario`` calls).

    Returns
    -------
    TransferMatrix
        One cell per (model, scenario) pair, normalized per column to
        ``fixed-non-coh-dma`` on the same scenario.
    """
    if not artifacts:
        raise ModelError("transfer matrix needs at least one saved model")
    if not scenarios:
        raise ModelError("transfer matrix needs at least one scenario")
    names = [artifact.name for artifact in artifacts]
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate model names in transfer matrix: {sorted(names)}")
    scenario_names = [scenario.name for scenario in scenarios]
    if len(set(scenario_names)) != len(scenario_names):
        raise ModelError(
            f"duplicate scenario names in transfer matrix: {sorted(scenario_names)}"
        )
    for artifact in artifacts:
        if artifact.source is None:
            raise ModelError(
                f"model {artifact.name!r} has no on-disk source; save it to a "
                "registry first so sweep workers can re-load it"
            )

    jobs: List[Job] = []
    seeds: Dict[str, int] = {}
    definitions: Dict[str, str] = {}
    for scenario in scenarios:
        run_seed = scenario.default_seed if seed is None else seed
        seeds[scenario.name] = run_seed
        definition = scenario_definition_digest(scenario, seed=run_seed)
        definitions[scenario.name] = definition
        jobs.append(
            Job(
                key=f"ref::{scenario.name}",
                fn=_scenario_policy_job,
                params=scenario_job_params(
                    scenario,
                    policy_kind=REFERENCE_POLICY,
                    seed=run_seed,
                    training_iterations=scenario.training_iterations,
                    definition=definition,
                ),
                seed=run_seed,
            )
        )
        for artifact in artifacts:
            jobs.append(
                Job(
                    key=f"{artifact.name}::{scenario.name}",
                    fn=_scenario_policy_job,
                    params=scenario_job_params(
                        scenario,
                        policy_kind="cohmeleon",
                        seed=run_seed,
                        training_iterations=0,
                        definition=definition,
                        pretrained=artifact,
                    ),
                    seed=run_seed,
                )
            )
    outcome = run_spec(SweepSpec(name="transfer-matrix", jobs=jobs), runner)

    references: Dict[str, Tuple[PolicyEvaluation, str]] = {}
    scenario_rows: List[Dict[str, object]] = []
    for scenario in scenarios:
        payload = outcome[f"ref::{scenario.name}"]
        references[scenario.name] = (
            PolicyEvaluation.from_dict(payload),
            _payload_digest(payload),
        )
        scenario_rows.append(
            {
                "name": scenario.name,
                "seed": seeds[scenario.name],
                "definition": definitions[scenario.name],
                "reference_digest": references[scenario.name][1],
            }
        )
    cells: List[TransferCell] = []
    for artifact in artifacts:
        for scenario in scenarios:
            payload = outcome[f"{artifact.name}::{scenario.name}"]
            evaluation = PolicyEvaluation.from_dict(payload)
            reference, _ = references[scenario.name]
            cells.append(
                TransferCell(
                    model=artifact.name,
                    scenario=scenario.name,
                    seed=seeds[scenario.name],
                    digest=_payload_digest(payload),
                    norm_exec=geomean_ratio(
                        evaluation.per_phase_exec, reference.per_phase_exec
                    ),
                    norm_mem=geomean_ratio(
                        evaluation.per_phase_ddr, reference.per_phase_ddr
                    ),
                    exec_cycles=evaluation.result.total_execution_cycles,
                    ddr_accesses=evaluation.result.total_ddr_accesses,
                    transfer=artifact.scenario != scenario.name,
                )
            )
    return TransferMatrix(
        reference_policy=REFERENCE_POLICY,
        models=[
            {
                "name": artifact.name,
                "digest": artifact.digest,
                "trained_on": artifact.scenario,
            }
            for artifact in artifacts
        ],
        scenarios=scenario_rows,
        cells=cells,
        cache_hits=outcome.cache_hits,
        executed=outcome.executed,
        workers_used=outcome.workers_used,
    )
