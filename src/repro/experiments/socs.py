"""Figure 9 — evaluation across eight SoC configurations.

The experiment repeats the policy comparison on eight platforms: SoC0
restricted to streaming traffic generators, SoC0 restricted to irregular
traffic generators, SoC1, SoC2, and SoC3 with mixed traffic generators, and
the three case-study SoCs (SoC4 mixed accelerators, SoC5 autonomous
driving, SoC6 computer vision).  Cohmeleon uses the (67.5 %, 7.5 %, 25 %)
reward function and 10 training iterations, as in the paper.  Per SoC, the
plotted values are the geometric mean over all phases of execution time and
off-chip accesses normalised to the fixed non-coherent-DMA policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.accelerators.descriptor import AccessPattern
from repro.errors import ExperimentError
from repro.experiments.common import (
    EXPERIMENT_LINE_BYTES,
    REFERENCE_POLICY,
    STANDARD_POLICY_KINDS,
    ExperimentSetup,
    PolicyEvaluation,
    evaluate_policies,
    make_standard_policies,
    traffic_setup,
)
from repro.experiments.isolation import fixed_hetero_modes
from repro.experiments.sweep import Job, SweepRunner, SweepSpec, run_spec
from repro.soc.config import soc_preset
from repro.utils.stats import geomean_ratio
from repro.workloads.case_studies import case_study_accelerators, case_study_application
from repro.workloads.generator import ApplicationGenerator, GeneratorConfig

#: The eight SoC configurations of Figure 9.
FIGURE9_SOC_LABELS = (
    "SoC0-Streaming",
    "SoC0-Irregular",
    "SoC1",
    "SoC2",
    "SoC3",
    "SoC4",
    "SoC5",
    "SoC6",
)


@dataclass
class SocComparisonPoint:
    """One (SoC, policy) point of Figure 9."""

    soc_label: str
    policy_name: str
    norm_exec: float
    norm_mem: float


@dataclass
class SocComparisonResult:
    """All points of Figure 9 plus the raw evaluations."""

    points: List[SocComparisonPoint]
    evaluations: Dict[str, Dict[str, PolicyEvaluation]]

    def for_soc(self, soc_label: str) -> Dict[str, SocComparisonPoint]:
        """Points of one SoC keyed by policy name."""
        return {
            point.policy_name: point
            for point in self.points
            if point.soc_label == soc_label
        }


def figure9_setup(label: str, seed: int = 0) -> ExperimentSetup:
    """Build the experiment setup for one Figure 9 SoC label."""
    if label == "SoC0-Streaming":
        return traffic_setup("SoC0", pattern=AccessPattern.STREAMING, seed=seed)
    if label == "SoC0-Irregular":
        return traffic_setup("SoC0", pattern=AccessPattern.IRREGULAR, seed=seed)
    if label in ("SoC1", "SoC2", "SoC3"):
        return traffic_setup(label, seed=seed)
    if label in ("SoC4", "SoC5", "SoC6"):
        config = soc_preset(label).with_line_size(EXPERIMENT_LINE_BYTES)
        return ExperimentSetup(
            name=label,
            soc_config=config,
            accelerators=case_study_accelerators(label),
            seed=seed,
        )
    raise ExperimentError(f"unknown Figure 9 SoC label {label!r}")


def figure9_applications(
    label: str, setup: ExperimentSetup, seed: int = 0
) -> tuple:
    """Return the (training, testing) application pair for one SoC label."""
    if label in ("SoC4", "SoC5", "SoC6"):
        return case_study_application(label, instance=0), case_study_application(label, instance=1)
    generator = ApplicationGenerator(
        soc_config=setup.soc_config,
        accelerator_names=[descriptor.name for descriptor in setup.accelerators],
        generator_config=GeneratorConfig(num_phases=3, min_threads=2, max_threads=6),
        seed=seed + 41,
    )
    return generator.generate_pair()


def _soc_label_job(params: Dict[str, object], rng) -> Dict[str, object]:
    """Sweep job: the full policy comparison on one Figure 9 SoC label."""
    label = str(params["label"])
    seed = int(params["seed"])  # type: ignore[arg-type]
    policy_kinds = tuple(str(kind) for kind in params["policy_kinds"])  # type: ignore[arg-type]
    training_iterations = int(params["training_iterations"])  # type: ignore[arg-type]

    setup = figure9_setup(label, seed=seed)
    train_app, test_app = figure9_applications(label, setup, seed=seed)
    hetero = fixed_hetero_modes(setup) if "fixed-hetero" in policy_kinds else None
    policies = make_standard_policies(policy_kinds, seed, fixed_hetero_modes=hetero)
    evaluations = evaluate_policies(
        setup,
        policies,
        test_app,
        training_app=train_app,
        training_iterations=training_iterations,
    )
    return {
        "evaluations": {name: ev.to_dict() for name, ev in evaluations.items()}
    }


def run_soc_comparison(
    labels: Sequence[str] = FIGURE9_SOC_LABELS,
    policy_kinds: Sequence[str] = STANDARD_POLICY_KINDS,
    training_iterations: int = 10,
    seed: int = 29,
    runner: Optional[SweepRunner] = None,
) -> SocComparisonResult:
    """Run the Figure 9 sweep over SoC configurations (one job per SoC)."""
    jobs = [
        Job(
            key=label,
            fn=_soc_label_job,
            params={
                "label": label,
                "seed": seed,
                "policy_kinds": tuple(policy_kinds),
                "training_iterations": training_iterations,
            },
            seed=seed,
        )
        for label in labels
    ]
    spec = SweepSpec(name="socs", jobs=jobs)
    outcome = run_spec(spec, runner)

    points: List[SocComparisonPoint] = []
    evaluations_per_soc: Dict[str, Dict[str, PolicyEvaluation]] = {}
    for label in labels:
        payload = outcome[label]
        # Rebuild in policy_kinds order: the cache stores JSON objects with
        # sorted keys, so the payload's own ordering is not meaningful.
        evaluations = {
            kind: PolicyEvaluation.from_dict(payload["evaluations"][kind])
            for kind in policy_kinds
        }
        evaluations_per_soc[label] = evaluations
        reference = evaluations[REFERENCE_POLICY]
        for policy_name, evaluation in evaluations.items():
            points.append(
                SocComparisonPoint(
                    soc_label=label,
                    policy_name=policy_name,
                    norm_exec=geomean_ratio(
                        evaluation.per_phase_exec, reference.per_phase_exec
                    ),
                    norm_mem=geomean_ratio(
                        evaluation.per_phase_ddr, reference.per_phase_ddr
                    ),
                )
            )
    return SocComparisonResult(points=points, evaluations=evaluations_per_soc)
