"""Figure 6 — design-space exploration of the reward function.

Fifteen reward weightings (execution time, communication ratio, off-chip
accesses) are each trained on SoC0 and then tested on a different instance
of the evaluation application.  For every trained model — and for the
baseline policies — the figure plots the geometric mean over all phases of
the normalised execution time against the normalised off-chip accesses,
both relative to the fixed non-coherent-DMA policy.

The paper's observation: most weightings land in a near-Pareto-optimal
cluster; only the weightings dominated (> 90 %) by the off-chip-access term
degrade noticeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.policies import CohmeleonPolicy
from repro.core.reward import RewardWeights
from repro.errors import ExperimentError
from repro.experiments.common import (
    REFERENCE_POLICY,
    ExperimentSetup,
    evaluate_policies,
    make_standard_policies,
    traffic_setup,
)
from repro.experiments.isolation import fixed_hetero_modes
from repro.experiments.phases import figure5_application, training_application
from repro.experiments.sweep import SweepRunner
from repro.utils.rng import SeededRNG
from repro.utils.stats import geomean_ratio
from repro.workloads.spec import ApplicationSpec

#: The 15 reward weightings explored (percent weights for execution time,
#: communication ratio, and off-chip memory accesses).  They include the
#: two Pareto-optimal examples the paper quotes — (67.5, 7.5, 25) and
#: (12.5, 12.5, 75) — and two memory-dominated (> 90 %) outliers.
REWARD_WEIGHTINGS: Tuple[Tuple[float, float, float], ...] = (
    (100.0, 0.0, 0.0),
    (90.0, 10.0, 0.0),
    (80.0, 10.0, 10.0),
    (75.0, 0.0, 25.0),
    (67.5, 7.5, 25.0),
    (60.0, 20.0, 20.0),
    (50.0, 25.0, 25.0),
    (50.0, 0.0, 50.0),
    (40.0, 20.0, 40.0),
    (33.4, 33.3, 33.3),
    (25.0, 25.0, 50.0),
    (12.5, 12.5, 75.0),
    (10.0, 10.0, 80.0),
    (5.0, 0.0, 95.0),
    (2.5, 2.5, 95.0),
)


@dataclass
class RewardPoint:
    """One point of the Figure 6 scatter plot."""

    label: str
    weights: Optional[Tuple[float, float, float]]
    norm_exec: float
    norm_mem: float
    is_cohmeleon: bool


@dataclass
class RewardDseResult:
    """All points of the Figure 6 scatter plot."""

    setup_name: str
    points: List[RewardPoint]

    def cohmeleon_points(self) -> List[RewardPoint]:
        """Only the learned-policy points."""
        return [point for point in self.points if point.is_cohmeleon]

    def pareto_front(self) -> List[RewardPoint]:
        """Points not dominated in (exec, mem) by any other point."""
        front: List[RewardPoint] = []
        for candidate in self.points:
            dominated = any(
                other.norm_exec <= candidate.norm_exec
                and other.norm_mem <= candidate.norm_mem
                and (other.norm_exec < candidate.norm_exec or other.norm_mem < candidate.norm_mem)
                for other in self.points
            )
            if not dominated:
                front.append(candidate)
        return front


def run_reward_dse(
    setup: Optional[ExperimentSetup] = None,
    weightings: Sequence[Tuple[float, float, float]] = REWARD_WEIGHTINGS,
    training_iterations: int = 10,
    baseline_kinds: Sequence[str] = (
        "fixed-non-coh-dma",
        "fixed-llc-coh-dma",
        "fixed-coh-dma",
        "fixed-full-coh",
        "rand",
        "fixed-hetero",
        "manual",
    ),
    test_app: Optional[ApplicationSpec] = None,
    seed: int = 13,
    runner: Optional[SweepRunner] = None,
) -> RewardDseResult:
    """Run the Figure 6 design-space exploration."""
    if not weightings:
        raise ExperimentError("at least one reward weighting is required")
    setup = setup if setup is not None else traffic_setup("SoC0", seed=seed)
    test_app = test_app if test_app is not None else figure5_application(setup, seed=seed)
    train_app = training_application(setup, seed=seed + 1)

    hetero = (
        fixed_hetero_modes(setup, runner=runner)
        if "fixed-hetero" in baseline_kinds
        else None
    )

    # Baselines plus one Cohmeleon policy per reward weighting.
    policies = make_standard_policies(baseline_kinds, seed, fixed_hetero_modes=hetero)
    for index, (exec_pct, comm_pct, mem_pct) in enumerate(weightings):
        weights = RewardWeights.from_percentages(exec_pct, comm_pct, mem_pct)
        label = f"cohmeleon[{exec_pct:g}/{comm_pct:g}/{mem_pct:g}]"
        policies[label] = CohmeleonPolicy(
            weights=weights, rng=SeededRNG(seed).spawn("reward-dse", index)
        )

    evaluations = evaluate_policies(
        setup,
        policies,
        test_app,
        training_app=train_app,
        training_iterations=training_iterations,
        runner=runner,
    )
    reference = evaluations[REFERENCE_POLICY]

    points: List[RewardPoint] = []
    for name, evaluation in evaluations.items():
        is_cohmeleon = name.startswith("cohmeleon")
        weights = None
        if is_cohmeleon:
            index = list(policies).index(name) - len(baseline_kinds)
            weights = tuple(weightings[index]) if 0 <= index < len(weightings) else None
        points.append(
            RewardPoint(
                label=name,
                weights=weights,
                norm_exec=geomean_ratio(
                    evaluation.per_phase_exec, reference.per_phase_exec
                ),
                norm_mem=geomean_ratio(
                    evaluation.per_phase_ddr, reference.per_phase_ddr
                ),
                is_cohmeleon=is_cohmeleon,
            )
        )
    return RewardDseResult(setup_name=setup.name, points=points)
