"""Figure 8 — performance as a function of training time.

The experiment alternates one training iteration of Cohmeleon on one
instance of the evaluation application with a frozen evaluation on a
different instance, for budgets of 10, 30, and 50 total iterations (the
epsilon/alpha decay schedule spans the budget, so the decay rate differs
per budget).  Iteration 0 corresponds to the untrained model, i.e. the
random policy.  Reported values are the geometric mean over all phases of
the test application, normalised to the fixed non-coherent-DMA policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.policies import CohmeleonPolicy, FixedPolicy
from repro.core.reward import DEFAULT_REWARD_WEIGHTS, RewardWeights
from repro.errors import ExperimentError
from repro.experiments.common import (
    ExperimentSetup,
    build_runtime,
    evaluate_policy,
    traffic_setup,
)
from repro.experiments.phases import figure5_application, training_application
from repro.experiments.sweep import Job, SweepRunner, SweepSpec, run_spec
from repro.soc.coherence import CoherenceMode
from repro.utils.rng import SeededRNG
from repro.utils.stats import geomean_ratio
from repro.workloads.runner import run_application
from repro.workloads.spec import ApplicationSpec

#: Training budgets evaluated by the paper.
TRAINING_BUDGETS = (10, 30, 50)


@dataclass
class TrainingCurvePoint:
    """Test performance after a given number of training iterations."""

    iteration: int
    norm_exec: float
    norm_mem: float


@dataclass
class TrainingCurve:
    """One training curve (one total-iteration budget)."""

    total_iterations: int
    points: List[TrainingCurvePoint] = field(default_factory=list)

    def final_point(self) -> TrainingCurvePoint:
        """Performance at the end of training."""
        if not self.points:
            raise ExperimentError("training curve has no points")
        return self.points[-1]

    def initial_point(self) -> TrainingCurvePoint:
        """Performance of the untrained model (iteration 0)."""
        if not self.points:
            raise ExperimentError("training curve has no points")
        return self.points[0]


@dataclass
class TrainingStudyResult:
    """Figure 8: one curve per training budget."""

    setup_name: str
    curves: Dict[int, TrainingCurve]

    def convergence_iteration(self, budget: int, tolerance: float = 0.05) -> int:
        """First iteration whose exec time is within ``tolerance`` of the final one."""
        curve = self.curves[budget]
        final = curve.final_point().norm_exec
        for point in curve.points:
            if point.norm_exec <= final * (1.0 + tolerance):
                return point.iteration
        return curve.final_point().iteration


def _evaluate_frozen(
    setup: ExperimentSetup,
    policy: CohmeleonPolicy,
    test_app: ApplicationSpec,
    reference_exec: Dict[str, float],
    reference_mem: Dict[str, float],
) -> TrainingCurvePoint:
    """Evaluate the current model without touching its learning state."""
    saved_epsilon = policy.agent.epsilon
    saved_alpha = policy.agent.alpha
    saved_learning = policy.agent.learning_enabled
    policy.freeze()
    result = evaluate_policy(setup, policy, test_app)
    policy.agent.learning_enabled = saved_learning
    policy.agent.epsilon = saved_epsilon
    policy.agent.alpha = saved_alpha
    per_phase_exec = {phase.name: phase.execution_cycles for phase in result.phases}
    per_phase_mem = {phase.name: float(phase.ddr_accesses) for phase in result.phases}
    return TrainingCurvePoint(
        iteration=0,
        norm_exec=geomean_ratio(per_phase_exec, reference_exec),
        norm_mem=geomean_ratio(per_phase_mem, reference_mem),
    )


def _training_budget_job(params: Dict[str, object], rng) -> Dict[str, object]:
    """Sweep job: one training-budget curve of the Figure 8 study."""
    setup: ExperimentSetup = params["setup"]  # type: ignore[assignment]
    budget = int(params["budget"])  # type: ignore[arg-type]
    seed = int(params["seed"])  # type: ignore[arg-type]
    test_app: ApplicationSpec = params["test_app"]  # type: ignore[assignment]
    train_app: ApplicationSpec = params["train_app"]  # type: ignore[assignment]
    reference_exec = {str(k): float(v) for k, v in dict(params["reference_exec"]).items()}  # type: ignore[arg-type]
    reference_mem = {str(k): float(v) for k, v in dict(params["reference_mem"]).items()}  # type: ignore[arg-type]

    policy = CohmeleonPolicy(
        weights=params["weights"],  # type: ignore[arg-type]
        rng=SeededRNG(seed).spawn("training-study", budget),
    )
    points: List[Dict[str, float]] = []

    # Iteration 0: untrained model (equivalent to the random policy).
    point = _evaluate_frozen(setup, policy, test_app, reference_exec, reference_mem)
    point.iteration = 0
    points.append({"iteration": 0, "norm_exec": point.norm_exec, "norm_mem": point.norm_mem})

    soc, runtime = build_runtime(setup, policy)
    for iteration in range(budget):
        policy.set_training_progress(iteration / budget)
        run_application(soc, runtime, train_app)
        point = _evaluate_frozen(setup, policy, test_app, reference_exec, reference_mem)
        points.append(
            {
                "iteration": iteration + 1,
                "norm_exec": point.norm_exec,
                "norm_mem": point.norm_mem,
            }
        )
    return {"total_iterations": budget, "points": points}


def run_training_study(
    setup: Optional[ExperimentSetup] = None,
    budgets: Sequence[int] = TRAINING_BUDGETS,
    weights: RewardWeights = DEFAULT_REWARD_WEIGHTS,
    seed: int = 23,
    test_app: Optional[ApplicationSpec] = None,
    train_app: Optional[ApplicationSpec] = None,
    runner: Optional[SweepRunner] = None,
) -> TrainingStudyResult:
    """Run the Figure 8 training-time study (one sweep job per budget)."""
    if not budgets:
        raise ExperimentError("at least one training budget is required")
    setup = setup if setup is not None else traffic_setup("SoC0", seed=seed)
    test_app = test_app if test_app is not None else figure5_application(setup, seed=seed)
    train_app = (
        train_app if train_app is not None else training_application(setup, seed=seed + 1)
    )

    # Reference: the fixed non-coherent-DMA policy on the test application.
    reference_result = evaluate_policy(
        setup, FixedPolicy(CoherenceMode.NON_COH_DMA), test_app
    )
    reference_exec = {p.name: p.execution_cycles for p in reference_result.phases}
    reference_mem = {p.name: float(p.ddr_accesses) for p in reference_result.phases}

    jobs = [
        Job(
            # The index keeps keys unique if a budget is repeated.
            key=f"{index}-budget-{budget}",
            fn=_training_budget_job,
            params={
                "setup": setup,
                "budget": budget,
                "seed": seed,
                "weights": weights,
                "test_app": test_app,
                "train_app": train_app,
                "reference_exec": reference_exec,
                "reference_mem": reference_mem,
            },
            seed=seed,
        )
        for index, budget in enumerate(budgets)
    ]
    spec = SweepSpec(name=f"training-{setup.name}", jobs=jobs)
    outcome = run_spec(spec, runner)

    curves: Dict[int, TrainingCurve] = {}
    for budget, payload in zip(budgets, outcome.payloads.values()):
        curves[budget] = TrainingCurve(
            total_iterations=budget,
            points=[
                TrainingCurvePoint(
                    iteration=int(entry["iteration"]),
                    norm_exec=float(entry["norm_exec"]),
                    norm_mem=float(entry["norm_mem"]),
                )
                for entry in payload["points"]
            ],
        )
    return TrainingStudyResult(setup_name=setup.name, curves=curves)
