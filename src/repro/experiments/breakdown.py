"""Figure 7 — breakdown of coherence decisions.

For the trained Cohmeleon model and for the manually-tuned heuristic, the
figure reports which fraction of invocations used each coherence mode,
both overall and split by workload-size class (S/M/L/XL).  The paper's
observation: Cohmeleon learns a distribution similar to the manual
algorithm's, but relies less on non-coherent DMA and more on coherent /
LLC-coherent DMA for workloads that fit on chip, because its bi-objective
reward also penalises off-chip accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.accelerators.invocation import InvocationResult
from repro.errors import ExperimentError
from repro.experiments.common import (
    ExperimentSetup,
    PolicyEvaluation,
    evaluate_policies,
    make_standard_policies,
    traffic_setup,
)
from repro.experiments.phases import figure5_application, training_application
from repro.experiments.sweep import SweepRunner
from repro.soc.coherence import COHERENCE_MODES
from repro.workloads.sizes import size_class_of

#: Row labels of Figure 7: the overall breakdown plus one row per size class.
BREAKDOWN_CATEGORIES = ("All", "S", "M", "L", "XL")


@dataclass
class DecisionBreakdown:
    """Coherence-mode selection frequencies for one policy."""

    policy_name: str
    #: ``{category: {mode_label: fraction}}`` with fractions summing to one
    #: per category (categories with no invocations are omitted).
    frequencies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    def frequency(self, category: str, mode_label: str) -> float:
        """Selection frequency of ``mode_label`` within ``category``."""
        return self.frequencies.get(category, {}).get(mode_label, 0.0)


def breakdown_from_invocations(
    policy_name: str,
    invocations: Sequence[InvocationResult],
    setup: ExperimentSetup,
) -> DecisionBreakdown:
    """Compute the Figure 7 breakdown from a set of invocation results."""
    if not invocations:
        raise ExperimentError("cannot compute a breakdown from zero invocations")
    per_category_counts: Dict[str, Dict[str, int]] = {
        category: {mode.label: 0 for mode in COHERENCE_MODES}
        for category in BREAKDOWN_CATEGORIES
    }
    totals: Dict[str, int] = {category: 0 for category in BREAKDOWN_CATEGORIES}
    for invocation in invocations:
        size_class = size_class_of(invocation.footprint_bytes, setup.soc_config)
        for category in ("All", size_class.value):
            per_category_counts[category][invocation.mode.label] += 1
            totals[category] += 1

    frequencies: Dict[str, Dict[str, float]] = {}
    for category, counts in per_category_counts.items():
        total = totals[category]
        if total == 0:
            continue
        frequencies[category] = {
            mode_label: count / total for mode_label, count in counts.items()
        }
    return DecisionBreakdown(
        policy_name=policy_name, frequencies=frequencies, counts=dict(totals)
    )


@dataclass
class BreakdownResult:
    """Figure 7: breakdowns for Cohmeleon and the manual heuristic."""

    setup_name: str
    breakdowns: Dict[str, DecisionBreakdown]
    evaluations: Dict[str, PolicyEvaluation]


def run_breakdown_experiment(
    setup: Optional[ExperimentSetup] = None,
    policy_kinds: Sequence[str] = ("manual", "cohmeleon"),
    training_iterations: int = 10,
    seed: int = 17,
    runner: Optional[SweepRunner] = None,
) -> BreakdownResult:
    """Run the Figure 7 experiment."""
    setup = setup if setup is not None else traffic_setup("SoC0", seed=seed)
    test_app = figure5_application(setup, seed=seed)
    train_app = training_application(setup, seed=seed + 1)
    policies = make_standard_policies(policy_kinds, seed)
    evaluations = evaluate_policies(
        setup,
        policies,
        test_app,
        training_app=train_app,
        training_iterations=training_iterations,
        runner=runner,
    )
    breakdowns = {
        name: breakdown_from_invocations(name, evaluation.result.invocations, setup)
        for name, evaluation in evaluations.items()
    }
    return BreakdownResult(
        setup_name=setup.name, breakdowns=breakdowns, evaluations=evaluations
    )
