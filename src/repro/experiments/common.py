"""Shared infrastructure for the experiment harnesses.

An :class:`ExperimentSetup` bundles a SoC configuration with the accelerator
descriptors bound to its tiles; :func:`evaluate_policies` runs the standard
set of eight coherence policies (the four fixed homogeneous policies, the
random policy, the profiled fixed-heterogeneous policy, the manually-tuned
heuristic, and Cohmeleon) on a training/testing application pair, training
the learning-based policy online exactly as the paper describes: learn on a
randomly configured instance of the evaluation application with linearly
decaying epsilon/alpha, freeze, and evaluate on a different instance.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.accelerators.descriptor import AccessPattern, AcceleratorDescriptor
from repro.accelerators.library import ACCELERATOR_LIBRARY
from repro.accelerators.traffic import TrafficGeneratorFactory
from repro.core.policies import (
    CoherencePolicy,
    CohmeleonPolicy,
    FixedHeterogeneousPolicy,
    FixedPolicy,
    ManualPolicy,
    RandomPolicy,
)
from repro.core.reward import DEFAULT_REWARD_WEIGHTS, RewardWeights
from repro.errors import ExperimentError
from repro.experiments.sweep import Job, SweepRunner, SweepSpec, run_spec
from repro.runtime.api import EspRuntime
from repro.soc.coherence import CoherenceMode
from repro.soc.config import SoCConfig, soc_preset
from repro.soc.soc import Soc
from repro.utils.rng import SeededRNG
from repro.workloads.runner import ApplicationResult, run_application
from repro.workloads.spec import ApplicationSpec

#: The coherence policies compared throughout Section 6, in figure order.
STANDARD_POLICY_KINDS: Tuple[str, ...] = (
    "fixed-non-coh-dma",
    "fixed-llc-coh-dma",
    "fixed-coh-dma",
    "fixed-full-coh",
    "rand",
    "fixed-hetero",
    "manual",
    "cohmeleon",
)

#: The policy every figure normalises against.
REFERENCE_POLICY = "fixed-non-coh-dma"

#: Cache-model granularity used by the large experiment sweeps.  Modelling
#: caches at 256-byte blocks (instead of 64-byte lines) cuts simulation cost
#: roughly four-fold without changing any relative result, because every
#: coherence mode is scaled identically.
EXPERIMENT_LINE_BYTES = 256


@dataclass
class ExperimentSetup:
    """A SoC configuration plus the accelerators bound to its tiles."""

    name: str
    soc_config: SoCConfig
    accelerators: List[AcceleratorDescriptor]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.accelerators:
            raise ExperimentError(f"setup {self.name}: no accelerators")
        if len(self.accelerators) > self.soc_config.num_accelerator_tiles:
            raise ExperimentError(
                f"setup {self.name}: {len(self.accelerators)} accelerators do not fit "
                f"in {self.soc_config.num_accelerator_tiles} tiles"
            )

    @property
    def accelerator_names(self) -> List[str]:
        """Distinct accelerator names available in this setup."""
        return sorted({descriptor.name for descriptor in self.accelerators})


def build_runtime(
    setup: ExperimentSetup, policy: CoherencePolicy
) -> Tuple[Soc, EspRuntime]:
    """Instantiate a fresh SoC for ``setup`` and bind its accelerators."""
    soc = Soc(setup.soc_config)
    runtime = EspRuntime(soc, policy)
    runtime.bind_library(setup.accelerators)
    return soc, runtime


# ----------------------------------------------------------------------
# Setup factories
# ----------------------------------------------------------------------

def motivation_setup(
    accelerators: Optional[Sequence[AcceleratorDescriptor]] = None,
    line_bytes: Optional[int] = None,
) -> ExperimentSetup:
    """The Section 3 motivation SoC: 32 KB private caches, 2 x 512 KB LLC."""
    config = soc_preset("Motivation")
    if line_bytes is not None:
        config = config.with_line_size(line_bytes)
    descriptors = list(accelerators) if accelerators is not None else list(ACCELERATOR_LIBRARY)
    return ExperimentSetup(name="Motivation", soc_config=config, accelerators=descriptors)


def traffic_setup(
    soc_name: str,
    pattern: Optional[AccessPattern] = None,
    seed: int = 0,
    line_bytes: int = EXPERIMENT_LINE_BYTES,
) -> ExperimentSetup:
    """A traffic-generator SoC (SoC0-SoC3), optionally pattern-restricted."""
    config = soc_preset(soc_name).with_line_size(line_bytes)
    factory = TrafficGeneratorFactory(SeededRNG(seed).spawn("traffic", soc_name, pattern))
    if pattern is None:
        accelerators = factory.build_mixed_set(config.num_accelerator_tiles)
    else:
        accelerators = factory.build_set(config.num_accelerator_tiles, pattern)
    label = soc_name if pattern is None else f"{soc_name}-{pattern.value}"
    return ExperimentSetup(name=label, soc_config=config, accelerators=accelerators, seed=seed)


# ----------------------------------------------------------------------
# Policy construction and evaluation
# ----------------------------------------------------------------------

def make_standard_policies(
    kinds: Sequence[str],
    seed: int,
    fixed_hetero_modes: Optional[Dict[str, CoherenceMode]] = None,
    reward_weights: RewardWeights = DEFAULT_REWARD_WEIGHTS,
) -> Dict[str, CoherencePolicy]:
    """Build the requested policies, in order, keyed by their display name."""
    policies: Dict[str, CoherencePolicy] = {}
    for kind in kinds:
        rng = SeededRNG(seed).spawn("policy", kind)
        if kind.startswith("fixed-") and kind != "fixed-hetero":
            mode_label = kind[len("fixed-"):]
            policies[kind] = FixedPolicy(
                next(m for m in CoherenceMode if m.value == mode_label)
            )
        elif kind == "fixed-hetero":
            policies[kind] = FixedHeterogeneousPolicy(fixed_hetero_modes or {})
        elif kind == "rand":
            policies[kind] = RandomPolicy(rng=rng)
        elif kind == "manual":
            policies[kind] = ManualPolicy()
        elif kind == "cohmeleon":
            policies[kind] = CohmeleonPolicy(weights=reward_weights, rng=rng)
        else:
            raise ExperimentError(f"unknown policy kind {kind!r}")
    return policies


@dataclass
class PolicyEvaluation:
    """Result of evaluating one policy on the test application."""

    policy_name: str
    result: ApplicationResult
    training_results: List[ApplicationResult] = field(default_factory=list)

    @property
    def per_phase_exec(self) -> Dict[str, float]:
        """Execution cycles of each test-application phase."""
        return {phase.name: phase.execution_cycles for phase in self.result.phases}

    @property
    def per_phase_ddr(self) -> Dict[str, float]:
        """Off-chip accesses of each test-application phase."""
        return {phase.name: float(phase.ddr_accesses) for phase in self.result.phases}

    def to_dict(self) -> Dict[str, object]:
        """JSON form (crosses process boundaries and persists in the cache)."""
        return {
            "policy_name": self.policy_name,
            "result": self.result.to_dict(),
            "training_results": [result.to_dict() for result in self.training_results],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PolicyEvaluation":
        """Rebuild an evaluation from :meth:`to_dict` output."""
        return cls(
            policy_name=str(data["policy_name"]),
            result=ApplicationResult.from_dict(data["result"]),  # type: ignore[arg-type]
            training_results=[
                ApplicationResult.from_dict(entry)
                for entry in list(data.get("training_results", []))
            ],
        )


def train_policy(
    setup: ExperimentSetup,
    policy: CohmeleonPolicy,
    training_app: ApplicationSpec,
    iterations: int,
    evaluation_hook: Optional[Callable[[int, CohmeleonPolicy], None]] = None,
    max_events: Optional[int] = None,
) -> List[ApplicationResult]:
    """Train a Cohmeleon policy online for ``iterations`` application runs.

    Epsilon and alpha decay linearly to zero over the training iterations,
    as in the paper.  ``evaluation_hook`` (used by the Figure 8 study) is
    called after every iteration with the iteration index and the policy.
    ``max_events`` bounds each phase's event budget (bounded what-if
    evaluations; ``None`` keeps the engine default).
    """
    if iterations <= 0:
        return []
    soc, runtime = build_runtime(setup, policy)
    results: List[ApplicationResult] = []
    for iteration in range(iterations):
        policy.set_training_progress(iteration / iterations)
        results.append(
            run_application(soc, runtime, training_app, max_events=max_events)
        )
        if evaluation_hook is not None:
            evaluation_hook(iteration, policy)
    return results


def evaluate_policy(
    setup: ExperimentSetup,
    policy: CoherencePolicy,
    test_app: ApplicationSpec,
    max_events: Optional[int] = None,
) -> ApplicationResult:
    """Run ``test_app`` once under ``policy`` on a fresh SoC."""
    soc, runtime = build_runtime(setup, policy)
    return run_application(soc, runtime, test_app, max_events=max_events)


def evaluate_one_policy(
    setup: ExperimentSetup,
    policy: CoherencePolicy,
    test_app: ApplicationSpec,
    training_app: Optional[ApplicationSpec] = None,
    training_iterations: int = 10,
    policy_name: Optional[str] = None,
    max_events: Optional[int] = None,
) -> PolicyEvaluation:
    """Train (if learning) and evaluate one policy; mutates ``policy``.

    ``max_events`` bounds every phase's event budget — training and
    evaluation alike — so a caller holding a request-scoped budget (the
    what-if path of :mod:`repro.serving`) cannot be run away from.
    """
    training_results: List[ApplicationResult] = []
    if isinstance(policy, CohmeleonPolicy):
        if training_app is not None and training_iterations > 0:
            training_results = train_policy(
                setup, policy, training_app, training_iterations,
                max_events=max_events,
            )
        policy.freeze()
        policy.clear_history()
    result = evaluate_policy(setup, policy, test_app, max_events=max_events)
    return PolicyEvaluation(
        policy_name=policy_name if policy_name is not None else policy.name,
        result=result,
        training_results=training_results,
    )


def _policy_evaluation_job(params: Dict[str, object], rng) -> Dict[str, object]:
    """Sweep job: evaluate one policy on one setup (see :func:`evaluate_policies`)."""
    evaluation = evaluate_one_policy(
        setup=params["setup"],  # type: ignore[arg-type]
        policy=params["policy"],  # type: ignore[arg-type]
        test_app=params["test_app"],  # type: ignore[arg-type]
        training_app=params["training_app"],  # type: ignore[arg-type]
        training_iterations=int(params["training_iterations"]),  # type: ignore[arg-type]
        policy_name=str(params["policy_name"]),
    )
    return evaluation.to_dict()


def evaluate_policies(
    setup: ExperimentSetup,
    policies: Dict[str, CoherencePolicy],
    test_app: ApplicationSpec,
    training_app: Optional[ApplicationSpec] = None,
    training_iterations: int = 10,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, PolicyEvaluation]:
    """Evaluate every policy on ``test_app`` (training the learning ones first).

    Every evaluation runs on a *deep copy* of the caller's policy object, so
    evaluations are independent of each other and of the caller: training,
    freezing, and history-clearing never leak into the passed-in policies,
    and two ``evaluate_policies`` calls with the same arguments return
    identical results.  With ``runner`` the per-policy evaluations dispatch
    through the sweep runner (one job per policy) and may execute in
    parallel worker processes.
    """
    jobs = [
        Job(
            key=name,
            fn=_policy_evaluation_job,
            params={
                "setup": setup,
                "policy": copy.deepcopy(policy),
                "policy_name": name,
                "test_app": test_app,
                "training_app": training_app,
                "training_iterations": training_iterations,
            },
            seed=setup.seed,
        )
        for name, policy in policies.items()
    ]
    spec = SweepSpec(name=f"evaluate-{setup.name}", jobs=jobs)
    outcome = run_spec(spec, runner)
    return {
        name: PolicyEvaluation.from_dict(outcome[name]) for name in policies
    }
