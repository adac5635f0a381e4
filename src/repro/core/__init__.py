"""Cohmeleon: the learning-based coherence orchestrator (paper Section 4).

This package contains the paper's primary contribution: the Q-learning
module that selects a cache-coherence mode for every accelerator invocation
at runtime, together with the baseline policies it is compared against
(random, fixed homogeneous, fixed heterogeneous, and the manually-tuned
heuristic of Algorithm 1).
"""

from repro.core.agent import QLearningAgent
from repro.core.policies import (
    CoherencePolicy,
    CohmeleonPolicy,
    FixedHeterogeneousPolicy,
    FixedPolicy,
    ManualPolicy,
    RandomPolicy,
)
from repro.core.qtable import QTable
from repro.core.reward import RewardComponents, RewardTracker, RewardWeights
from repro.core.state import NUM_STATES, CoherenceState, discretize_snapshot

__all__ = [
    "QLearningAgent",
    "QTable",
    "RewardWeights",
    "RewardTracker",
    "RewardComponents",
    "CoherenceState",
    "NUM_STATES",
    "discretize_snapshot",
    "CoherencePolicy",
    "CohmeleonPolicy",
    "FixedPolicy",
    "FixedHeterogeneousPolicy",
    "RandomPolicy",
    "ManualPolicy",
]
