"""Epsilon-greedy Q-learning agent with linear decay.

The paper initialises the exploration rate to ``epsilon = 0.5`` and the
learning rate to ``alpha = 0.25`` and decays both linearly to zero over a
chosen number of training iterations; after training, updates are disabled
and the frozen policy is evaluated on a different application instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.qtable import QTable
from repro.core.state import CoherenceState
from repro.errors import PolicyError
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.utils.rng import SeededRNG


@dataclass
class AgentConfig:
    """Hyper-parameters of the Q-learning agent."""

    initial_epsilon: float = 0.5
    initial_alpha: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.initial_epsilon <= 1.0:
            raise PolicyError("initial_epsilon must be in [0, 1]")
        if not 0.0 <= self.initial_alpha <= 1.0:
            raise PolicyError("initial_alpha must be in [0, 1]")


class QLearningAgent:
    """Tabular Q-learning agent over the 243-state coherence problem."""

    def __init__(
        self,
        config: Optional[AgentConfig] = None,
        rng: Optional[SeededRNG] = None,
        qtable: Optional[QTable] = None,
    ) -> None:
        self.config = config if config is not None else AgentConfig()
        self.rng = rng if rng is not None else SeededRNG(0)
        self.qtable = qtable if qtable is not None else QTable()
        self.epsilon = self.config.initial_epsilon
        self.alpha = self.config.initial_alpha
        self.learning_enabled = True
        self.decisions = 0
        self.random_decisions = 0
        self.updates = 0

    # ------------------------------------------------------------------
    # Decision making
    # ------------------------------------------------------------------
    def select_action(
        self,
        state: CoherenceState,
        allowed: Optional[Sequence[CoherenceMode]] = None,
    ) -> CoherenceMode:
        """Pick a coherence mode for ``state`` with epsilon-greedy exploration."""
        # Keep the canonical tuple itself when unrestricted: choice() draws
        # by index so the RNG stream is unchanged, and best_mode() can skip
        # per-candidate index lookups when it sees the canonical ordering.
        candidates: Sequence[CoherenceMode] = (
            list(allowed) if allowed else COHERENCE_MODES
        )
        if not candidates:
            raise PolicyError("no coherence modes available to choose from")
        self.decisions += 1
        if self.learning_enabled and self.rng.maybe(self.epsilon):
            self.random_decisions += 1
            return self.rng.choice(candidates)
        return self.qtable.best_mode(state, allowed=candidates, rng=self.rng)

    def update(self, state: CoherenceState, mode: CoherenceMode, reward: float) -> float:
        """Apply a reward to the Q-table (no-op when learning is disabled)."""
        if not self.learning_enabled or self.alpha <= 0.0:
            return self.qtable.value(state, mode)
        self.updates += 1
        return self.qtable.update(state, mode, reward, self.alpha)

    # ------------------------------------------------------------------
    # Schedules
    # ------------------------------------------------------------------
    def set_training_progress(self, fraction: float) -> None:
        """Linearly decay epsilon and alpha; ``fraction`` runs from 0 to 1."""
        fraction = min(max(fraction, 0.0), 1.0)
        self.epsilon = self.config.initial_epsilon * (1.0 - fraction)
        self.alpha = self.config.initial_alpha * (1.0 - fraction)

    def freeze(self) -> None:
        """Disable exploration and learning (evaluation mode)."""
        self.learning_enabled = False
        self.epsilon = 0.0
        self.alpha = 0.0

    def unfreeze(self) -> None:
        """Re-enable learning with the initial hyper-parameters."""
        self.learning_enabled = True
        self.epsilon = self.config.initial_epsilon
        self.alpha = self.config.initial_alpha

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Diagnostic counters (useful in tests and reports)."""
        return {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "decisions": self.decisions,
            "random_decisions": self.random_decisions,
            "updates": self.updates,
            "state_coverage": self.qtable.coverage(),
        }
