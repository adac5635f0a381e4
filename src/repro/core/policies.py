"""Coherence-selection policies.

This module provides the policy the paper proposes (Cohmeleon, an online
Q-learning agent) and every baseline it is compared against in Section 6:

* ``FixedPolicy`` — one coherence mode for every invocation (the four
  fixed homogeneous policies of the figures);
* ``FixedHeterogeneousPolicy`` — one mode per accelerator, chosen offline
  by profiling (the design-time approach of prior work);
* ``RandomPolicy`` — a uniformly random mode per invocation;
* ``ManualPolicy`` — the manually-tuned runtime heuristic of Algorithm 1;
* ``CohmeleonPolicy`` — the reinforcement-learning approach.

Policies expose a small uniform interface so the runtime can treat them
interchangeably: ``select_mode`` (the *decide* step) and ``observe_result``
(called at the *evaluate* step, which is how Cohmeleon learns online).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.core.agent import AgentConfig, QLearningAgent
from repro.core.qtable import QTable
from repro.core.reward import DEFAULT_REWARD_WEIGHTS, RewardTracker, RewardWeights
from repro.core.state import CoherenceState, discretize_snapshot
from repro.errors import PolicyError
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.units import KB
from repro.utils.rng import SeededRNG

if TYPE_CHECKING:
    from repro.accelerators.invocation import InvocationRequest, InvocationResult
    from repro.runtime.status import SystemSnapshot


class CoherencePolicy:
    """Base class for all coherence-selection policies."""

    #: Cycles of software overhead the policy adds to every invocation
    #: (status tracking, decision making, monitor reads).
    overhead_cycles: float = 0.0

    def __init__(self, name: str) -> None:
        self.name = name

    # ------------------------------------------------------------------
    def select_mode(
        self,
        snapshot: SystemSnapshot,
        request: InvocationRequest,
        supported: Sequence[CoherenceMode],
    ) -> CoherenceMode:
        """Choose a coherence mode for the invocation described by ``request``."""
        raise NotImplementedError

    def observe_result(
        self,
        request: InvocationRequest,
        mode: CoherenceMode,
        snapshot: SystemSnapshot,
        result: InvocationResult,
    ) -> None:
        """Receive the measured outcome of an invocation (default: ignore)."""

    # ------------------------------------------------------------------
    @staticmethod
    def _fallback(preferred: CoherenceMode, supported: Sequence[CoherenceMode]) -> CoherenceMode:
        """Return ``preferred`` if supported, else the closest supported mode."""
        if preferred in supported:
            return preferred
        if not supported:
            raise PolicyError("the target tile supports no coherence mode")
        # Fully-coherent degrades to coherent DMA (the next most hardware-
        # coherent option), everything else to the first supported mode.
        if preferred is CoherenceMode.FULL_COH and CoherenceMode.COH_DMA in supported:
            return CoherenceMode.COH_DMA
        return supported[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class FixedPolicy(CoherencePolicy):
    """Design-time policy: the same coherence mode for every invocation."""

    overhead_cycles = 50.0

    def __init__(self, mode: CoherenceMode) -> None:
        super().__init__(name=f"fixed-{mode.label}")
        self.mode = mode

    def select_mode(
        self,
        snapshot: SystemSnapshot,
        request: InvocationRequest,
        supported: Sequence[CoherenceMode],
    ) -> CoherenceMode:
        """Return the fixed mode (or the closest supported fallback)."""
        return self._fallback(self.mode, supported)


class FixedHeterogeneousPolicy(CoherencePolicy):
    """Design-time policy with one (profiled) mode per accelerator."""

    overhead_cycles = 50.0

    def __init__(
        self,
        mode_per_accelerator: Mapping[str, CoherenceMode],
        default_mode: CoherenceMode = CoherenceMode.NON_COH_DMA,
    ) -> None:
        super().__init__(name="fixed-hetero")
        self.mode_per_accelerator = dict(mode_per_accelerator)
        self.default_mode = default_mode

    def select_mode(
        self,
        snapshot: SystemSnapshot,
        request: InvocationRequest,
        supported: Sequence[CoherenceMode],
    ) -> CoherenceMode:
        """Return the profiled per-accelerator mode (or the default)."""
        preferred = self.mode_per_accelerator.get(
            request.accelerator.name, self.default_mode
        )
        return self._fallback(preferred, supported)


class RandomPolicy(CoherencePolicy):
    """Uniformly random coherence mode for every invocation."""

    overhead_cycles = 100.0

    def __init__(self, rng: Optional[SeededRNG] = None) -> None:
        super().__init__(name="rand")
        self.rng = rng if rng is not None else SeededRNG(0)

    def select_mode(
        self,
        snapshot: SystemSnapshot,
        request: InvocationRequest,
        supported: Sequence[CoherenceMode],
    ) -> CoherenceMode:
        """Draw a uniformly random mode from the supported set."""
        if not supported:
            raise PolicyError("the target tile supports no coherence mode")
        return self.rng.choice(list(supported))


@dataclass(frozen=True)
class ManualPolicyThresholds:
    """Tunable constants of the manually-tuned heuristic (Algorithm 1)."""

    extra_small_bytes: int = 4 * KB


class ManualPolicy(CoherencePolicy):
    """The manually-tuned, introspective heuristic of Algorithm 1.

    The algorithm was tuned by the paper's authors for the ESP platform
    using tens of thousands of profiled invocations; it consumes the same
    sensed state as Cohmeleon but its rules are fixed:

    * tiny footprints run fully coherent;
    * footprints that fit in the private cache run fully coherent or with
      coherent DMA, whichever mode is currently less contended;
    * footprints that (together with the already-active data) overflow the
      aggregate LLC run non-coherent;
    * everything else uses coherent DMA, falling back to LLC-coherent DMA
      when two or more non-coherent accelerators are already active.
    """

    overhead_cycles = 400.0

    def __init__(self, thresholds: ManualPolicyThresholds = ManualPolicyThresholds()) -> None:
        super().__init__(name="manual")
        self.thresholds = thresholds

    def select_mode(
        self,
        snapshot: SystemSnapshot,
        request: InvocationRequest,
        supported: Sequence[CoherenceMode],
    ) -> CoherenceMode:
        """Apply the Algorithm 1 rules to the sensed snapshot."""
        footprint = snapshot.target_footprint_bytes
        active_fully_coh = snapshot.active_count(CoherenceMode.FULL_COH)
        active_coh_dma = snapshot.active_count(CoherenceMode.COH_DMA)
        active_non_coh = snapshot.active_count(CoherenceMode.NON_COH_DMA)

        if footprint <= self.thresholds.extra_small_bytes:
            choice = CoherenceMode.FULL_COH
        elif footprint <= snapshot.l2_bytes:
            if active_coh_dma > active_fully_coh:
                choice = CoherenceMode.FULL_COH
            else:
                choice = CoherenceMode.COH_DMA
        elif footprint + snapshot.active_footprint_bytes > snapshot.llc_total_bytes:
            choice = CoherenceMode.NON_COH_DMA
        else:
            if active_non_coh >= 2:
                choice = CoherenceMode.LLC_COH_DMA
            else:
                choice = CoherenceMode.COH_DMA
        return self._fallback(choice, supported)


@dataclass
class DecisionRecord:
    """One coherence decision made by the Cohmeleon policy (for Figure 7)."""

    accelerator_name: str
    footprint_bytes: int
    state: CoherenceState
    mode: CoherenceMode
    explored: bool
    reward: float = 0.0


class CohmeleonPolicy(CoherencePolicy):
    """Cohmeleon: online Q-learning selection of the coherence mode."""

    overhead_cycles = 1500.0

    def __init__(
        self,
        weights: RewardWeights = DEFAULT_REWARD_WEIGHTS,
        agent_config: Optional[AgentConfig] = None,
        rng: Optional[SeededRNG] = None,
    ) -> None:
        super().__init__(name="cohmeleon")
        self.agent = QLearningAgent(
            config=agent_config if agent_config is not None else AgentConfig(),
            rng=rng if rng is not None else SeededRNG(0),
        )
        self.reward_tracker = RewardTracker(weights)
        self.decisions: List[DecisionRecord] = []
        self._pending: Dict[str, DecisionRecord] = {}

    # ------------------------------------------------------------------
    def select_mode(
        self,
        snapshot: SystemSnapshot,
        request: InvocationRequest,
        supported: Sequence[CoherenceMode],
    ) -> CoherenceMode:
        """Discretize the snapshot and let the Q-learning agent choose."""
        state = discretize_snapshot(snapshot)
        before_random = self.agent.random_decisions
        mode = self.agent.select_action(state, allowed=supported)
        record = DecisionRecord(
            accelerator_name=request.accelerator.name,
            footprint_bytes=request.footprint_bytes,
            state=state,
            mode=mode,
            explored=self.agent.random_decisions > before_random,
        )
        self.decisions.append(record)
        self._pending[request.tile_name] = record
        return mode

    def observe_result(
        self,
        request: InvocationRequest,
        mode: CoherenceMode,
        snapshot: SystemSnapshot,
        result: InvocationResult,
    ) -> None:
        """Compute the reward for the finished invocation and learn from it."""
        components = self.reward_tracker.evaluate(result)
        record = self._pending.pop(request.tile_name, None)
        state = record.state if record is not None else discretize_snapshot(snapshot)
        if record is not None:
            record.reward = components.total
        self.agent.update(state, mode, components.total)

    # ------------------------------------------------------------------
    # Persistence (see repro.models for the artifact format)
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, artifact: object) -> "CohmeleonPolicy":
        """Rebuild a *frozen* policy from a trained-policy artifact.

        ``artifact`` is a :class:`repro.models.PolicyArtifact` (accepted
        duck-typed so :mod:`repro.core` never imports :mod:`repro.models`):
        the Q-table, the agent hyper-parameters, the reward weights, and
        the agent's RNG stream — restored to the exact state it had when
        the policy was frozen after training — are all recovered, so a
        frozen evaluation of the reloaded policy is bit-identical to one
        that trained in-process.  The returned policy is frozen; call
        :meth:`unfreeze` to fine-tune it online instead.
        """
        state = artifact.policy_state  # type: ignore[attr-defined]
        if state.get("kind") != "cohmeleon":
            raise PolicyError(
                f"artifact holds a {state.get('kind')!r} policy, expected 'cohmeleon'"
            )
        config = AgentConfig(**{
            key: float(value) for key, value in dict(state["agent_config"]).items()
        })
        weights = RewardWeights(**{
            key: float(value) for key, value in dict(state["reward_weights"]).items()
        })
        rng_doc = dict(state["rng"])
        rng = SeededRNG(int(rng_doc["seed"]))
        if rng_doc.get("state") is not None:
            try:
                rng.restore_state(rng_doc["state"])
            except ValueError as exc:
                raise PolicyError(f"artifact RNG state is corrupt: {exc}") from exc
        policy = cls(weights=weights, agent_config=config, rng=rng)
        policy.agent.qtable = QTable.from_dict(dict(state["qtable"]))
        policy.freeze()
        return policy

    def policy_state(self) -> Dict[str, object]:
        """Serialise the learned state (the artifact's ``policy`` block).

        The inverse of :meth:`from_artifact`: captures the Q-table, the
        hyper-parameters, the reward weights, and the agent RNG stream's
        current position.  Everything is JSON-able.
        """
        return {
            "kind": "cohmeleon",
            "agent_config": {
                "initial_epsilon": self.agent.config.initial_epsilon,
                "initial_alpha": self.agent.config.initial_alpha,
            },
            "reward_weights": {
                "exec_weight": self.reward_tracker.weights.exec_weight,
                "comm_weight": self.reward_tracker.weights.comm_weight,
                "mem_weight": self.reward_tracker.weights.mem_weight,
            },
            "qtable": self.agent.qtable.to_dict(),
            "rng": {
                "seed": self.agent.rng.seed,
                "state": self.agent.rng.export_state(),
            },
        }

    # ------------------------------------------------------------------
    # Training-schedule helpers used by the experiment harnesses
    # ------------------------------------------------------------------
    def set_training_progress(self, fraction: float) -> None:
        """Linearly decay exploration and learning rate (0 → start, 1 → end)."""
        self.agent.set_training_progress(fraction)

    def freeze(self) -> None:
        """Stop exploring and learning; evaluate the learned policy."""
        self.agent.freeze()

    def unfreeze(self) -> None:
        """Resume online learning."""
        self.agent.unfreeze()

    @property
    def qtable(self):
        """The underlying Q-table (for inspection and persistence)."""
        return self.agent.qtable

    def decision_breakdown(self) -> Dict[str, int]:
        """Count of decisions per coherence mode (used for Figure 7)."""
        breakdown: Dict[str, int] = {m.label: 0 for m in COHERENCE_MODES}
        for record in self.decisions:
            breakdown[record.mode.label] += 1
        return breakdown

    def clear_history(self) -> None:
        """Drop the recorded decisions (keeps the learned Q-table)."""
        self.decisions.clear()
        self._pending.clear()
