"""Tabular Q-value storage.

The Q-table has one row per discretised state (243) and one column per
action (the four coherence modes), i.e. 972 entries as in the paper.  The
update rule is the one the paper gives::

    Q(s, a) <- (1 - alpha) * Q(s, a) + alpha * R(s, a)

(there is no next-state bootstrap term: each invocation is an independent
decision whose reward arrives before the next decision for that
accelerator, so the problem is treated as a contextual bandit).

Values and update counts live in two dense ``(state, mode)`` numpy
matrices, which are also the persisted form (:meth:`QTable.to_dict`).

Batched operations (:meth:`QTable.update_batch`,
:meth:`QTable.best_modes`) apply updates **in arrival order** with the
exact scalar recurrence above.  Folding a batch into a closed-form
cumulative product would change the floating-point rounding (summation
order changes results), so the batched path deliberately replays the
sequential recurrence; ``tests/test_qlearning.py`` pins the digest of a
seeded 1k-step episode to keep it that way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.state import NUM_STATES, CoherenceState
from repro.errors import PolicyError
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode, mode_index
from repro.utils.rng import SeededRNG


class QTable:
    """Q-values for every (state, coherence mode) pair."""

    def __init__(self, num_states: int = NUM_STATES, initial_value: float = 0.0) -> None:
        if num_states <= 0:
            raise PolicyError("the Q-table needs at least one state")
        self.num_states = num_states
        self.num_actions = len(COHERENCE_MODES)
        self._values = np.full((num_states, self.num_actions), float(initial_value))
        self._updates = np.zeros((num_states, self.num_actions), dtype=np.int64)

    # ------------------------------------------------------------------
    def _state_index(self, state: "CoherenceState | int") -> int:
        index = state.index if isinstance(state, CoherenceState) else int(state)
        if not 0 <= index < self.num_states:
            raise PolicyError(f"state index {index} out of range")
        return index

    @staticmethod
    def _check_alpha(alpha: float) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise PolicyError(f"learning rate must be in [0, 1], got {alpha}")

    def value(self, state: "CoherenceState | int", mode: CoherenceMode) -> float:
        """Q-value of taking ``mode`` from ``state``."""
        return float(self._values[self._state_index(state), mode_index(mode)])

    def update(
        self,
        state: "CoherenceState | int",
        mode: CoherenceMode,
        reward: float,
        alpha: float,
    ) -> float:
        """Apply the paper's exponential-averaging update; return the new value."""
        self._check_alpha(alpha)
        s = self._state_index(state)
        a = mode_index(mode)
        new_value = (1.0 - alpha) * self._values[s, a] + alpha * float(reward)
        self._values[s, a] = new_value
        self._updates[s, a] += 1
        return float(new_value)

    def update_batch(
        self,
        states: Sequence["CoherenceState | int"],
        modes: Sequence[CoherenceMode],
        rewards: Sequence[float],
        alphas: Sequence[float],
    ) -> None:
        """Apply a batch of TD updates **in arrival order**.

        All four sequences must have equal length; element ``i`` is one
        ``update(states[i], modes[i], rewards[i], alphas[i])``.  The batch
        is replayed with the exact scalar recurrence of :meth:`update` —
        never folded into a reordered summation, which would change the
        floating-point results — so a batched training loop is
        bit-identical to the per-step one.  The whole batch is checked
        before any of it is applied, so a rejected batch leaves the table
        unchanged.
        """
        if not len(states) == len(modes) == len(rewards) == len(alphas):
            raise PolicyError(
                "update_batch requires states, modes, rewards, and alphas "
                "of equal length"
            )
        steps = []
        for state, mode, reward, alpha in zip(states, modes, rewards, alphas):
            self._check_alpha(alpha)
            steps.append((self._state_index(state), mode_index(mode), float(reward), alpha))
        values = self._values
        updates = self._updates
        for s, a, reward, alpha in steps:
            values[s, a] = (1.0 - alpha) * values[s, a] + alpha * reward
            updates[s, a] += 1

    def best_mode(
        self,
        state: "CoherenceState | int",
        allowed: Optional[Sequence[CoherenceMode]] = None,
        rng: Optional["SeededRNG"] = None,
    ) -> CoherenceMode:
        """Mode with the highest Q-value in ``state`` (restricted to ``allowed``).

        Ties — in particular the all-zero rows of states that have never
        been visited — are broken uniformly at random when an ``rng`` is
        provided, so the untrained table does not systematically favour the
        first action of the canonical ordering.
        """
        if allowed is not None and len(allowed) == 0:
            raise PolicyError("no coherence modes available to choose from")
        candidates: Sequence[CoherenceMode] = allowed if allowed else COHERENCE_MODES
        row = self._values[self._state_index(state)].tolist()
        values = [row[mode_index(mode)] for mode in candidates]
        best_value = max(values)
        # Exact equality only: an absolute threshold is scale-dependent —
        # it merges genuinely distinct values once they sit below it, and
        # `best - 1e-12` rounds back to `best` once Q-values grow large —
        # and every value admitted here consumes a tie-break RNG draw,
        # which must not depend on the magnitude the table has reached.
        best_candidates = [
            mode for mode, value in zip(candidates, values) if value == best_value
        ]
        if rng is not None and len(best_candidates) > 1:
            return rng.choice(best_candidates)
        return best_candidates[0]

    def best_modes(self, states: Sequence["CoherenceState | int"]) -> List[CoherenceMode]:
        """Greedy mode for each of ``states`` (deterministic, no tie RNG).

        The batch counterpart of ``best_mode(state, rng=None)``: ties
        resolve to the first mode of the canonical ordering.  This is a
        dense argmax over the value matrix (``numpy.argmax`` returns the
        first maximal index, which matches the scalar tie rule exactly
        because comparisons are exact float equality on both paths).
        """
        if not states:
            return []
        indices = [self._state_index(state) for state in states]
        winners = np.argmax(self._values[indices], axis=1)
        return [COHERENCE_MODES[int(winner)] for winner in winners]

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """A copy of the full Q-value matrix."""
        return self._values.copy()

    def update_counts(self) -> np.ndarray:
        """Number of updates applied to every entry."""
        return self._updates.copy()

    def visited_states(self) -> List[int]:
        """Indices of states that have received at least one update."""
        return [int(index) for index in np.flatnonzero(self._updates.sum(axis=1))]

    def coverage(self) -> float:
        """Fraction of states visited at least once."""
        return len(self.visited_states()) / self.num_states

    def to_dict(self) -> Dict[str, object]:
        """Serialise the table (e.g. to persist a trained model)."""
        return {
            "num_states": self.num_states,
            "values": self._values.tolist(),
            "updates": self._updates.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QTable":
        """Restore a table serialised with :meth:`to_dict`.

        Both matrices are validated — shape, dtype, and value domain — so a
        corrupt or hand-edited payload fails loudly here instead of
        corrupting :meth:`visited_states`/:meth:`coverage` or blowing up
        deep inside a simulation:

        * ``values`` must be a ``(num_states, num_actions)`` matrix of
          finite numbers (NaN/inf Q-values would poison every later
          comparison in :meth:`best_mode`);
        * ``updates`` must be a same-shaped matrix of non-negative
          integers (update *counts*; a float or negative payload is
          corrupt, not coercible).
        """
        for key in ("num_states", "values", "updates"):
            if key not in payload:
                raise PolicyError(f"serialised Q-table is missing the {key!r} field")
        try:
            num_states = int(payload["num_states"])  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"serialised Q-table num_states is invalid: {exc}") from exc
        table = cls(num_states=num_states)
        # np.array copies even an ndarray payload, so the table never
        # writes into its caller's arrays.
        try:
            values = np.array(payload["values"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"serialised Q-table values are not numeric: {exc}") from exc
        if values.shape != table._values.shape:
            raise PolicyError(
                f"serialised Q-table values have shape {values.shape}, "
                f"expected {table._values.shape}"
            )
        if not np.isfinite(values).all():
            raise PolicyError("serialised Q-table contains non-finite values")
        try:
            updates_raw = np.asarray(payload["updates"])
        except (TypeError, ValueError) as exc:  # pragma: no cover - asarray is lax
            raise PolicyError(f"serialised Q-table update counts are invalid: {exc}") from exc
        if updates_raw.shape != table._updates.shape:
            raise PolicyError(
                f"serialised Q-table update counts have shape {updates_raw.shape}, "
                f"expected {table._updates.shape}"
            )
        if not np.issubdtype(updates_raw.dtype, np.number):
            raise PolicyError("serialised Q-table update counts are not numeric")
        if not np.isfinite(np.asarray(updates_raw, dtype=float)).all():
            raise PolicyError("serialised Q-table update counts are non-finite")
        updates = np.array(updates_raw, dtype=np.int64)
        if (np.asarray(updates_raw, dtype=float) != updates).any():
            raise PolicyError("serialised Q-table update counts are not integers")
        if (updates < 0).any():
            raise PolicyError("serialised Q-table update counts are negative")
        table._values = values
        table._updates = updates
        return table

    def reset(self, initial_value: float = 0.0) -> None:
        """Reset all entries (the paper initialises the table to zero)."""
        self._values.fill(float(initial_value))
        self._updates.fill(0)
