"""Tabular Q-value storage.

The Q-table has one row per discretised state (243) and one column per
action (the four coherence modes), i.e. 972 entries as in the paper.  The
update rule is the one the paper gives::

    Q(s, a) <- (1 - alpha) * Q(s, a) + alpha * R(s, a)

(there is no next-state bootstrap term: each invocation is an independent
decision whose reward arrives before the next decision for that
accelerator, so the problem is treated as a contextual bandit).

Values are ``num_states`` rows of ``num_actions`` Python floats, and the
update counts are rows of ints; those nested lists are also the persisted
form (:meth:`QTable.to_dict`).  Every update evaluates the recurrence as
the one double-precision expression ``(1.0 - alpha) * q + alpha * reward``.
The greedy mode of a row is its first maximal entry in the canonical mode
order, the rule ``numpy.argmax`` follows; updates reject a non-finite
reward, so no NaN can make that rule ambiguous.

Regrouping the recurrence (say, folding a run of updates into a
cumulative product) would change the floating-point rounding, so
``tests/test_qlearning.py`` pins the digest of a seeded 1k-step episode.

The table uses no numpy.  It is read once per accelerator invocation and
holds 972 values, so a dense array buys nothing, while importing numpy
would cost every process that loads a policy about 14 MB of memory and
0.1-0.2 s at start-up.
"""

from __future__ import annotations

import copy
import math
import numbers
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
        self.reset(initial_value)

    def __deepcopy__(self, memo: Dict[int, object]) -> "QTable":
        """A copy that shares no row with this table."""
        clone = copy.copy(self)
        clone._values = [row[:] for row in self._values]
        clone._updates = [row[:] for row in self._updates]
        return clone

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

    @staticmethod
    def _finite_reward(reward: float) -> float:
        reward = float(reward)
        if not math.isfinite(reward):
            raise PolicyError(f"reward must be finite, got {reward}")
        return reward

    def value(self, state: "CoherenceState | int", mode: CoherenceMode) -> float:
        """Q-value of taking ``mode`` from ``state``."""
        return self._values[self._state_index(state)][mode_index(mode)]

    def update(
        self,
        state: "CoherenceState | int",
        mode: CoherenceMode,
        reward: float,
        alpha: float,
    ) -> float:
        """Apply the paper's exponential-averaging update; return the new value."""
        self._check_alpha(alpha)
        reward = self._finite_reward(reward)
        s = self._state_index(state)
        a = mode_index(mode)
        row = self._values[s]
        new_value = (1.0 - alpha) * row[a] + alpha * reward
        row[a] = new_value
        self._updates[s][a] += 1
        return new_value

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
        row = self._values[self._state_index(state)]
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
        resolve to the first mode of the canonical ordering, the first
        maximal index of each row (exact float equality on both paths).
        """
        rows = [self._values[self._state_index(state)] for state in states]
        return [COHERENCE_MODES[row.index(max(row))] for row in rows]

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def values(self) -> List[List[float]]:
        """A copy of the Q-values, one row per state."""
        return [row[:] for row in self._values]

    def update_counts(self) -> List[List[int]]:
        """Number of updates applied to every entry, one row per state."""
        return [row[:] for row in self._updates]

    def visited_states(self) -> List[int]:
        """Indices of states that have received at least one update."""
        return [index for index, counts in enumerate(self._updates) if any(counts)]

    def coverage(self) -> float:
        """Fraction of states visited at least once."""
        return len(self.visited_states()) / self.num_states

    def to_dict(self) -> Dict[str, object]:
        """Serialise the table (e.g. to persist a trained model)."""
        return {
            "num_states": self.num_states,
            "values": self.values,
            "updates": self.update_counts(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QTable":
        """Restore a table serialised with :meth:`to_dict`.

        Both matrices are validated — shape, element type, and value
        domain — so a corrupt or hand-edited payload fails loudly here
        instead of corrupting :meth:`visited_states`/:meth:`coverage` or
        blowing up deep inside a simulation:

        * ``values`` must be a ``(num_states, num_actions)`` matrix of
          finite numbers (NaN/inf Q-values would poison every later
          comparison in :meth:`best_mode`); numeric strings and booleans
          read as the numbers they spell;
        * ``updates`` must be a same-shaped matrix of non-negative
          integers (update *counts*; a fractional or negative payload is
          corrupt, not coercible).

        Any nested sequence is accepted, arrays included, and copied, so
        the table never writes into its caller's rows.
        """
        for key in ("num_states", "values", "updates"):
            if key not in payload:
                raise PolicyError(f"serialised Q-table is missing the {key!r} field")
        try:
            num_states = int(payload["num_states"])  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"serialised Q-table num_states is invalid: {exc}") from exc
        table = cls(num_states=num_states)
        shape = (num_states, table.num_actions)
        values = _rows(payload["values"], shape, "values")
        try:
            values = [[float(value) for value in row] for row in values]
        except (TypeError, ValueError, OverflowError) as exc:
            raise PolicyError(f"serialised Q-table values are not numeric: {exc}") from exc
        if not all(math.isfinite(value) for row in values for value in row):
            raise PolicyError("serialised Q-table contains non-finite values")
        counts = _rows(payload["updates"], shape, "update counts")
        if all(isinstance(count, bool) for row in counts for count in row):
            # Booleans among numbers read as 0 and 1, but a matrix of
            # booleans is not one of counts.
            raise PolicyError("serialised Q-table update counts are not numeric")
        table._values = values
        table._updates = [[_update_count(count) for count in row] for row in counts]
        return table

    def reset(self, initial_value: float = 0.0) -> None:
        """Reset all entries (the paper initialises the table to zero)."""
        value = float(initial_value)
        self._values = [[value] * self.num_actions for _ in range(self.num_states)]
        self._updates = [[0] * self.num_actions for _ in range(self.num_states)]


def _rows(matrix: object, shape: Tuple[int, int], name: str) -> List[List[object]]:
    """The rows of ``matrix`` as new lists, if it is a nested sequence of ``shape``."""
    num_rows, num_columns = shape
    try:
        if _is_sequence(matrix) and len(matrix) == num_rows:  # type: ignore[arg-type]
            rows = [
                list(row)
                for row in matrix  # type: ignore[attr-defined]
                if _is_sequence(row) and len(row) == num_columns
            ]
            if len(rows) == num_rows:
                return rows
    except TypeError:  # a zero-dimensional array has no len()
        pass
    raise PolicyError(f"serialised Q-table {name} do not have shape {shape}")


def _is_sequence(value: object) -> bool:
    """Whether ``value`` is a row (list, tuple, array) rather than a scalar.

    As in numpy, strings and mappings count as scalars.
    """
    return (
        hasattr(value, "__len__")
        and hasattr(value, "__getitem__")
        and not isinstance(value, (str, bytes, bytearray, Mapping))
    )


def _update_count(value: object) -> int:
    """One serialised update count as an int, or :class:`PolicyError`."""
    if isinstance(value, numbers.Integral):  # int, bool, numpy integers
        count = int(value)
    elif isinstance(value, numbers.Real):  # float, numpy floats
        number = float(value)
        if not math.isfinite(number):
            raise PolicyError("serialised Q-table update counts are non-finite")
        if not number.is_integer():
            raise PolicyError("serialised Q-table update counts are not integers")
        count = int(number)
    else:
        raise PolicyError("serialised Q-table update counts are not numeric")
    if count < 0:
        raise PolicyError("serialised Q-table update counts are negative")
    if count >= 2**63:
        raise PolicyError("serialised Q-table update counts overflow 64 bits")
    return count
