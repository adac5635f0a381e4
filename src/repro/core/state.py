"""The RL state space (paper Table 3).

A state is a 5-tuple of attributes, each taking one of three values:

* ``fully_coh_acc`` — number of active fully-coherent accelerators
  (0, 1, 2+);
* ``non_coh_acc_per_tile`` — average number of non-coherent accelerators
  communicating with each memory partition needed by the target invocation
  (0, 1, 2+);
* ``to_llc_per_tile`` — average number of accelerators accessing each LLC
  partition needed by the target invocation (0, 1, 2+);
* ``tile_footprint`` — average utilisation of each partition of the cache
  hierarchy needed by the target (≤ L2, ≤ LLC slice, > LLC slice);
* ``acc_footprint`` — memory footprint of the target invocation
  (≤ L2, ≤ LLC slice, > LLC slice).

With 3 values per attribute the state space has 3^5 = 243 states, and the
Q-table has 243 x 4 = 972 entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.errors import PolicyError
from repro.soc.coherence import CoherenceMode

if TYPE_CHECKING:
    from repro.runtime.status import SystemSnapshot

#: Number of discrete values each attribute can take.
LEVELS_PER_ATTRIBUTE = 3

#: Number of attributes in a state.
NUM_ATTRIBUTES = 5

#: Total number of states (3^5 = 243).
NUM_STATES = LEVELS_PER_ATTRIBUTE**NUM_ATTRIBUTES


def _count_level(count: float) -> int:
    """Discretise a count into the paper's {0, 1, 2+} levels."""
    if count < 0.5:
        return 0
    if count < 1.5:
        return 1
    return 2


def _footprint_level(footprint_bytes: float, l2_bytes: int, llc_slice_bytes: int) -> int:
    """Discretise a footprint into {<= L2, <= LLC slice, > LLC slice}."""
    if footprint_bytes <= l2_bytes:
        return 0
    if footprint_bytes <= llc_slice_bytes:
        return 1
    return 2


@dataclass(frozen=True)
class CoherenceState:
    """One discretised state of the Q-learning agent."""

    fully_coh_acc: int
    non_coh_acc_per_tile: int
    to_llc_per_tile: int
    tile_footprint: int
    acc_footprint: int

    def __post_init__(self) -> None:
        index = 0
        for name, value in self.as_tuple_named():
            if not 0 <= value < LEVELS_PER_ATTRIBUTE:
                raise PolicyError(f"state attribute {name} out of range: {value}")
            index = index * LEVELS_PER_ATTRIBUTE + value
        # The base-3 index is read several times per decision (Q-table
        # lookups and updates); cache it at construction.  The dataclass is
        # frozen, hence the object.__setattr__.
        object.__setattr__(self, "_index", index)

    def as_tuple(self) -> Tuple[int, int, int, int, int]:
        """Return the attributes as a plain tuple."""
        return (
            self.fully_coh_acc,
            self.non_coh_acc_per_tile,
            self.to_llc_per_tile,
            self.tile_footprint,
            self.acc_footprint,
        )

    def as_tuple_named(self) -> Tuple[Tuple[str, int], ...]:
        """Return ``(name, value)`` pairs for diagnostics."""
        return (
            ("fully_coh_acc", self.fully_coh_acc),
            ("non_coh_acc_per_tile", self.non_coh_acc_per_tile),
            ("to_llc_per_tile", self.to_llc_per_tile),
            ("tile_footprint", self.tile_footprint),
            ("acc_footprint", self.acc_footprint),
        )

    @property
    def index(self) -> int:
        """Base-3 encoding of the state, in ``[0, NUM_STATES)``."""
        return self._index

    @classmethod
    def from_index(cls, index: int) -> "CoherenceState":
        """Decode a state from its base-3 index."""
        if not 0 <= index < NUM_STATES:
            raise PolicyError(f"state index {index} out of range")
        values = []
        for _ in range(NUM_ATTRIBUTES):
            values.append(index % LEVELS_PER_ATTRIBUTE)
            index //= LEVELS_PER_ATTRIBUTE
        values.reverse()
        return cls(*values)


#: Interning table: at most 243 distinct states exist, and one is built per
#: simulated coherence decision, so discretisation returns shared instances
#: instead of re-validating a fresh dataclass every step.
_INTERNED: dict = {}


def intern_state(
    fully_coh_acc: int,
    non_coh_acc_per_tile: int,
    to_llc_per_tile: int,
    tile_footprint: int,
    acc_footprint: int,
) -> CoherenceState:
    """Return the shared :class:`CoherenceState` for the given attributes."""
    key = (
        fully_coh_acc,
        non_coh_acc_per_tile,
        to_llc_per_tile,
        tile_footprint,
        acc_footprint,
    )
    state = _INTERNED.get(key)
    if state is None:
        state = CoherenceState(*key)
        _INTERNED[key] = state
    return state


#: Label under which snapshots count active fully-coherent accelerators.
_FULL_COH_LABEL = CoherenceMode.FULL_COH.label


def discretize_snapshot(snapshot: SystemSnapshot) -> CoherenceState:
    """Discretise a sensed :class:`SystemSnapshot` into a Table 3 state."""
    return intern_state(
        _count_level(snapshot.active_per_mode.get(_FULL_COH_LABEL, 0)),
        _count_level(snapshot.non_coh_per_target_tile),
        _count_level(snapshot.llc_users_per_target_tile),
        _footprint_level(
            snapshot.tile_footprint_bytes, snapshot.l2_bytes, snapshot.llc_partition_bytes
        ),
        _footprint_level(
            snapshot.target_footprint_bytes, snapshot.l2_bytes, snapshot.llc_partition_bytes
        ),
    )
