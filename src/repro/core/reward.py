"""Cohmeleon's multi-objective reward function (paper Section 4.2).

For the *i*-th invocation of accelerator *k* the paper defines three scaled
measurements — ``exec(k, i)`` (execution time divided by footprint),
``comm(k, i)`` (communication-cycle ratio), and ``mem(k, i)`` (off-chip
accesses divided by footprint) — and three reward components built from
their running minima/maxima::

    R_exec = min_{j<=i} exec(k, j) / exec(k, i)
    R_comm = min_{j<=i} comm(k, j) / comm(k, i)
    R_mem  = 1 - (mem(k, i) - min_j mem) / (max_j mem - min_j mem)

The total reward is ``x * R_exec + y * R_comm + z * R_mem`` with tunable
non-negative weights.  The weights the paper settles on for the cross-SoC
evaluation are (67.5 %, 7.5 %, 25 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import PolicyError

if TYPE_CHECKING:
    from repro.accelerators.invocation import InvocationResult

_EPSILON = 1e-12


@dataclass(frozen=True)
class RewardWeights:
    """Weights of the three reward components (normalised to sum to 1)."""

    exec_weight: float = 0.675
    comm_weight: float = 0.075
    mem_weight: float = 0.25

    def __post_init__(self) -> None:
        for name in ("exec_weight", "comm_weight", "mem_weight"):
            if getattr(self, name) < 0:
                raise PolicyError(f"reward weight {name} must be non-negative")
        if self.total <= 0:
            raise PolicyError("at least one reward weight must be positive")

    @property
    def total(self) -> float:
        """Sum of the raw weights."""
        return self.exec_weight + self.comm_weight + self.mem_weight

    def normalized(self) -> Tuple[float, float, float]:
        """Return the weights normalised to sum to one."""
        total = self.total
        return (
            self.exec_weight / total,
            self.comm_weight / total,
            self.mem_weight / total,
        )

    @classmethod
    def from_percentages(cls, exec_pct: float, comm_pct: float, mem_pct: float) -> "RewardWeights":
        """Build weights from the percentage notation the paper uses."""
        return cls(exec_pct / 100.0, comm_pct / 100.0, mem_pct / 100.0)

    def __str__(self) -> str:
        exec_w, comm_w, mem_w = self.normalized()
        return f"({exec_w:.3f}, {comm_w:.3f}, {mem_w:.3f})"


#: The reward weighting used for the cross-SoC experiments in the paper.
DEFAULT_REWARD_WEIGHTS = RewardWeights(0.675, 0.075, 0.25)


@dataclass
class RewardComponents:
    """The three components and the total reward of one invocation."""

    r_exec: float
    r_comm: float
    r_mem: float
    total: float

    def as_dict(self) -> Dict[str, float]:
        """Return the components as a plain dictionary."""
        return {
            "r_exec": self.r_exec,
            "r_comm": self.r_comm,
            "r_mem": self.r_mem,
            "total": self.total,
        }


@dataclass
class _AcceleratorHistory:
    """Running extrema of the scaled metrics for one accelerator."""

    min_exec: float = float("inf")
    min_comm: float = float("inf")
    min_mem: float = float("inf")
    max_mem: float = float("-inf")
    invocations: int = 0


class RewardTracker:
    """Computes the Cohmeleon reward for each completed invocation."""

    def __init__(self, weights: RewardWeights = DEFAULT_REWARD_WEIGHTS) -> None:
        self.weights = weights
        self._history: Dict[str, _AcceleratorHistory] = {}

    # ------------------------------------------------------------------
    def evaluate(self, result: InvocationResult) -> RewardComponents:
        """Update the running extrema with ``result`` and return its reward."""
        history = self._history.setdefault(result.accelerator_name, _AcceleratorHistory())
        history.invocations += 1

        scaled_exec = max(result.scaled_exec, _EPSILON)
        comm_ratio = result.comm_ratio
        scaled_mem = max(result.scaled_mem, 0.0)

        history.min_exec = min(history.min_exec, scaled_exec)
        history.min_comm = min(history.min_comm, comm_ratio)
        history.min_mem = min(history.min_mem, scaled_mem)
        history.max_mem = max(history.max_mem, scaled_mem)

        r_exec = history.min_exec / scaled_exec
        if comm_ratio <= _EPSILON:
            r_comm = 1.0
        else:
            r_comm = min(history.min_comm, comm_ratio) / comm_ratio
        mem_range = history.max_mem - history.min_mem
        if mem_range <= _EPSILON:
            r_mem = 1.0
        else:
            r_mem = 1.0 - (scaled_mem - history.min_mem) / mem_range

        exec_w, comm_w, mem_w = self.weights.normalized()
        total = exec_w * r_exec + comm_w * r_comm + mem_w * r_mem
        return RewardComponents(r_exec=r_exec, r_comm=r_comm, r_mem=r_mem, total=total)

    # ------------------------------------------------------------------
    def history_for(self, accelerator_name: str) -> Dict[str, float]:
        """Return the running extrema recorded for one accelerator."""
        history = self._history.get(accelerator_name, _AcceleratorHistory())
        return {
            "min_exec": history.min_exec,
            "min_comm": history.min_comm,
            "min_mem": history.min_mem,
            "max_mem": history.max_mem,
            "invocations": history.invocations,
        }

    def reset(self) -> None:
        """Forget all per-accelerator history."""
        self._history.clear()
