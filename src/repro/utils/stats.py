"""Statistics helpers used by the experiment harnesses.

The paper reports most results as values *normalised* to a reference policy
(usually the fixed non-coherent-DMA policy) and aggregates across phases
with the geometric mean.  The helpers here implement those conventions once
so every experiment formats results the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence


def mean(values: Sequence[float]) -> float:
    """Return the arithmetic mean of ``values`` (0.0 for an empty input)."""
    items = list(values)
    if not items:
        return 0.0
    return sum(items) / len(items)


def geometric_mean(values: Sequence[float]) -> float:
    """Return the geometric mean of strictly-positive ``values``.

    Zero values are clamped to a tiny epsilon so that a phase with zero
    off-chip accesses does not collapse the whole aggregate to zero; this
    mirrors how the paper can plot normalised access counts of zero.
    """
    items = [max(float(v), 1e-12) for v in values]
    if not items:
        return 0.0
    return math.exp(sum(math.log(v) for v in items) / len(items))


def geomean_ratio(values: Mapping[str, float], reference: Mapping[str, float]) -> float:
    """Geometric mean of the per-key ratios ``values[key] / reference[key]``.

    This is how the paper aggregates per-phase execution time and off-chip
    accesses against a reference policy.  A key missing from ``values``
    counts as 0; a key whose reference is 0 contributes 1.0 when its value
    is 0 too, and nothing otherwise.  With no ratio at all the result is 0.0.
    """
    ratios = []
    for key, reference_value in reference.items():
        value = values.get(key, 0.0)
        if reference_value > 0:
            ratios.append(value / reference_value)
        elif value == 0:
            ratios.append(1.0)
    return geometric_mean(ratios) if ratios else 0.0


def normalize(values: Mapping[str, float], reference_key: str) -> Dict[str, float]:
    """Normalise every entry of ``values`` to the entry at ``reference_key``.

    If the reference value is zero, all entries are returned unchanged; this
    only happens for access counts that are all zero, where any ratio is
    equally uninformative.
    """
    if reference_key not in values:
        raise KeyError(f"reference key {reference_key!r} not present")
    reference = float(values[reference_key])
    if reference == 0.0:
        return dict(values)
    return {key: float(value) / reference for key, value in values.items()}


@dataclass
class RunningStats:
    """Streaming min/max/mean/count accumulator.

    Used by the reward bookkeeping (which needs per-accelerator running
    minima and maxima of the scaled metrics) and by the monitors.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    _sum_sq: float = field(default=0.0, repr=False)

    def add(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        self._sum_sq += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Record many observations."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations recorded so far."""
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the observations recorded so far."""
        if self.count == 0:
            return 0.0
        mu = self.mean
        return max(self._sum_sq / self.count - mu * mu, 0.0)

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator combining ``self`` and ``other``."""
        merged = RunningStats()
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        merged._sum_sq = self._sum_sq + other._sum_sq
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged
