"""Statistics helpers used by the experiment harnesses.

The paper reports most results as values *normalised* to a reference policy
(usually the fixed non-coherent-DMA policy) and aggregates across phases
with the geometric mean.  The helpers here implement those conventions once
so every experiment formats results the same way.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence


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
