"""Profile-driven construction of the fixed-heterogeneous policy.

The paper's *fixed heterogeneous* baseline chooses one coherence mode per
accelerator at design time "based on profiling the accelerator's
performance in each mode while sweeping the footprint of the workload".
This module contains the selection logic; the actual profiling runs are
produced by :func:`repro.experiments.isolation.profile_accelerators`, which
runs each accelerator alone on the target SoC across footprints and modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.errors import PolicyError
from repro.soc.coherence import CoherenceMode
from repro.utils.stats import geometric_mean


@dataclass(frozen=True)
class ProfileEntry:
    """One profiled invocation: accelerator x mode x footprint."""

    accelerator_name: str
    mode: CoherenceMode
    footprint_bytes: int
    total_cycles: float
    ddr_accesses: float


def _normalised_times(entries: List[ProfileEntry]) -> Dict[CoherenceMode, List[float]]:
    """Group execution times by mode, normalised per footprint.

    For each footprint the times of all modes are divided by the best time
    at that footprint, so that footprints of very different absolute cost
    contribute equally to the aggregate.
    """
    by_footprint: Dict[int, List[ProfileEntry]] = {}
    for entry in entries:
        by_footprint.setdefault(entry.footprint_bytes, []).append(entry)

    normalised: Dict[CoherenceMode, List[float]] = {}
    for footprint_entries in by_footprint.values():
        best = min(entry.total_cycles for entry in footprint_entries)
        best = max(best, 1e-9)
        for entry in footprint_entries:
            normalised.setdefault(entry.mode, []).append(entry.total_cycles / best)
    return normalised


def choose_mode_for_accelerator(entries: List[ProfileEntry]) -> CoherenceMode:
    """Pick the mode with the best (geomean) normalised time across footprints."""
    if not entries:
        raise PolicyError("cannot choose a mode from an empty profile")
    normalised = _normalised_times(entries)
    return min(normalised, key=lambda mode: geometric_mean(normalised[mode]))


def choose_fixed_heterogeneous(
    profile: Iterable[ProfileEntry],
) -> Dict[str, CoherenceMode]:
    """Select one coherence mode per accelerator from profiling data."""
    by_accelerator: Dict[str, List[ProfileEntry]] = {}
    for entry in profile:
        by_accelerator.setdefault(entry.accelerator_name, []).append(entry)
    return {
        name: choose_mode_for_accelerator(entries)
        for name, entries in by_accelerator.items()
    }
