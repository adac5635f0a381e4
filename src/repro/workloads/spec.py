"""Application / phase / thread specifications.

These are plain declarative descriptions; :mod:`repro.workloads.runner`
turns them into discrete-event processes on a SoC.  The structure mirrors
the paper's evaluation applications: an application is a list of phases
(each representing a "real application"), a phase is a set of concurrent
threads, and each thread owns one dataset and runs a chain of accelerators
serially over it, optionally looping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ThreadSpec:
    """One software thread: a dataset and a chain of accelerator invocations."""

    thread_id: str
    accelerator_chain: Tuple[str, ...]
    footprint_bytes: int
    loop_count: int = 1
    cpu_index: int = 0

    def __post_init__(self) -> None:
        if not self.accelerator_chain:
            raise ConfigurationError(f"thread {self.thread_id}: empty accelerator chain")
        if self.footprint_bytes <= 0:
            raise ConfigurationError(f"thread {self.thread_id}: footprint must be positive")
        if self.loop_count <= 0:
            raise ConfigurationError(f"thread {self.thread_id}: loop_count must be positive")
        if self.cpu_index < 0:
            raise ConfigurationError(f"thread {self.thread_id}: cpu_index must be >= 0")

    @property
    def total_invocations(self) -> int:
        """Number of accelerator invocations this thread will issue."""
        return len(self.accelerator_chain) * self.loop_count


@dataclass(frozen=True)
class PhaseSpec:
    """One phase: a set of threads running concurrently."""

    name: str
    threads: Tuple[ThreadSpec, ...]

    def __post_init__(self) -> None:
        if not self.threads:
            raise ConfigurationError(f"phase {self.name}: needs at least one thread")
        ids = [thread.thread_id for thread in self.threads]
        if len(ids) != len(set(ids)):
            raise ConfigurationError(f"phase {self.name}: duplicate thread ids")

    @property
    def total_invocations(self) -> int:
        """Number of accelerator invocations across all threads of the phase."""
        return sum(thread.total_invocations for thread in self.threads)

    def accelerators_used(self) -> List[str]:
        """Distinct accelerator names invoked in this phase."""
        names = {name for thread in self.threads for name in thread.accelerator_chain}
        return sorted(names)


@dataclass(frozen=True)
class ApplicationSpec:
    """A multithreaded evaluation application: an ordered list of phases."""

    name: str
    phases: Tuple[PhaseSpec, ...]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError(f"application {self.name}: needs at least one phase")

    @property
    def total_invocations(self) -> int:
        """Number of accelerator invocations across the whole application."""
        return sum(phase.total_invocations for phase in self.phases)

    def accelerators_used(self) -> List[str]:
        """Distinct accelerator names invoked anywhere in the application."""
        names = {name for phase in self.phases for name in phase.accelerators_used()}
        return sorted(names)

    def phase_names(self) -> List[str]:
        """Names of the phases in order."""
        return [phase.name for phase in self.phases]
