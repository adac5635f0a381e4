"""Execution of an application specification on a SoC.

The runner turns every thread of every phase into a discrete-event process
that allocates (or reuses) its dataset, warms it through the initialising
CPU's caches — applications initialise their data before invoking an
accelerator, so data is warm, as in the paper — and then issues its chain
of accelerator invocations through the ESP-like runtime.  Phases execute
one after another; threads within a phase run concurrently.

Per phase the runner records the two metrics every figure of the paper
reports: the phase's wall-clock execution time and the number of off-chip
memory accesses during the phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.accelerators.invocation import InvocationResult
from repro.runtime.api import EspRuntime
from repro.soc.address import Buffer
from repro.soc.soc import Soc
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec


@dataclass
class PhaseResult:
    """Measured outcome of one application phase."""

    name: str
    execution_cycles: float
    ddr_accesses: int
    invocations: List[InvocationResult] = field(default_factory=list)

    @property
    def invocation_count(self) -> int:
        """Number of accelerator invocations completed in the phase."""
        return len(self.invocations)

    def to_dict(self) -> Dict[str, object]:
        """JSON form (used by the sweep runner); inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "execution_cycles": self.execution_cycles,
            "ddr_accesses": self.ddr_accesses,
            "invocations": [result.to_dict() for result in self.invocations],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PhaseResult":
        """Rebuild a phase result from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            execution_cycles=float(data["execution_cycles"]),
            ddr_accesses=int(data["ddr_accesses"]),
            invocations=[
                InvocationResult.from_dict(entry)
                for entry in list(data.get("invocations", []))
            ],
        )


@dataclass
class ApplicationResult:
    """Measured outcome of one full application run."""

    application_name: str
    policy_name: str
    phases: List[PhaseResult] = field(default_factory=list)

    @property
    def total_execution_cycles(self) -> float:
        """Sum of phase execution times."""
        return sum(phase.execution_cycles for phase in self.phases)

    @property
    def total_ddr_accesses(self) -> int:
        """Sum of phase off-chip accesses."""
        return sum(phase.ddr_accesses for phase in self.phases)

    @property
    def invocations(self) -> List[InvocationResult]:
        """All invocation results across all phases, in completion order."""
        return [result for phase in self.phases for result in phase.invocations]

    def to_dict(self) -> Dict[str, object]:
        """JSON form (used by the sweep runner); inverse of :meth:`from_dict`."""
        return {
            "application_name": self.application_name,
            "policy_name": self.policy_name,
            "phases": [phase.to_dict() for phase in self.phases],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ApplicationResult":
        """Rebuild an application result from :meth:`to_dict` output."""
        return cls(
            application_name=str(data["application_name"]),
            policy_name=str(data["policy_name"]),
            phases=[PhaseResult.from_dict(entry) for entry in list(data.get("phases", []))],
        )


def _thread_process(
    soc: Soc,
    runtime: EspRuntime,
    thread: ThreadSpec,
    buffer: Buffer,
    sink: List[InvocationResult],
) -> Generator[object, float, None]:
    """Discrete-event process for one application thread."""
    # The application initialises its dataset before invoking accelerators,
    # so the data starts warm in the initialising CPU's cache hierarchy.
    soc.warm_buffer(buffer, cpu_index=thread.cpu_index % max(len(soc.cpu_l2_caches), 1))
    for _ in range(thread.loop_count):
        for accelerator_name in thread.accelerator_chain:
            result = yield from runtime.invoke_by_name(
                accelerator_name,
                buffer,
                thread.footprint_bytes,
                cpu_index=thread.cpu_index % max(len(soc.cpu_l2_caches), 1),
                thread_id=thread.thread_id,
            )
            sink.append(result)


def run_phase(
    soc: Soc,
    runtime: EspRuntime,
    phase: PhaseSpec,
    buffers: Optional[Dict[str, Buffer]] = None,
    max_events: Optional[int] = None,
) -> PhaseResult:
    """Run one phase to completion and return its measurements.

    ``max_events`` bounds the phase's event budget (``None`` keeps the
    engine's default); exhausting it raises
    :class:`~repro.errors.SimulationError`, which is how bounded what-if
    evaluations (:mod:`repro.serving`) keep a single request from running
    an unbounded simulation.  A phase cut by an error closes its pending
    thread processes before the error propagates.
    """
    engine = soc.engine
    start_time = engine.now
    ddr_before = soc.monitors.total_ddr_accesses()

    sink: List[InvocationResult] = []
    for thread in phase.threads:
        if buffers is not None and thread.thread_id in buffers:
            buffer = buffers[thread.thread_id]
        else:
            buffer = soc.allocate_buffer(thread.footprint_bytes, name=thread.thread_id)
            if buffers is not None:
                buffers[thread.thread_id] = buffer
        engine.spawn(
            name=f"{phase.name}/{thread.thread_id}",
            generator=_thread_process(soc, runtime, thread, buffer, sink),
        )
    try:
        if max_events is None:
            engine.run()
        else:
            engine.run(max_events=max_events)
    except BaseException:
        # The cut simulation never resumes: close its suspended threads so
        # their frames let go of the runtime and the Soc, and reference
        # counting frees the model once the error leaves the caller.
        for process in engine.processes:
            process.generator.close()
        raise

    return PhaseResult(
        name=phase.name,
        execution_cycles=engine.now - start_time,
        ddr_accesses=soc.monitors.total_ddr_accesses() - ddr_before,
        invocations=sink,
    )


def run_application(
    soc: Soc,
    runtime: EspRuntime,
    application: ApplicationSpec,
    max_events: Optional[int] = None,
) -> ApplicationResult:
    """Run every phase of ``application`` and collect per-phase results.

    The SoC's caches, counters, queues and data allocations are cleared
    first, so repeated runs start from the same cold state; the coherence
    policy's learned state (e.g. Cohmeleon's Q-table) is *not* touched,
    which is what online training across repeated application runs
    requires.  ``max_events`` bounds each phase's event budget (see
    :func:`run_phase`).
    """
    soc.reset_state(clear_allocations=True)
    runtime.status.reset()

    result = ApplicationResult(
        application_name=application.name,
        policy_name=runtime.policy.name,
    )
    buffers: Dict[str, Buffer] = {}
    for phase in application.phases:
        result.phases.append(
            run_phase(soc, runtime, phase, buffers, max_events=max_events)
        )
    return result
