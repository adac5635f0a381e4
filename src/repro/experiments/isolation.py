"""Figure 2 — accelerators running in isolation.

Each accelerator runs alone on the motivation SoC (32 KB private caches,
two 512 KB LLC partitions, two DRAM controllers) with three workload sizes
— roughly 16 KB (Small), 256 KB (Medium), and 4 MB (Large) — under each of
the four coherence modes.  Results are normalised to the non-coherent-DMA
mode per (accelerator, size), exactly like the bars of Figure 2.

The same machinery doubles as the profiling pass behind the paper's
*fixed heterogeneous* baseline: sweep an accelerator's footprint across
modes while it runs alone, then pick the mode with the best aggregate
execution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.accelerators.descriptor import AcceleratorDescriptor
from repro.core.policies import FixedPolicy
from repro.core.profiling import ProfileEntry, choose_fixed_heterogeneous
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentSetup, build_runtime
from repro.experiments.sweep import Job, SweepRunner, SweepSpec, run_spec
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.units import KB, MB
from repro.utils.stats import mean
from repro.workloads.runner import run_application
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec

#: Workload sizes of the motivation experiments (paper Section 3).
ISOLATION_SIZES: Mapping[str, int] = {
    "Small": 16 * KB,
    "Medium": 256 * KB,
    "Large": 4 * MB,
}


@dataclass(frozen=True)
class IsolationMeasurement:
    """One (accelerator, size, mode) measurement."""

    accelerator_name: str
    size_label: str
    footprint_bytes: int
    mode: CoherenceMode
    exec_cycles: float
    ddr_accesses: float


def _single_invocation_app(
    accelerator_name: str, footprint_bytes: int, repeats: int
) -> ApplicationSpec:
    """Application with a single thread invoking one accelerator ``repeats`` times."""
    thread = ThreadSpec(
        thread_id="iso",
        accelerator_chain=(accelerator_name,),
        footprint_bytes=footprint_bytes,
        loop_count=repeats,
        cpu_index=0,
    )
    phase = PhaseSpec(name="isolation", threads=(thread,))
    return ApplicationSpec(name=f"isolation-{accelerator_name}", phases=(phase,))


def measure_isolated(
    setup: ExperimentSetup,
    accelerator: AcceleratorDescriptor,
    footprint_bytes: int,
    mode: CoherenceMode,
    repeats: int = 1,
) -> Tuple[float, float]:
    """Run one accelerator alone under ``mode``; return mean (cycles, accesses).

    Every repeat starts from warm data (the invoking CPU initialised the
    buffer), and measurements include the invocation overhead — driver and
    cache flushes — as in the paper.
    """
    if footprint_bytes <= 0:
        raise ExperimentError("footprint must be positive")
    single = ExperimentSetup(
        name=f"{setup.name}-iso",
        soc_config=setup.soc_config,
        accelerators=[accelerator],
        seed=setup.seed,
    )
    soc, runtime = build_runtime(single, FixedPolicy(mode))
    app = _single_invocation_app(accelerator.name, footprint_bytes, repeats)
    result = run_application(soc, runtime, app)
    invocations = result.invocations
    if not invocations:
        raise ExperimentError("isolation run produced no invocations")
    return (
        mean([inv.total_cycles for inv in invocations]),
        mean([inv.ddr_accesses for inv in invocations]),
    )


def _isolation_job(params: Dict[str, object], rng) -> Dict[str, object]:
    """Sweep job: one (accelerator, size, mode) cell of the Figure 2 grid."""
    cycles, accesses = measure_isolated(
        params["setup"],  # type: ignore[arg-type]
        params["accelerator"],  # type: ignore[arg-type]
        int(params["footprint_bytes"]),  # type: ignore[arg-type]
        params["mode"],  # type: ignore[arg-type]
        repeats=int(params["repeats"]),  # type: ignore[arg-type]
    )
    return {"exec_cycles": cycles, "ddr_accesses": accesses}


def run_isolation_experiment(
    setup: ExperimentSetup,
    accelerators: Optional[Sequence[AcceleratorDescriptor]] = None,
    sizes: Optional[Mapping[str, int]] = None,
    modes: Sequence[CoherenceMode] = COHERENCE_MODES,
    repeats: int = 1,
    runner: Optional[SweepRunner] = None,
) -> List[IsolationMeasurement]:
    """Run the full Figure 2 sweep and return the raw measurements."""
    accelerators = list(accelerators) if accelerators is not None else list(setup.accelerators)
    sizes = dict(sizes) if sizes is not None else dict(ISOLATION_SIZES)
    grid: List[Tuple[int, AcceleratorDescriptor, str, int, CoherenceMode]] = [
        (index, accelerator, size_label, footprint, mode)
        for index, accelerator in enumerate(accelerators)
        for size_label, footprint in sizes.items()
        for mode in modes
    ]
    jobs = [
        Job(
            # The index keeps keys unique when an accelerator appears twice.
            key=f"{index}-{accelerator.name}/{size_label}/{mode.label}",
            fn=_isolation_job,
            params={
                "setup": setup,
                "accelerator": accelerator,
                "footprint_bytes": footprint,
                "mode": mode,
                "repeats": repeats,
            },
            seed=setup.seed,
        )
        for index, accelerator, size_label, footprint, mode in grid
    ]
    spec = SweepSpec(name=f"isolation-{setup.name}", jobs=jobs)
    outcome = run_spec(spec, runner)
    return [
        IsolationMeasurement(
            accelerator_name=accelerator.name,
            size_label=size_label,
            footprint_bytes=footprint,
            mode=mode,
            exec_cycles=float(payload["exec_cycles"]),
            ddr_accesses=float(payload["ddr_accesses"]),
        )
        for (index, accelerator, size_label, footprint, mode), payload in zip(
            grid, outcome.payloads.values()
        )
    ]


def normalize_isolation(
    measurements: Sequence[IsolationMeasurement],
    reference_mode: CoherenceMode = CoherenceMode.NON_COH_DMA,
) -> Dict[Tuple[str, str], Dict[str, Dict[str, float]]]:
    """Normalise the sweep per (accelerator, size) against ``reference_mode``.

    Returns ``{(accelerator, size): {mode_label: {"exec": x, "mem": y}}}``
    where both metrics are relative to the reference mode — the same
    normalisation as the bars of Figure 2.
    """
    grouped: Dict[Tuple[str, str], List[IsolationMeasurement]] = {}
    for measurement in measurements:
        grouped.setdefault(
            (measurement.accelerator_name, measurement.size_label), []
        ).append(measurement)

    normalised: Dict[Tuple[str, str], Dict[str, Dict[str, float]]] = {}
    for key, group in grouped.items():
        reference = next((m for m in group if m.mode is reference_mode), None)
        if reference is None:
            raise ExperimentError(f"no reference measurement for {key}")
        ref_exec = max(reference.exec_cycles, 1e-9)
        ref_mem = reference.ddr_accesses
        normalised[key] = {}
        for measurement in group:
            mem_ratio = (
                measurement.ddr_accesses / ref_mem if ref_mem > 0 else
                (0.0 if measurement.ddr_accesses == 0 else float("inf"))
            )
            normalised[key][measurement.mode.label] = {
                "exec": measurement.exec_cycles / ref_exec,
                "mem": mem_ratio,
            }
    return normalised


def best_mode_per_workload(
    measurements: Sequence[IsolationMeasurement],
) -> Dict[Tuple[str, str], CoherenceMode]:
    """Return the fastest mode for every (accelerator, size) pair."""
    best: Dict[Tuple[str, str], IsolationMeasurement] = {}
    for measurement in measurements:
        key = (measurement.accelerator_name, measurement.size_label)
        current = best.get(key)
        if current is None or measurement.exec_cycles < current.exec_cycles:
            best[key] = measurement
    return {key: measurement.mode for key, measurement in best.items()}


# ----------------------------------------------------------------------
# Profiling pass for the fixed-heterogeneous baseline
# ----------------------------------------------------------------------

def profile_accelerators(
    setup: ExperimentSetup,
    footprints: Optional[Sequence[int]] = None,
    modes: Sequence[CoherenceMode] = COHERENCE_MODES,
    runner: Optional[SweepRunner] = None,
) -> List[ProfileEntry]:
    """Profile every accelerator of ``setup`` alone across modes and footprints."""
    if footprints is None:
        config = setup.soc_config
        footprints = [
            config.accelerator_l2_bytes // 2,
            config.llc_partition_bytes // 2,
            config.total_llc_bytes // 2,
            config.total_llc_bytes * 2,
        ]
    # Profile each distinct accelerator once, even if bound to many tiles.
    distinct: Dict[str, AcceleratorDescriptor] = {}
    for descriptor in setup.accelerators:
        distinct.setdefault(descriptor.name, descriptor)

    has_private_cache = any(
        setup.soc_config.accelerator_has_cache(i)
        for i in range(setup.soc_config.num_accelerator_tiles)
    )
    grid: List[Tuple[int, AcceleratorDescriptor, int, CoherenceMode]] = [
        (index, descriptor, footprint, mode)
        for descriptor in distinct.values()
        for index, footprint in enumerate(footprints)
        for mode in modes
        if not (mode is CoherenceMode.FULL_COH and not has_private_cache)
    ]
    jobs = [
        Job(
            # The index keeps keys unique if a footprint is repeated.
            key=f"{descriptor.name}/{index}-{footprint}/{mode.label}",
            fn=_isolation_job,
            params={
                "setup": setup,
                "accelerator": descriptor,
                "footprint_bytes": footprint,
                "mode": mode,
                "repeats": 1,
            },
            seed=setup.seed,
        )
        for index, descriptor, footprint, mode in grid
    ]
    spec = SweepSpec(name=f"profile-{setup.name}", jobs=jobs)
    outcome = run_spec(spec, runner)
    return [
        ProfileEntry(
            accelerator_name=descriptor.name,
            mode=mode,
            footprint_bytes=footprint,
            total_cycles=float(payload["exec_cycles"]),
            ddr_accesses=float(payload["ddr_accesses"]),
        )
        for (index, descriptor, footprint, mode), payload in zip(
            grid, outcome.payloads.values()
        )
    ]


def fixed_hetero_modes(
    setup: ExperimentSetup, runner: Optional[SweepRunner] = None
) -> Dict[str, CoherenceMode]:
    """Profile ``setup`` and return the per-accelerator design-time modes."""
    return choose_fixed_heterogeneous(profile_accelerators(setup, runner=runner))
