"""Integration tests: running applications end to end on the SoC model."""

from __future__ import annotations

import pytest

from repro import build_system
from repro.accelerators.library import accelerator_by_name
from repro.core.policies import CohmeleonPolicy, FixedPolicy, ManualPolicy, RandomPolicy
from repro.soc.coherence import CoherenceMode
from repro.units import KB
from repro.utils.rng import SeededRNG
from repro.workloads.runner import run_application, run_phase
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec


def small_app(names, loops=1, footprints=(8 * KB, 32 * KB)):
    threads = tuple(
        ThreadSpec(
            thread_id=f"t{i}",
            accelerator_chain=(names[i % len(names)],),
            footprint_bytes=footprints[i % len(footprints)],
            loop_count=loops,
            cpu_index=i % 2,
        )
        for i in range(len(names))
    )
    return ApplicationSpec(
        name="integration",
        phases=(
            PhaseSpec(name="phase-a", threads=threads[:2]),
            PhaseSpec(name="phase-b", threads=threads),
        ),
    )


@pytest.fixture
def small_system(tiny_config):
    accelerators = [
        accelerator_by_name("FFT"),
        accelerator_by_name("Sort"),
        accelerator_by_name("SPMV"),
    ]
    def build(policy):
        from repro.runtime.api import EspRuntime
        from repro.soc.soc import Soc

        soc = Soc(tiny_config)
        runtime = EspRuntime(soc, policy)
        runtime.bind_library(accelerators)
        return soc, runtime

    return build


class TestRunApplication:
    def test_all_invocations_complete(self, small_system):
        soc, runtime = small_system(FixedPolicy(CoherenceMode.COH_DMA))
        app = small_app(["FFT", "Sort", "SPMV"], loops=2)
        result = run_application(soc, runtime, app)
        assert len(result.phases) == 2
        assert result.phases[0].invocation_count == 2 * 2  # 2 threads x 2 loops
        assert result.phases[1].invocation_count == 3 * 2  # 3 threads x 2 loops
        assert result.total_execution_cycles > 0

    def test_phase_times_are_monotone_in_engine_time(self, small_system):
        soc, runtime = small_system(FixedPolicy(CoherenceMode.NON_COH_DMA))
        result = run_application(soc, runtime, small_app(["FFT", "Sort"]))
        for phase in result.phases:
            assert phase.execution_cycles > 0

    def test_ddr_accesses_zero_for_cached_small_workloads(self, small_system):
        soc, runtime = small_system(FixedPolicy(CoherenceMode.COH_DMA))
        result = run_application(soc, runtime, small_app(["FFT", "Sort"]))
        assert result.total_ddr_accesses == 0

    def test_non_coherent_produces_ddr_traffic(self, small_system):
        soc, runtime = small_system(FixedPolicy(CoherenceMode.NON_COH_DMA))
        result = run_application(soc, runtime, small_app(["FFT", "Sort"]))
        assert result.total_ddr_accesses > 0

    def test_reset_between_runs_reproduces_results(self, small_system):
        soc, runtime = small_system(FixedPolicy(CoherenceMode.LLC_COH_DMA))
        app = small_app(["FFT", "Sort", "SPMV"])
        first = run_application(soc, runtime, app)
        second = run_application(soc, runtime, app)
        assert first.total_execution_cycles == pytest.approx(second.total_execution_cycles)
        assert first.total_ddr_accesses == second.total_ddr_accesses

    def test_policy_name_recorded(self, small_system):
        soc, runtime = small_system(ManualPolicy())
        result = run_application(soc, runtime, small_app(["FFT"]))
        assert result.policy_name == "manual"

    def test_run_phase_standalone(self, small_system):
        soc, runtime = small_system(FixedPolicy(CoherenceMode.COH_DMA))
        phase = small_app(["FFT", "Sort"]).phases[0]
        result = run_phase(soc, runtime, phase)
        assert result.invocation_count == len(phase.threads)


class TestPolicyBehaviourEndToEnd:
    """Behavioural checks of the paper's qualitative claims on a small SoC."""

    def test_cached_modes_beat_non_coherent_for_warm_small_data(self, small_system):
        app = small_app(["FFT", "Sort"], loops=2, footprints=(8 * KB, 12 * KB))
        times = {}
        for mode in (
            CoherenceMode.NON_COH_DMA,
            CoherenceMode.LLC_COH_DMA,
            CoherenceMode.COH_DMA,
            CoherenceMode.FULL_COH,
        ):
            soc, runtime = small_system(FixedPolicy(mode))
            result = run_application(soc, runtime, app)
            times[mode] = result.total_execution_cycles
        best_cached = min(
            times[CoherenceMode.LLC_COH_DMA],
            times[CoherenceMode.COH_DMA],
            times[CoherenceMode.FULL_COH],
        )
        assert best_cached < times[CoherenceMode.NON_COH_DMA]

    def test_random_policy_uses_multiple_modes(self, small_system):
        soc, runtime = small_system(RandomPolicy(SeededRNG(3)))
        app = small_app(["FFT", "Sort", "SPMV"], loops=3)
        result = run_application(soc, runtime, app)
        modes = {invocation.mode for invocation in result.invocations}
        assert len(modes) >= 2

    def test_cohmeleon_learns_online_and_improves_memory_traffic(self, small_system):
        app = small_app(["FFT", "Sort", "SPMV"], loops=3, footprints=(8 * KB, 16 * KB))
        policy = CohmeleonPolicy(rng=SeededRNG(11))
        soc, runtime = small_system(policy)
        for iteration in range(6):
            policy.set_training_progress(iteration / 6)
            run_application(soc, runtime, app)
        policy.freeze()
        learned = run_application(soc, runtime, app)

        soc_ref, runtime_ref = small_system(FixedPolicy(CoherenceMode.NON_COH_DMA))
        reference = run_application(soc_ref, runtime_ref, app)

        assert policy.qtable.coverage() > 0.0
        # The learned policy should not use more off-chip accesses than the
        # always-non-coherent baseline on warm, cache-resident workloads.
        assert learned.total_ddr_accesses <= reference.total_ddr_accesses

    def test_manual_policy_competitive_with_best_fixed(self, small_system):
        app = small_app(["FFT", "Sort"], loops=2, footprints=(8 * KB, 16 * KB))
        results = {}
        for label, policy in (
            ("manual", ManualPolicy()),
            ("non-coh", FixedPolicy(CoherenceMode.NON_COH_DMA)),
            ("coh-dma", FixedPolicy(CoherenceMode.COH_DMA)),
        ):
            soc, runtime = small_system(policy)
            results[label] = run_application(soc, runtime, app).total_execution_cycles
        best_fixed = min(results["non-coh"], results["coh-dma"])
        # On this deliberately tiny SoC the manual heuristic cannot always
        # match the best fixed policy, but it must stay in the same
        # ballpark (the paper's claim holds on the full-size platforms).
        assert results["manual"] <= best_fixed * 1.35


class TestBuildSystem:
    def test_build_system_with_preset_name(self):
        soc, runtime = build_system("SoC1", policy=FixedPolicy(CoherenceMode.COH_DMA))
        assert soc.config.name == "SoC1"
        assert len(runtime.bindings) == soc.config.num_accelerator_tiles

    def test_build_system_default_policy_is_cohmeleon(self):
        _, runtime = build_system("SoC6")
        assert runtime.policy.name == "cohmeleon"

    def test_build_system_custom_accelerators(self):
        accelerators = [accelerator_by_name("FFT")] * 3
        _, runtime = build_system("SoC1", accelerators=accelerators)
        assert len(runtime.bindings_for("FFT")) == 3
