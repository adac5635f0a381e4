"""Tests for the experiment harnesses (scaled-down runs).

These tests exercise every figure/table harness end to end with reduced
parameters, checking both the plumbing (shapes, normalisation, reports) and
the paper's qualitative claims where they are cheap to verify.
"""

from __future__ import annotations

import pytest

from repro.accelerators.descriptor import AccessPattern
from repro.accelerators.library import accelerator_by_name
from repro.core.policies import CohmeleonPolicy, FixedPolicy
from repro.errors import ExperimentError
from repro.experiments import report
from repro.experiments.breakdown import (
    breakdown_from_invocations,
    run_breakdown_experiment,
)
from repro.experiments.common import (
    STANDARD_POLICY_KINDS,
    ExperimentSetup,
    build_runtime,
    evaluate_policies,
    make_standard_policies,
    motivation_setup,
    traffic_setup,
)
from repro.experiments.isolation import (
    ISOLATION_SIZES,
    best_mode_per_workload,
    fixed_hetero_modes,
    measure_isolated,
    normalize_isolation,
    profile_accelerators,
    run_isolation_experiment,
)
from repro.experiments.overhead import overhead_table, run_overhead_experiment
from repro.experiments.parallel import (
    degradation_summary,
    normalize_parallel,
    parallel_setup,
    run_parallel_experiment,
)
from repro.experiments.phases import figure5_application, run_phase_analysis, training_application
from repro.experiments.reward_dse import run_reward_dse
from repro.experiments.socs import figure9_setup, run_soc_comparison
from repro.experiments.summary import summarize_headline
from repro.experiments.training import run_training_study
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.store.io import canonical_digest
from repro.units import KB, MB
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec


@pytest.fixture(scope="module")
def quick_setup():
    """A small traffic-generator setup reused by several experiment tests."""
    return traffic_setup("SoC1", seed=5)


def quick_app(setup, threads=2, footprint=32 * KB, loops=1):
    names = [descriptor.name for descriptor in setup.accelerators]
    phase = PhaseSpec(
        name="quick",
        threads=tuple(
            ThreadSpec(
                thread_id=f"t{i}",
                accelerator_chain=(names[i % len(names)],),
                footprint_bytes=footprint,
                loop_count=loops,
            )
            for i in range(threads)
        ),
    )
    return ApplicationSpec(name="quick-app", phases=(phase,))


class TestCommon:
    def test_setup_validation(self, quick_setup):
        with pytest.raises(ExperimentError):
            ExperimentSetup(
                name="bad",
                soc_config=quick_setup.soc_config,
                accelerators=[],
            )

    def test_build_runtime_binds_all(self, quick_setup):
        soc, runtime = build_runtime(quick_setup, FixedPolicy(CoherenceMode.COH_DMA))
        assert len(runtime.bindings) == len(quick_setup.accelerators)

    def test_make_standard_policies_order_and_names(self):
        policies = make_standard_policies(STANDARD_POLICY_KINDS, seed=0)
        assert list(policies) == list(STANDARD_POLICY_KINDS)

    def test_traffic_setup_pattern_restriction(self):
        setup = traffic_setup("SoC1", pattern=AccessPattern.STREAMING, seed=1)
        assert all(
            descriptor.access_pattern is AccessPattern.STREAMING
            for descriptor in setup.accelerators
        )

    def test_motivation_setup_uses_full_library(self):
        setup = motivation_setup()
        assert len(setup.accelerators) == 12

    def test_evaluate_policies_trains_cohmeleon(self, quick_setup):
        policies = {
            "fixed-non-coh-dma": FixedPolicy(CoherenceMode.NON_COH_DMA),
            "cohmeleon": CohmeleonPolicy(),
        }
        test_app = quick_app(quick_setup)
        train_app = quick_app(quick_setup, threads=3)
        evaluations = evaluate_policies(
            quick_setup, policies, test_app, training_app=train_app, training_iterations=2
        )
        assert evaluations["cohmeleon"].training_results
        assert not evaluations["cohmeleon"].result.invocations == []
        # Evaluation runs on a copy: the caller's policy keeps its initial
        # exploration schedule instead of coming back frozen.
        assert policies["cohmeleon"].agent.epsilon > 0.0
        assert policies["cohmeleon"].agent.learning_enabled

    def test_evaluate_policies_calls_are_independent(self, quick_setup):
        # Regression test: evaluate_policies used to train/freeze/clear the
        # caller's CohmeleonPolicy object in place, so a second evaluation of
        # the same spec started from the first one's learned state.  Two
        # evaluations of the same spec must now produce identical results.
        policies = {
            "rand": make_standard_policies(("rand",), seed=3)["rand"],
            "cohmeleon": CohmeleonPolicy(),
        }
        test_app = quick_app(quick_setup)
        train_app = quick_app(quick_setup, threads=3)
        first = evaluate_policies(
            quick_setup, policies, test_app, training_app=train_app, training_iterations=2
        )
        second = evaluate_policies(
            quick_setup, policies, test_app, training_app=train_app, training_iterations=2
        )
        assert {name: ev.to_dict() for name, ev in first.items()} == {
            name: ev.to_dict() for name, ev in second.items()
        }


class TestIsolationExperiment:
    @pytest.fixture(scope="class")
    def measurements(self):
        setup = motivation_setup(line_bytes=256)
        accelerators = [accelerator_by_name("FFT"), accelerator_by_name("SPMV")]
        sizes = {"Small": 16 * KB, "Large": 2 * MB}
        return run_isolation_experiment(setup, accelerators=accelerators, sizes=sizes)

    def test_sweep_covers_all_combinations(self, measurements):
        assert len(measurements) == 2 * 2 * 4

    def test_isolation_sizes_match_paper(self):
        assert ISOLATION_SIZES["Small"] == 16 * KB
        assert ISOLATION_SIZES["Medium"] == 256 * KB
        assert ISOLATION_SIZES["Large"] == 4 * MB

    def test_normalisation_reference_is_one(self, measurements):
        table = normalize_isolation(measurements)
        for row in table.values():
            assert row["non-coh-dma"]["exec"] == pytest.approx(1.0)

    def test_warm_small_workloads_have_zero_offchip_in_cached_modes(self, measurements):
        table = normalize_isolation(measurements)
        for (accelerator, size), row in table.items():
            if size == "Small":
                assert row["coh-dma"]["mem"] == pytest.approx(0.0)
                assert row["llc-coh-dma"]["mem"] == pytest.approx(0.0)

    def test_cached_modes_faster_for_warm_small_workloads(self, measurements):
        # For warm Small workloads the best cache-using mode beats the
        # non-coherent mode, which pays flushes and off-chip round trips.
        table = normalize_isolation(measurements)
        for (accelerator, size), row in table.items():
            if size == "Small":
                best_cached = min(
                    row["llc-coh-dma"]["exec"],
                    row["coh-dma"]["exec"],
                    row["full-coh"]["exec"],
                )
                assert best_cached < 1.0

    def test_best_mode_varies_with_workload(self, measurements):
        best = best_mode_per_workload(measurements)
        assert len(set(best.values())) >= 2

    def test_measure_isolated_rejects_bad_footprint(self):
        setup = motivation_setup(line_bytes=256)
        with pytest.raises(ExperimentError):
            measure_isolated(setup, accelerator_by_name("FFT"), 0, CoherenceMode.COH_DMA)

    def test_report_renders(self, measurements):
        text = report.report_isolation(measurements)
        assert "Figure 2" in text and "non-coh-dma time" in text

    def test_payloads_are_pinned(self):
        # Four access patterns at footprints inside the 32 KB private cache,
        # between it and the 512 KB LLC partition, at the partition and past
        # it, in every mode, run serially.  No other tier-1 test pins what an
        # isolation job returns, so a change to the simulator that moves any
        # of these numbers fails here.
        setup = motivation_setup(line_bytes=256)
        accelerators = [accelerator_by_name(name) for name in ("FFT", "Sort", "SPMV", "GEMM")]
        sizes = {"16K": 16 * KB, "128K": 128 * KB, "512K": 512 * KB, "2M": 2 * MB}
        measurements = run_isolation_experiment(setup, accelerators=accelerators, sizes=sizes)
        rows = [
            (m.accelerator_name, m.footprint_bytes, m.mode.label, m.exec_cycles, m.ddr_accesses)
            for m in measurements
        ]
        assert len(rows) == 4 * 4 * 4
        assert canonical_digest(rows)[:16] == "8d133fbf768282fd"


class TestProfiling:
    def test_fixed_hetero_modes_cover_all_accelerators(self):
        setup = motivation_setup(
            accelerators=[accelerator_by_name("FFT"), accelerator_by_name("GEMM")],
            line_bytes=256,
        )
        modes = fixed_hetero_modes(setup)
        assert set(modes) == {"FFT", "GEMM"}
        assert all(mode in COHERENCE_MODES for mode in modes.values())

    def test_profile_entries_have_positive_measurements(self):
        setup = motivation_setup(
            accelerators=[accelerator_by_name("Sort")], line_bytes=256
        )
        profile = profile_accelerators(setup, footprints=[16 * KB, 256 * KB])
        assert all(entry.total_cycles > 0 for entry in profile)
        assert len(profile) == 2 * 4


class TestParallelExperiment:
    @pytest.fixture(scope="class")
    def measurements(self):
        return run_parallel_experiment(
            parallel_setup(line_bytes=256),
            counts=(1, 4, 12),
            invocations_per_thread=2,
        )

    def test_matrix_shape(self, measurements):
        assert len(measurements) == 3 * 4

    def test_normalisation_reference(self, measurements):
        table = normalize_parallel(measurements)
        assert table[1]["non-coh-dma"]["exec"] == pytest.approx(1.0)

    def test_execution_time_degrades_with_concurrency(self, measurements):
        table = normalize_parallel(measurements)
        for mode in COHERENCE_MODES:
            assert table[12][mode.label]["exec"] > table[1][mode.label]["exec"]

    def test_coherent_dma_degrades_more_than_non_coherent(self, measurements):
        summary = degradation_summary(measurements)
        assert summary["coh-dma"] > summary["non-coh-dma"]

    def test_cached_modes_have_zero_offchip_at_low_concurrency(self, measurements):
        table = normalize_parallel(measurements)
        assert table[1]["coh-dma"]["mem"] == pytest.approx(0.0)

    def test_missing_reference_raises(self, measurements):
        filtered = [m for m in measurements if m.active_accelerators != 1]
        with pytest.raises(ExperimentError):
            normalize_parallel(filtered)

    def test_report_renders(self, measurements):
        text = report.report_parallel(measurements)
        assert "Figure 3" in text


class TestPhaseAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self):
        setup = traffic_setup("SoC1", seed=7)
        return run_phase_analysis(
            setup=setup,
            policy_kinds=("fixed-non-coh-dma", "fixed-coh-dma", "manual", "cohmeleon"),
            training_iterations=2,
            loops_per_thread=1,
            seed=7,
        )

    def test_four_phases_reported(self, analysis):
        assert len(analysis.phase_names) == 4
        assert set(analysis.table) == set(analysis.phase_names)

    def test_reference_policy_normalised_to_one(self, analysis):
        for phase in analysis.phase_names:
            assert analysis.table[phase]["fixed-non-coh-dma"]["exec"] == pytest.approx(1.0)

    def test_all_policies_present_per_phase(self, analysis):
        for phase in analysis.phase_names:
            assert set(analysis.table[phase]) == {
                "fixed-non-coh-dma",
                "fixed-coh-dma",
                "manual",
                "cohmeleon",
            }

    def test_figure5_application_structure(self):
        setup = traffic_setup("SoC1", seed=7)
        app = figure5_application(setup, seed=7)
        thread_counts = [len(phase.threads) for phase in app.phases]
        assert thread_counts == [6, 3, 10, 4]

    def test_training_application_is_diverse(self):
        setup = traffic_setup("SoC1", seed=7)
        app = training_application(setup, seed=8)
        assert app.total_invocations >= 20

    def test_report_renders(self, analysis):
        text = report.report_phases(analysis)
        assert "Figure 5" in text


class TestRewardDse:
    def test_dse_produces_points_for_all_weightings(self, quick_setup):
        result = run_reward_dse(
            setup=quick_setup,
            weightings=((67.5, 7.5, 25.0), (2.5, 2.5, 95.0)),
            training_iterations=1,
            baseline_kinds=("fixed-non-coh-dma", "manual"),
            test_app=quick_app(quick_setup, threads=3),
            seed=9,
        )
        assert len(result.cohmeleon_points()) == 2
        assert len(result.points) == 4
        assert result.pareto_front()
        text = report.report_reward_dse(result)
        assert "Figure 6" in text

    def test_empty_weightings_rejected(self, quick_setup):
        with pytest.raises(ExperimentError):
            run_reward_dse(setup=quick_setup, weightings=())


class TestBreakdown:
    def test_breakdown_frequencies_sum_to_one(self, quick_setup):
        result = run_breakdown_experiment(
            setup=quick_setup, training_iterations=1, seed=3
        )
        for breakdown in result.breakdowns.values():
            for frequencies in breakdown.frequencies.values():
                assert sum(frequencies.values()) == pytest.approx(1.0)
        assert "manual" in result.breakdowns and "cohmeleon" in result.breakdowns
        text = report.report_breakdown(result)
        assert "Figure 7" in text

    def test_breakdown_from_invocations_requires_data(self, quick_setup):
        with pytest.raises(ExperimentError):
            breakdown_from_invocations("p", [], quick_setup)


class TestTrainingStudy:
    def test_curves_have_expected_lengths(self, quick_setup):
        result = run_training_study(
            setup=quick_setup,
            budgets=(2,),
            seed=5,
            test_app=quick_app(quick_setup, threads=2),
            train_app=quick_app(quick_setup, threads=3),
        )
        curve = result.curves[2]
        assert len(curve.points) == 3  # iteration 0 (untrained) + 2
        assert curve.initial_point().iteration == 0
        assert result.convergence_iteration(2) <= 2
        text = report.report_training(result)
        assert "Figure 8" in text

    def test_empty_budgets_rejected(self, quick_setup):
        with pytest.raises(ExperimentError):
            run_training_study(setup=quick_setup, budgets=())


class TestSocComparisonAndSummary:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_soc_comparison(
            labels=("SoC1", "SoC6"),
            policy_kinds=("fixed-non-coh-dma", "fixed-coh-dma", "manual", "cohmeleon"),
            training_iterations=1,
            seed=2,
        )

    def test_points_for_every_soc_and_policy(self, comparison):
        assert len(comparison.points) == 2 * 4
        assert set(comparison.for_soc("SoC1")) == {
            "fixed-non-coh-dma",
            "fixed-coh-dma",
            "manual",
            "cohmeleon",
        }

    def test_reference_normalised_to_one(self, comparison):
        for soc_label in ("SoC1", "SoC6"):
            point = comparison.for_soc(soc_label)["fixed-non-coh-dma"]
            assert point.norm_exec == pytest.approx(1.0)

    def test_summary_computes_headline_numbers(self, comparison):
        summary = summarize_headline(
            comparison, fixed_policies=("fixed-non-coh-dma", "fixed-coh-dma")
        )
        assert summary.per_soc_speedup
        assert -1.0 < summary.speedup_vs_fixed < 10.0
        assert 0.0 <= summary.mem_reduction_vs_fixed <= 1.0
        text = report.report_headline(summary)
        assert "headline" in text

    def test_figure9_setup_labels(self):
        assert figure9_setup("SoC0-Streaming").name.startswith("SoC0")
        assert figure9_setup("SoC5").name == "SoC5"
        with pytest.raises(ExperimentError):
            figure9_setup("SoC42")

    def test_report_renders(self, comparison):
        text = report.report_socs(comparison)
        assert "Figure 9" in text


class TestOverhead:
    def test_overhead_decreases_with_footprint(self):
        setup = motivation_setup(
            accelerators=[accelerator_by_name("FFT")], line_bytes=256
        )
        measurements = run_overhead_experiment(
            setup=setup,
            footprints=(16 * KB, 1 * MB),
            accelerators=[accelerator_by_name("FFT")],
            invocations_per_point=2,
        )
        assert measurements[0].overhead_fraction > measurements[-1].overhead_fraction
        table = overhead_table(measurements)
        assert "16KB" in table and "1MB" in table
        text = report.report_overhead(measurements)
        assert "overhead" in text.lower()

    def test_invalid_invocation_count(self):
        with pytest.raises(ExperimentError):
            run_overhead_experiment(invocations_per_point=0)
