"""Unit tests for workload sizes, specs, the generator, and case studies."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.soc.config import soc_preset
from repro.utils.rng import SeededRNG
from repro.workloads.case_studies import (
    case_study_accelerators,
    case_study_application,
    case_study_setup,
    soc4_accelerators,
    soc5_accelerators,
    soc6_accelerators,
)
from repro.workloads.generator import ApplicationGenerator, GeneratorConfig
from repro.workloads.sizes import (
    WorkloadSizeClass,
    footprint_for_class,
    size_class_of,
)
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec
from repro.units import KB


class TestWorkloadSizes:
    def test_classification_matches_paper_definitions(self):
        config = soc_preset("SoC1")  # 32 KB L2, 256 KB slice, 1 MB LLC
        assert size_class_of(16 * KB, config) is WorkloadSizeClass.SMALL
        assert size_class_of(128 * KB, config) is WorkloadSizeClass.MEDIUM
        assert size_class_of(512 * KB, config) is WorkloadSizeClass.LARGE
        assert size_class_of(2048 * KB, config) is WorkloadSizeClass.EXTRA_LARGE

    @pytest.mark.parametrize("size_class", list(WorkloadSizeClass))
    def test_footprint_for_class_roundtrips(self, size_class):
        config = soc_preset("SoC0")
        footprint = footprint_for_class(size_class, config)
        assert size_class_of(footprint, config) is size_class

    def test_randomised_footprints_stay_in_class(self):
        config = soc_preset("SoC2")
        rng = SeededRNG(1)
        for _ in range(20):
            footprint = footprint_for_class(WorkloadSizeClass.MEDIUM, config, rng=rng)
            assert size_class_of(footprint, config) is WorkloadSizeClass.MEDIUM

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            footprint_for_class(WorkloadSizeClass.SMALL, soc_preset("SoC0"), fraction=0.0)


class TestSpecs:
    def test_thread_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ThreadSpec("t", (), 1024)
        with pytest.raises(ConfigurationError):
            ThreadSpec("t", ("FFT",), 0)
        with pytest.raises(ConfigurationError):
            ThreadSpec("t", ("FFT",), 1024, loop_count=0)

    def test_thread_total_invocations(self):
        thread = ThreadSpec("t", ("FFT", "GEMM"), 1024, loop_count=3)
        assert thread.total_invocations == 6

    def test_phase_requires_unique_thread_ids(self):
        thread = ThreadSpec("dup", ("FFT",), 1024)
        with pytest.raises(ConfigurationError):
            PhaseSpec("p", (thread, thread))

    def test_phase_and_application_aggregates(self):
        phase = PhaseSpec(
            "p",
            (
                ThreadSpec("a", ("FFT",), 1024, loop_count=2),
                ThreadSpec("b", ("GEMM", "SPMV"), 2048),
            ),
        )
        app = ApplicationSpec("app", (phase,))
        assert phase.total_invocations == 4
        assert app.total_invocations == 4
        assert app.accelerators_used() == ["FFT", "GEMM", "SPMV"]
        assert app.phase_names() == ["p"]

    def test_empty_application_rejected(self):
        with pytest.raises(ConfigurationError):
            ApplicationSpec("empty", ())


class TestGenerator:
    def make_generator(self, **config_overrides):
        return ApplicationGenerator(
            soc_config=soc_preset("SoC1"),
            accelerator_names=["FFT", "GEMM", "SPMV"],
            generator_config=GeneratorConfig(**config_overrides) if config_overrides else None,
            seed=11,
        )

    def test_deterministic_for_same_seed_and_instance(self):
        a = self.make_generator().generate(instance=0)
        b = self.make_generator().generate(instance=0)
        assert a.phases == b.phases

    def test_instances_differ(self):
        generator = self.make_generator()
        assert generator.generate(0).phases != generator.generate(1).phases

    def test_generate_pair_produces_distinct_apps(self):
        train, test = self.make_generator().generate_pair()
        assert train.phases != test.phases

    def test_thread_counts_respect_bounds(self):
        app = self.make_generator(num_phases=3, min_threads=2, max_threads=4).generate()
        for phase in app.phases:
            assert 2 <= len(phase.threads) <= 4

    def test_only_known_accelerators_used(self):
        app = self.make_generator().generate()
        assert set(app.accelerators_used()) <= {"FFT", "GEMM", "SPMV"}

    def test_invalid_generator_config(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(num_phases=0)
        with pytest.raises(ConfigurationError):
            GeneratorConfig(min_threads=5, max_threads=2)

    def test_requires_accelerators(self):
        with pytest.raises(ConfigurationError):
            ApplicationGenerator(soc_preset("SoC1"), [], seed=0)


class TestCaseStudies:
    def test_accelerator_counts_fit_presets(self):
        assert len(soc4_accelerators()) == 11
        assert len(soc5_accelerators()) == 8
        assert len(soc6_accelerators()) == 9

    def test_soc5_composition_matches_paper(self):
        names = [a.name for a in soc5_accelerators()]
        assert names.count("FFT") == 2
        assert names.count("Viterbi") == 2
        assert names.count("Conv-2D") == 2
        assert names.count("GEMM") == 2

    def test_soc6_has_three_vision_pipelines(self):
        names = [a.name for a in soc6_accelerators()]
        assert names.count("Night-vision") == 3
        assert names.count("Autoencoder") == 3
        assert names.count("MLP") == 3

    @pytest.mark.parametrize("soc_name", ["SoC4", "SoC5", "SoC6"])
    def test_applications_only_use_available_accelerators(self, soc_name):
        accelerators = {a.name for a in case_study_accelerators(soc_name)}
        app = case_study_application(soc_name)
        assert set(app.accelerators_used()) <= accelerators

    def test_setup_bundles_config_and_app(self):
        config, accelerators, app = case_study_setup("SoC5")
        assert config.name == "SoC5"
        assert len(accelerators) <= config.num_accelerator_tiles
        assert app.total_invocations > 0

    def test_unknown_case_study_raises(self):
        with pytest.raises(ConfigurationError):
            case_study_accelerators("SoC0")
        with pytest.raises(ConfigurationError):
            case_study_application("SoC1")

    def test_instances_differ(self):
        assert case_study_application("SoC6", 0).phases != case_study_application("SoC6", 1).phases
