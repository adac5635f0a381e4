"""Unit tests for accelerator descriptors, the library, traffic generator,
catalogues, and invocation records."""

from __future__ import annotations

import pytest

from repro.accelerators.catalog import (
    BENCHMARK_SUITE_COVERAGE,
    LITERATURE_COHERENCE_MODES,
    mode_support_matrix,
)
from repro.accelerators.descriptor import AccessPattern, AcceleratorDescriptor
from repro.accelerators.invocation import InvocationRequest, InvocationResult
from repro.accelerators.library import (
    ACCELERATOR_LIBRARY,
    accelerator_by_name,
    accelerator_names,
)
from repro.accelerators.traffic import TrafficGeneratorConfig, TrafficGeneratorFactory
from repro.errors import ConfigurationError
from repro.soc.address import Buffer, BufferSegment
from repro.soc.coherence import CoherenceMode
from repro.units import KB, MB
from repro.utils.rng import SeededRNG


class TestDescriptorValidation:
    def test_valid_descriptor(self):
        descriptor = AcceleratorDescriptor(name="ok", burst_bytes=256)
        assert descriptor.name == "ok"

    def test_invalid_burst(self):
        with pytest.raises(ConfigurationError):
            AcceleratorDescriptor(name="bad", burst_bytes=0)

    def test_invalid_reuse(self):
        with pytest.raises(ConfigurationError):
            AcceleratorDescriptor(name="bad", reuse_factor=0.5)

    def test_strided_requires_stride(self):
        with pytest.raises(ConfigurationError):
            AcceleratorDescriptor(name="bad", access_pattern=AccessPattern.STRIDED)

    def test_access_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            AcceleratorDescriptor(name="bad", access_fraction=0.0)


class TestDescriptorVolumes:
    def test_in_place_reads_and_writes_full_footprint(self):
        descriptor = AcceleratorDescriptor(name="ip", in_place=True, local_mem_bytes=1 * KB)
        assert descriptor.input_bytes(1 * MB) == 1 * MB
        assert descriptor.output_bytes(1 * MB) == 1 * MB

    def test_read_write_ratio_splits_footprint(self):
        descriptor = AcceleratorDescriptor(name="rw", read_write_ratio=3.0)
        footprint = 400 * KB
        assert descriptor.input_bytes(footprint) == pytest.approx(300 * KB, rel=0.01)
        assert descriptor.output_bytes(footprint) == pytest.approx(100 * KB, rel=0.01)

    def test_scratchpad_suppresses_reuse(self):
        descriptor = AcceleratorDescriptor(
            name="fit", reuse_factor=4.0, local_mem_bytes=128 * KB
        )
        assert descriptor.effective_reuse(64 * KB) == 1.0
        assert descriptor.effective_reuse(1 * MB) == 4.0

    def test_irregular_touches_fraction(self):
        descriptor = AcceleratorDescriptor(
            name="irr",
            access_pattern=AccessPattern.IRREGULAR,
            access_fraction=0.5,
            local_mem_bytes=1 * KB,
        )
        assert descriptor.touched_fraction() == 0.5
        assert descriptor.read_bytes(1 * MB) < descriptor.input_bytes(1 * MB)

    def test_compute_cycles_scale_with_footprint(self):
        descriptor = AcceleratorDescriptor(name="c", compute_cycles_per_byte=2.0)
        assert descriptor.compute_cycles(1000) == 2000.0

    def test_dma_bursts_positive(self):
        descriptor = AcceleratorDescriptor(name="b", burst_bytes=1024)
        assert descriptor.dma_bursts(10) >= 1

    def test_with_overrides(self):
        descriptor = accelerator_by_name("FFT").with_overrides(reuse_factor=2.0)
        assert descriptor.reuse_factor == 2.0
        assert descriptor.name == "FFT"


class TestLibrary:
    def test_twelve_accelerators(self):
        assert len(ACCELERATOR_LIBRARY) == 12

    def test_names_match_table2(self):
        expected = {
            "Autoencoder",
            "Cholesky",
            "Conv-2D",
            "FFT",
            "GEMM",
            "MLP",
            "MRI-Q",
            "NVDLA",
            "Night-vision",
            "Sort",
            "SPMV",
            "Viterbi",
        }
        assert set(accelerator_names()) == expected

    def test_lookup_by_alias(self):
        assert accelerator_by_name("fft").name == "FFT"
        assert accelerator_by_name("night-vision").name == "Night-vision"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            accelerator_by_name("Quantum")

    def test_spmv_is_irregular(self):
        assert accelerator_by_name("SPMV").access_pattern is AccessPattern.IRREGULAR

    def test_library_has_compute_and_communication_bound_members(self):
        intensities = [a.compute_cycles_per_byte for a in ACCELERATOR_LIBRARY]
        assert min(intensities) < 1.0
        assert max(intensities) >= 4.0


class TestTrafficGenerator:
    def test_config_to_descriptor(self):
        config = TrafficGeneratorConfig(
            access_pattern=AccessPattern.STRIDED, stride_bytes=512
        )
        descriptor = config.to_descriptor("TG")
        assert descriptor.stride_bytes == 512
        assert descriptor.name == "TG"

    def test_factory_is_deterministic(self):
        a = TrafficGeneratorFactory(SeededRNG(1)).build_set(5)
        b = TrafficGeneratorFactory(SeededRNG(1)).build_set(5)
        assert [d.burst_bytes for d in a] == [d.burst_bytes for d in b]

    def test_pattern_restriction(self):
        descriptors = TrafficGeneratorFactory(SeededRNG(2)).build_set(
            6, AccessPattern.IRREGULAR
        )
        assert all(d.access_pattern is AccessPattern.IRREGULAR for d in descriptors)

    def test_mixed_set_covers_all_patterns(self):
        descriptors = TrafficGeneratorFactory(SeededRNG(3)).build_mixed_set(9)
        patterns = {d.access_pattern for d in descriptors}
        assert patterns == set(AccessPattern)

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            TrafficGeneratorFactory().build_set(0)

    def test_random_configs_are_valid_descriptors(self):
        factory = TrafficGeneratorFactory(SeededRNG(4))
        for index in range(20):
            descriptor = factory.random_descriptor(index)
            assert descriptor.burst_bytes > 0
            assert descriptor.reuse_factor >= 1.0


class TestCatalog:
    def test_table1_contains_esp_and_nvdla(self):
        assert CoherenceMode.LLC_COH_DMA in LITERATURE_COHERENCE_MODES["ESP"]
        assert LITERATURE_COHERENCE_MODES["NVDLA"] == frozenset({CoherenceMode.NON_COH_DMA})

    def test_no_system_supports_zero_modes(self):
        assert all(modes for modes in LITERATURE_COHERENCE_MODES.values())

    def test_table2_esp_covers_all_accelerators(self):
        assert len(BENCHMARK_SUITE_COVERAGE["ESP"]) == 12

    def test_suites_covering_fft(self):
        suites = {
            suite
            for suite, accelerators in BENCHMARK_SUITE_COVERAGE.items()
            if "FFT" in accelerators
        }
        assert {"MachSuite", "Parboil"} <= suites

    def test_mode_support_matrix_shape(self):
        matrix = mode_support_matrix()
        assert set(matrix["ESP"]) == {m.label for m in CoherenceMode}


class TestInvocationRecords:
    def _buffer(self, size=64 * KB):
        return Buffer(name="b", size=size, segments=(BufferSegment(0, 0, size),))

    def test_request_validation(self):
        buffer = self._buffer()
        request = InvocationRequest(
            accelerator=accelerator_by_name("FFT"),
            tile_name="acc0",
            buffer=buffer,
            footprint_bytes=32 * KB,
        )
        assert request.footprint_bytes == 32 * KB
        with pytest.raises(ValueError):
            InvocationRequest(
                accelerator=accelerator_by_name("FFT"),
                tile_name="acc0",
                buffer=buffer,
                footprint_bytes=buffer.size + 1,
            )

    def test_result_derived_metrics(self):
        result = InvocationResult(
            accelerator_name="FFT",
            tile_name="acc0",
            mode=CoherenceMode.COH_DMA,
            footprint_bytes=1000,
            total_cycles=5000.0,
            accelerator_cycles=4000.0,
            comm_cycles=1000.0,
            ddr_accesses=200.0,
        )
        assert result.comm_ratio == pytest.approx(0.25)
        assert result.scaled_exec == pytest.approx(5.0)
        assert result.scaled_mem == pytest.approx(0.2)
        payload = result.as_dict()
        assert payload["mode"] == "coh-dma"

    def test_result_handles_zero_cycles(self):
        result = InvocationResult(
            accelerator_name="FFT",
            tile_name="acc0",
            mode=CoherenceMode.COH_DMA,
            footprint_bytes=1000,
            total_cycles=0.0,
            accelerator_cycles=0.0,
            comm_cycles=0.0,
            ddr_accesses=0.0,
        )
        assert result.comm_ratio == 0.0
