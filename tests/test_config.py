"""Unit tests for SoC configuration and the Table 4 presets."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.soc.config import (
    SOC0,
    SOC3,
    SoCConfig,
    TimingConfig,
    available_presets,
    soc_preset,
)
from repro.units import KB, MB


class TestTimingConfig:
    def test_defaults_validate(self):
        TimingConfig().validate()

    def test_negative_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingConfig(dram_latency_cycles=-1).validate()

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingConfig(noc_bytes_per_cycle=0).validate()


class TestSoCConfig:
    def test_valid_config_builds(self, tiny_config):
        assert tiny_config.total_llc_bytes == 2 * tiny_config.llc_partition_bytes

    def test_too_many_tiles_rejected(self):
        with pytest.raises(ConfigurationError):
            SoCConfig(
                name="overfull",
                num_accelerator_tiles=10,
                noc_rows=2,
                noc_cols=2,
                num_cpus=1,
                num_mem_tiles=1,
                llc_partition_bytes=128 * KB,
                l2_bytes=16 * KB,
            )

    def test_invalid_cacheless_index_rejected(self):
        with pytest.raises(ConfigurationError):
            SoCConfig(
                name="bad",
                num_accelerator_tiles=2,
                noc_rows=3,
                noc_cols=3,
                num_cpus=1,
                num_mem_tiles=1,
                llc_partition_bytes=128 * KB,
                l2_bytes=16 * KB,
                accelerators_without_cache=(5,),
            )

    def test_accelerator_has_cache(self):
        assert SOC3.accelerator_has_cache(0)
        assert not SOC3.accelerator_has_cache(12)

    def test_with_line_size(self, tiny_config):
        coarse = tiny_config.with_line_size(256)
        assert coarse.cache_line_bytes == 256

    def test_describe_matches_table4_fields(self):
        summary = SOC0.describe()
        assert summary["accelerators"] == 12
        assert summary["noc"] == "5x5"
        assert summary["cpus"] == 4
        assert summary["ddrs"] == 4
        assert summary["llc_partition_kb"] == 512
        assert summary["total_llc_kb"] == 2048
        assert summary["l2_kb"] == 64


class TestPresets:
    def test_all_table4_presets_exist(self):
        names = available_presets()
        for expected in ("SoC0", "SoC1", "SoC2", "SoC3", "SoC4", "SoC5", "SoC6"):
            assert expected in names

    def test_preset_lookup(self):
        assert soc_preset("SoC0") is SOC0

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError):
            soc_preset("SoC99")

    @pytest.mark.parametrize(
        "name,accelerators,cpus,ddrs,llc_partition_kb,total_llc_kb,l2_kb",
        [
            ("SoC0", 12, 4, 4, 512, 2048, 64),
            ("SoC1", 7, 2, 4, 256, 1024, 32),
            ("SoC2", 9, 4, 2, 512, 1024, 32),
            ("SoC3", 16, 4, 4, 256, 1024, 64),
            ("SoC4", 11, 2, 4, 256, 1024, 32),
            ("SoC5", 8, 1, 4, 256, 1024, 32),
            ("SoC6", 9, 1, 2, 256, 512, 32),
        ],
    )
    def test_table4_parameters(
        self, name, accelerators, cpus, ddrs, llc_partition_kb, total_llc_kb, l2_kb
    ):
        config = soc_preset(name)
        assert config.num_accelerator_tiles == accelerators
        assert config.num_cpus == cpus
        assert config.num_mem_tiles == ddrs
        assert config.llc_partition_bytes == llc_partition_kb * KB
        assert config.total_llc_bytes == total_llc_kb * KB
        assert config.l2_bytes == l2_kb * KB

    def test_soc3_has_five_cacheless_accelerators(self):
        assert len(SOC3.accelerators_without_cache) == 5

    def test_motivation_soc_matches_section3(self):
        config = soc_preset("Motivation")
        assert config.l2_bytes == 32 * KB
        assert config.num_mem_tiles == 2
        assert config.total_llc_bytes == 1 * MB
