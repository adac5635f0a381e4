"""Unit tests for the whole-SoC assembly (repro.soc.soc)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.soc.config import soc_preset
from repro.soc.soc import Soc
from repro.units import KB


class TestConstruction:
    def test_component_counts_match_config(self, tiny_soc, tiny_config):
        assert len(tiny_soc.llc_partitions) == tiny_config.num_mem_tiles
        assert len(tiny_soc.dram_controllers) == tiny_config.num_mem_tiles
        assert len(tiny_soc.cpu_l2_caches) == tiny_config.num_cpus
        assert len(tiny_soc.accelerator_private_caches) == tiny_config.num_accelerator_tiles
        assert len(tiny_soc.accelerator_links) == tiny_config.num_accelerator_tiles

    def test_soc3_skips_private_caches_for_cacheless_tiles(self):
        soc = Soc(soc_preset("SoC3"))
        assert soc.private_cache_of("acc12") is None
        assert soc.private_cache_of("acc0") is not None

    def test_tile_name_helpers(self, tiny_soc):
        assert tiny_soc.memory_tile_name(0) == "mem0"
        assert tiny_soc.accelerator_tile_name(1) == "acc1"
        with pytest.raises(ConfigurationError):
            tiny_soc.memory_tile_name(9)
        with pytest.raises(ConfigurationError):
            tiny_soc.accelerator_tile_name(9)

    def test_tile_listings(self, tiny_soc, tiny_config):
        assert len(tiny_soc.accelerator_tiles()) == tiny_config.num_accelerator_tiles

    def test_describe_contains_tiles(self, tiny_soc):
        summary = tiny_soc.describe()
        assert summary["name"] == "TestSoC"
        assert any(name == "acc0" for name, _, _ in summary["tiles"])


class TestWarmup:
    def test_warm_buffer_populates_llc_and_cpu_l2(self, tiny_soc):
        buffer = tiny_soc.allocate_buffer(8 * KB)
        tiny_soc.warm_buffer(buffer, cpu_index=0)
        partition = tiny_soc.llc_partitions[buffer.segments[0].mem_tile]
        assert partition.occupancy_bytes() >= 8 * KB
        assert tiny_soc.cpu_l2_caches[0].num_valid > 0

    def test_warm_buffer_larger_than_caches_keeps_tail(self, tiny_soc, tiny_config):
        buffer = tiny_soc.allocate_buffer(tiny_config.llc_partition_bytes * 2)
        tiny_soc.warm_buffer(buffer, cpu_index=0)
        l2 = tiny_soc.cpu_l2_caches[0]
        assert l2.occupancy_bytes() <= l2.size_bytes

    def test_warm_buffer_invalid_cpu(self, tiny_soc):
        buffer = tiny_soc.allocate_buffer(1 * KB)
        with pytest.raises(ConfigurationError):
            tiny_soc.warm_buffer(buffer, cpu_index=99)


class TestReset:
    def test_reset_clears_caches_and_counters(self, tiny_soc):
        buffer = tiny_soc.allocate_buffer(8 * KB)
        tiny_soc.warm_buffer(buffer)
        tiny_soc.dram_controllers[0].read(0.0, 1024)
        tiny_soc.reset_state()
        assert tiny_soc.monitors.total_ddr_accesses() == 0
        assert all(c.num_valid == 0 for c in tiny_soc.cpu_l2_caches)
        assert tiny_soc.engine.now == 0.0

    def test_reset_preserves_allocations_by_default(self, tiny_soc):
        tiny_soc.allocate_buffer(8 * KB, name="keepme")
        tiny_soc.reset_state()
        assert "keepme" in tiny_soc.allocator.allocations

    def test_reset_can_clear_allocations(self, tiny_soc):
        tiny_soc.allocate_buffer(8 * KB, name="dropme")
        tiny_soc.reset_state(clear_allocations=True)
        assert "dropme" not in tiny_soc.allocator.allocations
