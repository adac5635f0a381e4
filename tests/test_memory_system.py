"""Unit tests for DRAM controllers, LLC partitions, and hardware monitors."""

from __future__ import annotations

import pytest

from repro.sim.resources import ResourceStats
from repro.soc.dram import DramController
from repro.soc.llc import LLCPartition
from repro.soc.monitors import HardwareMonitors
from repro.units import KB


@pytest.fixture
def dram():
    return DramController(mem_tile=0, bytes_per_cycle=8.0, latency_cycles=100.0, line_bytes=64)


@pytest.fixture
def llc():
    return LLCPartition(
        mem_tile=0,
        size_bytes=64 * KB,
        line_bytes=64,
        ways=8,
        port_bytes_per_cycle=8.0,
        lookup_cycles=10.0,
    )


class TestDramController:
    def test_read_counts_lines(self, dram):
        dram.read(0.0, 1024)
        assert dram.counters.reads == 16
        assert dram.counters.writes == 0
        assert dram.total_accesses == 16

    def test_write_counts_lines(self, dram):
        dram.write(0.0, 640)
        assert dram.counters.writes == 10

    def test_write_back_counts_lines_directly(self, dram):
        dram.write_back(0.0, 5)
        assert dram.counters.writes == 5

    def test_zero_size_transfers_are_free(self, dram):
        assert dram.read(10.0, 0) == 10.0
        assert dram.write(10.0, 0) == 10.0
        assert dram.write_back(10.0, 0) == 10.0
        assert dram.total_accesses == 0

    def test_more_bursts_cost_more_latency(self, dram):
        single = dram.read(0.0, 4096, bursts=1)
        dram.reset()
        many = dram.read(0.0, 4096, bursts=16)
        assert many > single

    def test_reset_clears_counters(self, dram):
        dram.read(0.0, 64)
        dram.reset()
        assert dram.total_accesses == 0


class TestLLCPartition:
    def test_port_serialization(self, llc):
        first = llc.serve_port(0.0, 1024)
        second = llc.serve_port(0.0, 1024)
        assert second > first

    def test_flush_reports_dirty_writebacks(self, llc):
        llc.warm(0, 2 * KB, dirty=True)
        writebacks, invalidations = llc.flush()
        assert writebacks == 32
        assert invalidations == 32

    def test_occupancy_and_stats(self, llc):
        llc.port.stats = ResourceStats()
        llc.warm(0, 8 * KB)
        llc.serve_port(0.0, 64)
        assert llc.occupancy_bytes() == 8 * KB
        assert llc.cache.stats.accesses == 0
        assert llc.port.stats.requests == 1

    def test_reset(self, llc):
        llc.port.stats = ResourceStats()
        llc.warm(0, 1 * KB)
        llc.serve_port(0.0, 64)
        llc.reset()
        assert llc.occupancy_bytes() == 0
        assert llc.port.stats.requests == 0

    def test_size_property(self, llc):
        assert llc.size_bytes == 64 * KB


class TestHardwareMonitors:
    def test_ddr_snapshot_and_delta(self, dram):
        monitors = HardwareMonitors([dram])
        before = monitors.ddr_snapshot()
        dram.read(0.0, 640)
        after = monitors.ddr_snapshot()
        delta = before.delta(after)
        assert delta[0] == 10
        assert after.total == 10

    def test_total_ddr_accesses(self, dram):
        monitors = HardwareMonitors([dram])
        dram.write(0.0, 128)
        assert monitors.total_ddr_accesses() == 2

    def test_reset_clears_counters(self, tiny_soc):
        # The monitors read the controllers, which the SoC's reset clears.
        tiny_soc.dram_controllers[0].read(0.0, 64)
        assert tiny_soc.monitors.total_ddr_accesses() == 1
        tiny_soc.reset_state()
        assert tiny_soc.monitors.total_ddr_accesses() == 0
