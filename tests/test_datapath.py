"""Unit tests for the coherence-mode datapaths."""

from __future__ import annotations

import pytest

from repro.errors import CoherenceError
from repro.soc.coherence import CoherenceMode
from repro.soc.soc import Soc
from repro.units import KB


@pytest.fixture
def soc(tiny_config):
    return Soc(tiny_config)


def read_buffer(soc, mode, size=8 * KB, warm=False, tile="acc0"):
    buffer = soc.allocate_buffer(size)
    if warm:
        soc.warm_buffer(buffer, cpu_index=0)
    private = soc.private_cache_of(tile)
    finish, stats = soc.datapath.dma_read(
        0.0, tile, buffer.slice(0, size), mode, burst_bytes=1024, private_cache=private
    )
    return buffer, finish, stats


class TestNonCoherentPath:
    def test_reads_go_to_dram(self, soc):
        _, finish, stats = read_buffer(soc, CoherenceMode.NON_COH_DMA)
        assert stats.dram_read_lines == 8 * KB // 64
        assert finish > 0

    def test_writes_go_to_dram(self, soc):
        buffer = soc.allocate_buffer(4 * KB)
        _, stats = soc.datapath.dma_write(
            0.0, "acc0", buffer.slice(0, 4 * KB), CoherenceMode.NON_COH_DMA, 1024
        )
        assert stats.dram_write_lines == 64

    def test_warm_data_does_not_help(self, soc):
        _, _, cold_stats = read_buffer(soc, CoherenceMode.NON_COH_DMA, warm=False)
        soc.reset_state(clear_allocations=True)
        _, _, warm_stats = read_buffer(soc, CoherenceMode.NON_COH_DMA, warm=True)
        assert warm_stats.dram_read_lines == cold_stats.dram_read_lines


class TestLLCCoherentPath:
    def test_warm_data_hits_in_llc(self, soc):
        _, _, stats = read_buffer(soc, CoherenceMode.LLC_COH_DMA, warm=True)
        assert stats.dram_read_lines == 0
        assert stats.llc_hits > 0

    def test_cold_data_misses_to_dram(self, soc):
        _, _, stats = read_buffer(soc, CoherenceMode.LLC_COH_DMA, warm=False)
        assert stats.dram_read_lines > 0
        assert stats.llc_misses > 0

    def test_warm_read_faster_than_cold(self, soc):
        _, cold_finish, _ = read_buffer(soc, CoherenceMode.LLC_COH_DMA, warm=False)
        soc.reset_state(clear_allocations=True)
        _, warm_finish, _ = read_buffer(soc, CoherenceMode.LLC_COH_DMA, warm=True)
        assert warm_finish < cold_finish

    def test_write_allocates_without_dram_fetch(self, soc):
        buffer = soc.allocate_buffer(4 * KB)
        _, stats = soc.datapath.dma_write(
            0.0, "acc0", buffer.slice(0, 4 * KB), CoherenceMode.LLC_COH_DMA, 1024
        )
        assert stats.dram_read_lines == 0


class TestCoherentDmaPath:
    def test_recalls_dirty_lines_from_cpu_cache(self, soc):
        buffer = soc.allocate_buffer(4 * KB)
        soc.cpu_l2_caches[0].install_range(buffer.segments[0].start, 4 * KB, dirty=True)
        _, stats = soc.datapath.dma_read(
            0.0, "acc0", buffer.slice(0, 4 * KB), CoherenceMode.COH_DMA, 1024
        )
        assert stats.recalls == 64
        assert soc.cpu_l2_caches[0].resident_lines_in_range(
            buffer.segments[0].start, 4 * KB
        ) == 0

    def test_recalls_from_every_private_cache_but_its_own(self, soc):
        # acc0's coherent DMA recalls the lines the other CPU's L2 and acc1's
        # cache hold, and leaves its own cache alone.
        buffer = soc.allocate_buffer(4 * KB)
        start = buffer.segments[0].start
        own = soc.private_cache_of("acc0")
        others = [soc.cpu_l2_caches[1], soc.private_cache_of("acc1")]
        for cache in (own, *others):
            cache.install_range(start, 4 * KB, dirty=False)
        _, stats = soc.datapath.dma_read(
            0.0, "acc0", buffer.slice(0, 4 * KB), CoherenceMode.COH_DMA, 1024
        )
        assert stats.recalls == 2 * 64
        assert [cache.resident_lines_in_range(start, 4 * KB) for cache in others] == [0, 0]
        assert own.resident_lines_in_range(start, 4 * KB) == 64

    def test_no_recalls_when_caches_empty(self, soc):
        _, _, stats = read_buffer(soc, CoherenceMode.COH_DMA, warm=False)
        assert stats.recalls == 0

    def test_recall_adds_latency(self, soc):
        buffer = soc.allocate_buffer(4 * KB)
        base_finish, _ = soc.datapath.dma_read(
            0.0, "acc0", buffer.slice(0, 4 * KB), CoherenceMode.COH_DMA, 1024
        )
        soc.reset_state(clear_allocations=True)
        buffer = soc.allocate_buffer(4 * KB)
        soc.cpu_l2_caches[0].install_range(buffer.segments[0].start, 4 * KB, dirty=True)
        recall_finish, _ = soc.datapath.dma_read(
            0.0, "acc0", buffer.slice(0, 4 * KB), CoherenceMode.COH_DMA, 1024
        )
        # The recalled run fetches from the LLC (fast) but pays the recall
        # latency; it must not be cheaper than an uncontended cold run minus
        # its DRAM latency, i.e. the recall cost is visible.
        assert recall_finish > 0
        assert recall_finish != base_finish


class TestFullyCoherentPath:
    def test_requires_private_cache(self, soc):
        buffer = soc.allocate_buffer(1 * KB)
        with pytest.raises(CoherenceError):
            soc.datapath.dma_read(
                0.0, "acc0", buffer.slice(0, 1 * KB), CoherenceMode.FULL_COH, 1024, None
            )

    def test_second_read_hits_private_cache(self, soc):
        buffer = soc.allocate_buffer(4 * KB)
        private = soc.private_cache_of("acc0")
        segments = buffer.slice(0, 4 * KB)
        _, first = soc.datapath.dma_read(
            0.0, "acc0", segments, CoherenceMode.FULL_COH, 1024, private
        )
        _, second = soc.datapath.dma_read(
            0.0, "acc0", segments, CoherenceMode.FULL_COH, 1024, private
        )
        assert first.private_misses > 0
        assert second.private_hits == first.private_misses
        assert second.private_misses == 0

    def test_write_misses_fetch_ownership(self, soc):
        buffer = soc.allocate_buffer(4 * KB)
        private = soc.private_cache_of("acc0")
        _, stats = soc.datapath.dma_write(
            0.0, "acc0", buffer.slice(0, 4 * KB), CoherenceMode.FULL_COH, 1024, private
        )
        # Read-for-ownership traffic reaches the LLC / DRAM.
        assert stats.llc_misses + stats.llc_hits > 0


class TestFlushes:
    def test_non_coherent_flush_writes_back_to_dram(self, soc):
        buffer = soc.allocate_buffer(8 * KB)
        soc.warm_buffer(buffer, cpu_index=0)
        before = soc.monitors.total_ddr_accesses()
        finish, stats = soc.datapath.flush_for_invocation(
            0.0, CoherenceMode.NON_COH_DMA, buffer.slice(0, 8 * KB)
        )
        assert finish > 0
        assert stats.flush_invalidations > 0
        assert soc.monitors.total_ddr_accesses() > before

    def test_llc_coherent_flush_keeps_data_in_llc(self, soc):
        buffer = soc.allocate_buffer(8 * KB)
        soc.warm_buffer(buffer, cpu_index=0)
        _, stats = soc.datapath.flush_for_invocation(
            0.0, CoherenceMode.LLC_COH_DMA, buffer.slice(0, 8 * KB)
        )
        assert stats.flush_writebacks > 0
        # The flushed lines remain resident in the LLC partition.
        partition = soc.llc_partitions[buffer.segments[0].mem_tile]
        assert partition.cache.resident_lines_in_range(buffer.segments[0].start, 8 * KB) > 0

    def test_coherent_modes_need_no_flush(self, soc):
        buffer = soc.allocate_buffer(8 * KB)
        soc.warm_buffer(buffer, cpu_index=0)
        for mode in (CoherenceMode.COH_DMA, CoherenceMode.FULL_COH):
            finish, stats = soc.datapath.flush_for_invocation(
                0.0, mode, buffer.slice(0, 8 * KB)
            )
            assert finish == 0.0
            assert stats.flush_invalidations == 0

    def test_flush_cost_scales_with_resident_data(self, soc):
        small = soc.allocate_buffer(2 * KB)
        large = soc.allocate_buffer(16 * KB)
        soc.warm_buffer(small, cpu_index=0)
        small_finish, _ = soc.datapath.flush_for_invocation(
            0.0, CoherenceMode.NON_COH_DMA, small.slice(0, 2 * KB)
        )
        soc.reset_state()
        soc.warm_buffer(large, cpu_index=0)
        large_finish, _ = soc.datapath.flush_for_invocation(
            0.0, CoherenceMode.NON_COH_DMA, large.slice(0, 16 * KB)
        )
        assert large_finish > small_finish


class TestTransferStats:
    def test_merge_accumulates(self, soc):
        _, _, a = read_buffer(soc, CoherenceMode.NON_COH_DMA, size=2 * KB)
        lines = a.dram_read_lines
        b, _, _ = read_buffer(soc, CoherenceMode.NON_COH_DMA, size=2 * KB)
        a.merge(_last_stats(soc, b))
        assert a.dram_read_lines >= lines

    def test_as_dict_round_trip(self, soc):
        _, _, stats = read_buffer(soc, CoherenceMode.LLC_COH_DMA, size=2 * KB)
        payload = stats.as_dict()
        assert payload["dram_lines"] == stats.dram_lines
        assert payload["bytes_moved"] == stats.bytes_moved


def _last_stats(soc, buffer):
    """Helper: re-read a buffer to obtain a fresh stats object."""
    finish, stats = soc.datapath.dma_read(
        0.0, "acc0", buffer.slice(0, buffer.size), CoherenceMode.NON_COH_DMA, 1024
    )
    return stats
