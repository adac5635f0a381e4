"""Unit tests for the address map and big-page allocator."""

from __future__ import annotations

import pytest

from repro.errors import AllocationError, ConfigurationError
from repro.soc.address import AddressMap, Allocator, Buffer, BufferSegment
from repro.units import KB, MB


@pytest.fixture
def address_map():
    return AddressMap(num_mem_tiles=4, partition_bytes=16 * MB)


@pytest.fixture
def allocator(address_map):
    return Allocator(address_map, page_bytes=1 * MB)


class TestAddressMap:
    def test_partition_base(self, address_map):
        assert address_map.partition_base(2) == 32 * MB

    def test_out_of_range_partition(self, address_map):
        with pytest.raises(AllocationError):
            address_map.partition_base(4)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            AddressMap(0, 1024)
        with pytest.raises(ConfigurationError):
            AddressMap(2, 0)

    def test_total_bytes(self, address_map):
        assert address_map.total_bytes == 64 * MB


class TestAllocator:
    def test_small_buffer_single_segment(self, allocator):
        buffer = allocator.allocate(64 * KB, name="b0")
        assert len(buffer.segments) == 1
        assert buffer.size == 64 * KB

    def test_round_robin_spreads_small_buffers(self, allocator):
        buffers = [allocator.allocate(64 * KB) for _ in range(4)]
        tiles = [buffer.segments[0].mem_tile for buffer in buffers]
        assert sorted(tiles) == [0, 1, 2, 3]

    def test_large_buffer_spans_partitions(self, allocator):
        buffer = allocator.allocate(3 * MB, name="big")
        assert len(buffer.mem_tiles) >= 2
        assert sum(segment.size for segment in buffer.segments) >= 3 * MB

    def test_zero_size_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.allocate(0)

    def test_exhaustion_raises(self):
        small_map = AddressMap(num_mem_tiles=1, partition_bytes=1 * MB)
        allocator = Allocator(small_map, page_bytes=1 * MB)
        allocator.allocate(1 * MB)
        with pytest.raises(AllocationError):
            allocator.allocate(64 * KB)

    def test_allocations_registry_and_free(self, allocator):
        buffer = allocator.allocate(64 * KB, name="mine")
        unnamed = allocator.allocate(64 * KB)
        assert allocator.allocations == {"mine": buffer, unnamed.name: unnamed}


class TestBuffer:
    def test_footprint_per_tile_sums_to_padded_size(self, allocator):
        buffer = allocator.allocate(2 * MB + 1, name="odd")
        footprint = buffer.footprint_per_tile()
        assert sum(footprint.values()) >= buffer.size

    def test_slice_within_single_segment(self, allocator):
        buffer = allocator.allocate(256 * KB)
        segments = buffer.slice(64 * KB, 64 * KB)
        assert sum(segment.size for segment in segments) == 64 * KB
        assert segments[0].start == buffer.segments[0].start + 64 * KB

    def test_slice_across_segments(self, allocator):
        buffer = allocator.allocate(2 * MB)
        segments = buffer.slice(512 * KB, 1 * MB)
        assert sum(segment.size for segment in segments) == 1 * MB

    def test_slice_out_of_bounds(self, allocator):
        buffer = allocator.allocate(64 * KB)
        with pytest.raises(AllocationError):
            buffer.slice(0, buffer.size + 1)
        with pytest.raises(AllocationError):
            buffer.slice(-1, 10)

    def test_slice_full_buffer(self, allocator):
        buffer = allocator.allocate(1536 * KB)
        segments = buffer.slice(0, buffer.size)
        assert sum(segment.size for segment in segments) == buffer.size

    def test_segment_end(self):
        segment = BufferSegment(mem_tile=0, start=100, size=50)
        assert segment.end == 150

    def test_mem_tiles_sorted_unique(self):
        buffer = Buffer(
            name="b",
            size=200,
            segments=(
                BufferSegment(1, 0, 100),
                BufferSegment(0, 1000, 100),
            ),
        )
        assert buffer.mem_tiles == (0, 1)
