"""Partitioned address space and accelerator-data allocation.

The SoCs modelled here have a partitioned memory space: each memory tile
owns a contiguous slice of the physical address space, an LLC partition for
that slice, and a DRAM controller with a dedicated channel (Figure 1 of the
paper).  Accelerator data is allocated in "big pages" (ESP allocates
accelerator buffers in large Linux pages so the page table fits in the
accelerator TLB); buffers larger than one big page are spread across memory
partitions page by page, which gives large workloads parallel access to
multiple DRAM channels.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import AllocationError, ConfigurationError
from repro.units import BIG_PAGE_BYTES, align_up


@dataclass(frozen=True)
class BufferSegment:
    """A contiguous piece of a buffer living in one memory partition."""

    mem_tile: int
    start: int
    size: int

    @property
    def end(self) -> int:
        """Exclusive end address of the segment."""
        return self.start + self.size


@dataclass
class Buffer:
    """An accelerator data buffer spread over one or more memory partitions."""

    name: str
    size: int
    segments: Tuple[BufferSegment, ...]

    def __post_init__(self) -> None:
        # Cumulative buffer-relative start offset of each segment, so that
        # slice() can bisect to the first covering segment instead of
        # scanning from the front on every DMA chunk.
        starts: List[int] = []
        covered = 0
        for segment in self.segments:
            starts.append(covered)
            covered += segment.size
        self._segment_starts = starts
        self._slice_memo: Dict[Tuple[int, int], List[BufferSegment]] = {}
        self._footprint_memo: Dict[int, Dict[int, int]] = {}

    @property
    def mem_tiles(self) -> Tuple[int, ...]:
        """Memory tiles (partitions) that hold at least one byte of data."""
        return tuple(sorted({segment.mem_tile for segment in self.segments}))

    def footprint_per_tile(self) -> Dict[int, int]:
        """Return ``{mem_tile: bytes}`` for this buffer."""
        footprint: Dict[int, int] = {}
        for segment in self.segments:
            footprint[segment.mem_tile] = footprint.get(segment.mem_tile, 0) + segment.size
        return footprint

    def footprint_within(self, nbytes: int) -> Dict[int, int]:
        """Return ``{mem_tile: bytes}`` for the first ``nbytes`` of the buffer.

        The runtime asks this for every invocation of the same buffer and
        footprint, so results are memoized; callers must treat the returned
        mapping as read-only.
        """
        cached = self._footprint_memo.get(nbytes)
        if cached is not None:
            return cached
        footprint: Dict[int, int] = {}
        for segment in self.slice(0, nbytes):
            footprint[segment.mem_tile] = footprint.get(segment.mem_tile, 0) + segment.size
        self._footprint_memo[nbytes] = footprint
        return footprint

    def slice(self, offset: int, nbytes: int) -> List[BufferSegment]:
        """Return the segments covering ``[offset, offset + nbytes)`` of the buffer.

        Offsets are relative to the start of the buffer (not physical
        addresses); the returned segments carry physical addresses.  The
        executor re-slices the same windows on every invocation, so results
        are memoized; callers must treat the returned list as read-only.
        """
        if offset < 0 or nbytes < 0:
            raise AllocationError("negative slice bounds")
        if offset + nbytes > self.size:
            raise AllocationError(
                f"slice [{offset}, {offset + nbytes}) exceeds buffer of {self.size} bytes"
            )
        key = (offset, nbytes)
        memo = self._slice_memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        result: List[BufferSegment] = []
        if nbytes > 0:
            starts = self._segment_starts
            index = bisect_right(starts, offset) - 1
            remaining = nbytes
            cursor = offset
            while remaining > 0 and index < len(starts):
                segment = self.segments[index]
                inner = cursor - starts[index]
                take = min(segment.size - inner, remaining)
                result.append(
                    BufferSegment(
                        mem_tile=segment.mem_tile,
                        start=segment.start + inner,
                        size=take,
                    )
                )
                remaining -= take
                cursor += take
                index += 1
        if len(memo) >= 4096:
            memo.clear()
        memo[key] = result
        return result


class AddressMap:
    """Physical address map with one partition per memory tile."""

    def __init__(self, num_mem_tiles: int, partition_bytes: int) -> None:
        if num_mem_tiles <= 0:
            raise ConfigurationError("address map needs at least one memory tile")
        if partition_bytes <= 0:
            raise ConfigurationError("partition size must be positive")
        self.num_mem_tiles = num_mem_tiles
        self.partition_bytes = partition_bytes

    def partition_of(self, address: int) -> int:
        """Return the memory tile owning ``address``."""
        tile = address // self.partition_bytes
        if not 0 <= tile < self.num_mem_tiles:
            raise AllocationError(f"address {address:#x} outside the address map")
        return tile

    def partition_base(self, mem_tile: int) -> int:
        """Return the base physical address of ``mem_tile``'s partition."""
        if not 0 <= mem_tile < self.num_mem_tiles:
            raise AllocationError(f"memory tile {mem_tile} out of range")
        return mem_tile * self.partition_bytes

    @property
    def total_bytes(self) -> int:
        """Total size of the physical address space."""
        return self.num_mem_tiles * self.partition_bytes


@dataclass
class _PartitionState:
    """Allocator bookkeeping for one memory partition."""

    base: int
    size: int
    cursor: int = 0

    @property
    def used(self) -> int:
        return self.cursor

    @property
    def free(self) -> int:
        return self.size - self.cursor


class Allocator:
    """Big-page allocator for accelerator data buffers.

    Buffers up to one big page are placed entirely in the least-loaded
    partition.  Larger buffers are split into big pages distributed
    round-robin over the partitions, starting from the least-loaded one, so
    that large workloads can exploit several DRAM channels in parallel —
    matching the ESP allocation scheme the paper relies on.
    """

    def __init__(self, address_map: AddressMap, page_bytes: int = BIG_PAGE_BYTES) -> None:
        if page_bytes <= 0:
            raise ConfigurationError("page size must be positive")
        self.address_map = address_map
        self.page_bytes = page_bytes
        self._partitions = [
            _PartitionState(base=address_map.partition_base(tile), size=address_map.partition_bytes)
            for tile in range(address_map.num_mem_tiles)
        ]
        self._allocations: Dict[str, Buffer] = {}
        self._counter = 0
        self._next_partition = 0

    # ------------------------------------------------------------------
    def allocate(self, size: int, name: str = "") -> Buffer:
        """Allocate a buffer of ``size`` bytes and return its segments."""
        if size <= 0:
            raise AllocationError(f"buffer size must be positive, got {size}")
        name = name or f"buf{self._counter}"
        self._counter += 1
        padded = align_up(size, min(self.page_bytes, 4096))

        if padded <= self.page_bytes:
            segments = [self._allocate_in_partition(self._pick_partition(padded), padded)]
        else:
            segments = self._allocate_paged(padded)

        buffer = Buffer(name=name, size=size, segments=tuple(segments))
        self._allocations[name] = buffer
        return buffer

    def free(self, buffer: Buffer) -> None:
        """Release a buffer.

        The allocator is a simple bump allocator per partition; freeing only
        removes the bookkeeping entry (experiments allocate all buffers up
        front and tear the whole SoC down afterwards, so fragmentation is
        not a concern).
        """
        self._allocations.pop(buffer.name, None)

    # ------------------------------------------------------------------
    def _least_loaded(self) -> int:
        return min(range(len(self._partitions)), key=lambda i: self._partitions[i].used)

    def _pick_partition(self, nbytes: int) -> int:
        """Pick the partition for a single-page buffer.

        Buffers are spread round-robin over the memory partitions, which is
        how ESP balances accelerator data across DRAM controllers; a
        partition that cannot hold the buffer is skipped.
        """
        num = len(self._partitions)
        for offset in range(num):
            candidate = (self._next_partition + offset) % num
            if self._partitions[candidate].free >= nbytes:
                self._next_partition = (candidate + 1) % num
                return candidate
        raise AllocationError(f"no partition can hold a buffer of {nbytes} bytes")

    def _allocate_in_partition(self, tile: int, nbytes: int) -> BufferSegment:
        state = self._partitions[tile]
        if state.free < nbytes:
            raise AllocationError(
                f"memory partition {tile} exhausted: need {nbytes}, free {state.free}"
            )
        segment = BufferSegment(mem_tile=tile, start=state.base + state.cursor, size=nbytes)
        state.cursor += nbytes
        return segment

    def _allocate_paged(self, nbytes: int) -> List[BufferSegment]:
        segments: List[BufferSegment] = []
        remaining = nbytes
        tile = self._least_loaded()
        num_tiles = len(self._partitions)
        while remaining > 0:
            take = min(self.page_bytes, remaining)
            placed = False
            for offset in range(num_tiles):
                candidate = (tile + offset) % num_tiles
                if self._partitions[candidate].free >= take:
                    segments.append(self._allocate_in_partition(candidate, take))
                    tile = (candidate + 1) % num_tiles
                    placed = True
                    break
            if not placed:
                raise AllocationError(
                    f"no partition can hold a {take}-byte page (buffer of {nbytes} bytes)"
                )
            remaining -= take
        return _coalesce(segments)

    # ------------------------------------------------------------------
    @property
    def allocations(self) -> Dict[str, Buffer]:
        """Currently live allocations by name."""
        return dict(self._allocations)

    def used_per_partition(self) -> List[int]:
        """Bytes allocated in each partition."""
        return [state.used for state in self._partitions]


def _coalesce(segments: Sequence[BufferSegment]) -> List[BufferSegment]:
    """Merge physically contiguous segments on the same memory tile."""
    merged: List[BufferSegment] = []
    for segment in segments:
        if (
            merged
            and merged[-1].mem_tile == segment.mem_tile
            and merged[-1].end == segment.start
        ):
            previous = merged.pop()
            merged.append(
                BufferSegment(
                    mem_tile=previous.mem_tile,
                    start=previous.start,
                    size=previous.size + segment.size,
                )
            )
        else:
            merged.append(segment)
    return merged
