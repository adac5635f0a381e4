"""Common units and platform constants used across the library.

The simulator's time base is the SoC clock *cycle*.  Sizes are expressed in
bytes.  The constants below mirror the ESP platform parameters reported in
the paper (Section 4.3 and Table 4): 32-bit NoC planes and memory links,
64-byte cache lines, and per-tile private caches of 32 or 64 KB.
"""

from __future__ import annotations

#: One kibibyte in bytes.
KB = 1024

#: One mebibyte in bytes.
MB = 1024 * KB

#: One gibibyte in bytes.
GB = 1024 * MB

#: Size of a cache line in bytes (ESP uses 64-byte lines).
CACHE_LINE_BYTES = 64

#: Width of one NoC plane / memory channel in bytes per cycle (32 bits).
NOC_PLANE_BYTES_PER_CYCLE = 4

#: Bandwidth of the link between a memory tile and its DRAM channel
#: (the paper states 32 bits per cycle per memory tile).
MEM_LINK_BYTES_PER_CYCLE = 4

#: Default size of a "big page" used by the ESP accelerator data allocator.
BIG_PAGE_BYTES = 1 * MB


def bytes_to_lines(num_bytes: int, line_size: int = CACHE_LINE_BYTES) -> int:
    """Return the number of cache lines spanned by ``num_bytes``.

    The count is rounded up so that a partial line still occupies a full
    line in the cache, matching how real hardware allocates storage.
    """
    if num_bytes <= 0:
        return 0
    return (num_bytes + line_size - 1) // line_size


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return ((value + alignment - 1) // alignment) * alignment


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to the previous multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return (value // alignment) * alignment
