"""Accelerator communication descriptors.

A :class:`AcceleratorDescriptor` captures how a fixed-function accelerator
interacts with the memory hierarchy during one invocation.  The fields are
the properties the paper identifies as the ones that influence the choice
of coherence mode: access pattern, DMA burst length, compute duration per
byte, data-reuse factor, read-to-write ratio, stride length (for strided
patterns), access fraction (for irregular patterns), in-place storage, and
the size of the accelerator's private local memory (scratchpad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict

from repro.errors import ConfigurationError
from repro.units import KB


class AccessPattern(Enum):
    """Memory-access pattern classes used by the traffic generator."""

    STREAMING = "streaming"
    STRIDED = "strided"
    IRREGULAR = "irregular"


@dataclass(frozen=True)
class AcceleratorDescriptor:
    """Communication characteristics of one fixed-function accelerator."""

    name: str
    access_pattern: AccessPattern = AccessPattern.STREAMING
    #: Length of one DMA burst in bytes (irregular accelerators issue short,
    #: line-sized requests; streaming accelerators issue long bursts).
    burst_bytes: int = 1024
    #: Compute cycles per byte of workload footprint (compute intensity).
    compute_cycles_per_byte: float = 4.0
    #: How many times the input data is (re-)read when it does not fit in
    #: the accelerator's local memory.
    reuse_factor: float = 1.0
    #: Ratio of bytes read to bytes written (2.0 means two reads per write).
    read_write_ratio: float = 1.0
    #: Whether results are stored in place over the input buffer.
    in_place: bool = False
    #: Private scratchpad capacity in bytes; data that fits is loaded once.
    local_mem_bytes: int = 64 * KB
    #: Stride in bytes between consecutive accesses (strided patterns only).
    stride_bytes: int = 0
    #: Fraction of the footprint actually touched (irregular patterns only).
    access_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.burst_bytes <= 0:
            raise ConfigurationError(f"{self.name}: burst_bytes must be positive")
        if self.compute_cycles_per_byte < 0:
            raise ConfigurationError(f"{self.name}: compute intensity must be >= 0")
        if self.reuse_factor < 1.0:
            raise ConfigurationError(f"{self.name}: reuse_factor must be >= 1")
        if self.read_write_ratio <= 0:
            raise ConfigurationError(f"{self.name}: read_write_ratio must be positive")
        if self.local_mem_bytes <= 0:
            raise ConfigurationError(f"{self.name}: local_mem_bytes must be positive")
        if not 0.0 < self.access_fraction <= 1.0:
            raise ConfigurationError(f"{self.name}: access_fraction must be in (0, 1]")
        if self.access_pattern is AccessPattern.STRIDED and self.stride_bytes <= 0:
            raise ConfigurationError(f"{self.name}: strided pattern needs stride_bytes")

    def __deepcopy__(self, memo: Dict[int, object]) -> "AcceleratorDescriptor":
        # Frozen with only scalar and enum fields: a copy could never differ.
        return self

    # ------------------------------------------------------------------
    # Derived communication volumes for one invocation
    # ------------------------------------------------------------------
    def input_bytes(self, footprint_bytes: int) -> int:
        """Bytes of input data within a workload of ``footprint_bytes``."""
        if self.in_place:
            return footprint_bytes
        ratio = self.read_write_ratio / (1.0 + self.read_write_ratio)
        return max(int(footprint_bytes * ratio), 1)

    def output_bytes(self, footprint_bytes: int) -> int:
        """Bytes of output data within a workload of ``footprint_bytes``."""
        if self.in_place:
            return footprint_bytes
        return max(footprint_bytes - self.input_bytes(footprint_bytes), 1)

    def effective_reuse(self, footprint_bytes: int) -> float:
        """Input re-read factor, accounting for the local scratchpad.

        Inputs that fit in the accelerator's local memory are loaded from
        the memory hierarchy only once, regardless of how often the datapath
        re-reads them internally.
        """
        if self.input_bytes(footprint_bytes) <= self.local_mem_bytes:
            return 1.0
        return self.reuse_factor

    def touched_fraction(self) -> float:
        """Fraction of the data actually touched by the access pattern."""
        if self.access_pattern is AccessPattern.IRREGULAR:
            return self.access_fraction
        return 1.0

    def read_bytes(self, footprint_bytes: int) -> int:
        """Total bytes read from the memory hierarchy during one invocation."""
        volume = (
            self.input_bytes(footprint_bytes)
            * self.effective_reuse(footprint_bytes)
            * self.touched_fraction()
        )
        return max(int(volume), 1)

    def write_bytes(self, footprint_bytes: int) -> int:
        """Total bytes written to the memory hierarchy during one invocation."""
        volume = self.output_bytes(footprint_bytes) * self.touched_fraction()
        return max(int(volume), 1)

    def compute_cycles(self, footprint_bytes: int) -> float:
        """Total datapath compute cycles for one invocation."""
        return self.compute_cycles_per_byte * footprint_bytes

    def dma_bursts(self, footprint_bytes: int) -> int:
        """Approximate number of DMA bursts issued during one invocation."""
        total = self.read_bytes(footprint_bytes) + self.write_bytes(footprint_bytes)
        return max(1, math.ceil(total / self.burst_bytes))

    # ------------------------------------------------------------------
    def is_compute_bound(self) -> bool:
        """Rough classification used in documentation and tests."""
        return self.compute_cycles_per_byte >= 8.0

    def with_overrides(self, **overrides: object) -> "AcceleratorDescriptor":
        """Return a copy with some fields replaced (runtime configurability)."""
        return replace(self, **overrides)

    def __str__(self) -> str:
        return self.name
