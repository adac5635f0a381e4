"""DRAM controller model.

Each memory tile hosts one DRAM controller with a dedicated off-chip
channel (32 bits per cycle in the paper's platform).  The controller is a
FCFS bandwidth resource plus the off-chip access counters that the paper's
hardware monitors expose to software: Cohmeleon's reward function and all
of the evaluation figures are driven by these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.resources import BandwidthResource
from repro.units import bytes_to_lines


@dataclass
class DramCounters:
    """Off-chip access counters for one controller (in cache-line units)."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        """Total off-chip accesses (reads plus writes)."""
        return self.reads + self.writes

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {"reads": self.reads, "writes": self.writes, "total": self.total}


class DramController:
    """One DRAM controller and its off-chip channel."""

    def __init__(
        self,
        mem_tile: int,
        bytes_per_cycle: float,
        latency_cycles: float,
        line_bytes: int,
    ) -> None:
        self.mem_tile = mem_tile
        self.line_bytes = line_bytes
        self.channel = BandwidthResource(
            name=f"dram[{mem_tile}]",
            bytes_per_cycle=bytes_per_cycle,
            latency=latency_cycles,
        )
        self.counters = DramCounters()

    # ------------------------------------------------------------------
    def read(self, now: float, nbytes: float, bursts: int = 1) -> float:
        """Read ``nbytes`` from DRAM; returns the completion time.

        ``bursts`` is the number of separate DMA transactions the transfer
        is split into; each pays the access latency once, which is how long
        streaming bursts amortise the row-activation cost better than
        line-sized requests.
        """
        if nbytes <= 0:
            return now
        self.counters.reads += bytes_to_lines(int(nbytes), self.line_bytes)
        # One burst (or none) makes this 0 or less, which ``serve`` ignores.
        return self.channel.serve(now, nbytes, self.channel.latency * (bursts - 1))

    def write(self, now: float, nbytes: float, bursts: int = 1) -> float:
        """Write ``nbytes`` to DRAM; returns the completion time."""
        if nbytes <= 0:
            return now
        self.counters.writes += bytes_to_lines(int(nbytes), self.line_bytes)
        return self.channel.serve(now, nbytes, self.channel.latency * (bursts - 1))

    def write_back(self, now: float, lines: int) -> float:
        """Write back ``lines`` evicted dirty lines; returns completion time."""
        if lines <= 0:
            return now
        nbytes = lines * self.line_bytes
        self.counters.writes += lines
        return self.channel.serve(now, nbytes)

    # ------------------------------------------------------------------
    @property
    def total_accesses(self) -> int:
        """Total off-chip accesses observed by this controller."""
        return self.counters.total

    def reset(self) -> None:
        """Clear counters and the channel queue."""
        self.counters = DramCounters()
        self.channel.reset()
