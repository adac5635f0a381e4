"""Last-level cache partition.

Each memory tile hosts one LLC partition covering the slice of the address
space owned by that tile, together with the tile's DRAM controller.  The
partition combines a set-associative cache model with a shared port
(bandwidth resource): when several accelerators route their requests to the
same partition, they queue on the port, which is the contention effect that
penalises the cached coherence modes under high parallelism (Figure 3).
"""

from __future__ import annotations

from repro.sim.resources import BandwidthResource
from repro.soc.cache import SetAssociativeCache


class LLCPartition:
    """One partition of the last-level cache."""

    def __init__(
        self,
        mem_tile: int,
        size_bytes: int,
        line_bytes: int,
        ways: int,
        port_bytes_per_cycle: float,
        lookup_cycles: float,
    ) -> None:
        self.mem_tile = mem_tile
        self.cache = SetAssociativeCache(
            name=f"llc[{mem_tile}]",
            size_bytes=size_bytes,
            line_bytes=line_bytes,
            ways=ways,
        )
        self.port = BandwidthResource(
            name=f"llc-port[{mem_tile}]",
            bytes_per_cycle=port_bytes_per_cycle,
            latency=lookup_cycles,
        )

    # ------------------------------------------------------------------
    def serve_port(self, now: float, nbytes: float, extra_latency: float = 0.0) -> float:
        """Occupy the partition port for a transfer of ``nbytes``."""
        return self.port.serve(now, nbytes, extra_latency)

    def warm(self, start: int, nbytes: int, dirty: bool = True) -> int:
        """Install a range without generating traffic (CPU-initialised data)."""
        return self.cache.install_range(start, nbytes, dirty=dirty)

    def flush(self) -> tuple:
        """Software flush of the whole partition; returns (writebacks, invalidations)."""
        return self.cache.flush_all()

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Capacity of the partition."""
        return self.cache.size_bytes

    def occupancy_bytes(self) -> int:
        """Bytes of valid data currently resident."""
        return self.cache.occupancy_bytes()

    def reset(self) -> None:
        """Clear contents, counters, and port queue."""
        self.cache.clear()
        self.port.reset()
