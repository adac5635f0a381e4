"""Hardware monitoring system (paper Section 4.3, "Evaluate").

The paper adds a lightweight set of memory-mapped counters to every tile;
the ones this model reads are the per-memory-tile counters of off-chip
(DRAM) accesses, which the DRAM controllers keep.  Software reads them
before and after each accelerator invocation to compute the delta; the
attribution of that shared delta to individual accelerators is performed
by :mod:`repro.runtime.attribution`, exactly as the paper describes.  An
invocation's cycles come from the executor's own record, not from a
counter.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.soc.dram import DramController


class DdrSnapshot:
    """A point-in-time reading of every DRAM controller's access counter.

    Two snapshots are taken per invocation (before/after), hence the
    ``__slots__`` layout.
    """

    __slots__ = ("per_tile",)

    def __init__(self, per_tile: Optional[Dict[int, int]] = None) -> None:
        self.per_tile = per_tile if per_tile is not None else {}

    def delta(self, later: "DdrSnapshot") -> Dict[int, int]:
        """Per-tile difference ``later - self`` (counter overflow-free here)."""
        later_per_tile = later.per_tile
        return {
            tile: later_per_tile.get(tile, 0) - count
            for tile, count in self.per_tile.items()
        }

    @property
    def total(self) -> int:
        """Total accesses across all controllers."""
        return sum(self.per_tile.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DdrSnapshot(per_tile={self.per_tile!r})"


class HardwareMonitors:
    """Software's view of one SoC's DRAM access counters."""

    def __init__(self, dram_controllers: List[DramController]) -> None:
        self._dram_controllers = list(dram_controllers)

    def ddr_snapshot(self) -> DdrSnapshot:
        """Read every DRAM controller's total access counter."""
        return DdrSnapshot(
            per_tile={
                controller.mem_tile: controller.total_accesses
                for controller in self._dram_controllers
            }
        )

    def total_ddr_accesses(self) -> int:
        """Total off-chip accesses since the SoC was built (or reset)."""
        return sum(controller.total_accesses for controller in self._dram_controllers)
