"""Introspective SoC status tracking (paper Section 4.1, "Sense").

The paper keeps a small set of global structures in the user-space
invocation API that record, for every active accelerator, its coherence
mode and the memory footprint of its current invocation.  Whenever a new
accelerator is about to be invoked, the runtime takes a *snapshot* of this
state restricted to the memory partitions the new invocation will use; the
snapshot is what both the manually-tuned heuristic and the RL agent's
discretised state are computed from.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.soc.coherence import CoherenceMode

#: Template for the per-mode active counts of a snapshot (one snapshot is
#: taken per invocation, so the labels are resolved once at import time).
_ZERO_PER_MODE: Dict[str, int] = {mode.value: 0 for mode in CoherenceMode}


class ActiveInvocation:
    """Bookkeeping for one accelerator invocation currently in flight."""

    __slots__ = (
        "tile_name",
        "accelerator_name",
        "mode",
        "footprint_bytes",
        "footprint_per_tile",
        "start_time",
    )

    def __init__(
        self,
        tile_name: str,
        accelerator_name: str,
        mode: CoherenceMode,
        footprint_bytes: int,
        footprint_per_tile: Dict[int, int],
        start_time: float,
    ) -> None:
        self.tile_name = tile_name
        self.accelerator_name = accelerator_name
        self.mode = mode
        self.footprint_bytes = footprint_bytes
        self.footprint_per_tile = footprint_per_tile
        self.start_time = start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ActiveInvocation(tile_name={self.tile_name!r}, "
            f"accelerator_name={self.accelerator_name!r}, mode={self.mode}, "
            f"footprint_bytes={self.footprint_bytes})"
        )


class SystemSnapshot:
    """The sensed state used to make one coherence decision.

    All values are raw (continuous); the RL module discretises them into
    the Table 3 state attributes, while the manual heuristic consumes them
    directly.  One snapshot is taken per invocation, so the class uses
    ``__slots__`` instead of a dataclass; treat instances as read-only.

    Attributes
    ----------
    target_footprint_bytes:
        Footprint of the invocation about to start.
    target_mem_tiles:
        Memory tiles (LLC partitions / DRAM controllers) the target uses.
    active_per_mode:
        Number of active accelerators per coherence-mode label (not
        counting the target, which has not started yet).
    non_coh_per_target_tile:
        Average number of active non-coherent accelerators using each of
        the target's memory partitions.
    llc_users_per_target_tile:
        Average number of active accelerators whose requests reach each of
        the target's LLC partitions (LLC-coherent, coherent-DMA, or
        fully-coherent accelerators).
    tile_footprint_bytes:
        Average bytes of active accelerator data mapped to each of the
        target's memory partitions (including the target's own data).
    active_footprint_bytes:
        Total bytes of data of all active accelerators (excluding target).
    active_accelerators:
        Number of active accelerators (excluding the target).
    l2_bytes / llc_partition_bytes / llc_total_bytes:
        Platform capacities, carried along so policies do not need a SoC
        reference: private L2 size, one LLC partition, the aggregate LLC.
    """

    __slots__ = (
        "target_footprint_bytes",
        "target_mem_tiles",
        "active_per_mode",
        "non_coh_per_target_tile",
        "llc_users_per_target_tile",
        "tile_footprint_bytes",
        "active_footprint_bytes",
        "active_accelerators",
        "l2_bytes",
        "llc_partition_bytes",
        "llc_total_bytes",
    )

    def __init__(
        self,
        target_footprint_bytes: int,
        target_mem_tiles: tuple,
        active_per_mode: Mapping[str, int],
        non_coh_per_target_tile: float,
        llc_users_per_target_tile: float,
        tile_footprint_bytes: float,
        active_footprint_bytes: int,
        active_accelerators: int,
        l2_bytes: int = 0,
        llc_partition_bytes: int = 0,
        llc_total_bytes: int = 0,
    ) -> None:
        self.target_footprint_bytes = target_footprint_bytes
        self.target_mem_tiles = target_mem_tiles
        self.active_per_mode = active_per_mode
        self.non_coh_per_target_tile = non_coh_per_target_tile
        self.llc_users_per_target_tile = llc_users_per_target_tile
        self.tile_footprint_bytes = tile_footprint_bytes
        self.active_footprint_bytes = active_footprint_bytes
        self.active_accelerators = active_accelerators
        self.l2_bytes = l2_bytes
        self.llc_partition_bytes = llc_partition_bytes
        self.llc_total_bytes = llc_total_bytes

    def active_count(self, mode: CoherenceMode) -> int:
        """Number of active accelerators currently using ``mode``."""
        return int(self.active_per_mode.get(mode.label, 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SystemSnapshot(target_footprint_bytes={self.target_footprint_bytes}, "
            f"active_accelerators={self.active_accelerators})"
        )


class SystemStatus:
    """Tracks which accelerators are active, with what mode and footprint."""

    def __init__(
        self,
        l2_bytes: int,
        llc_partition_bytes: int,
        num_mem_tiles: int,
    ) -> None:
        self.l2_bytes = l2_bytes
        self.llc_partition_bytes = llc_partition_bytes
        self.num_mem_tiles = num_mem_tiles
        self._active: Dict[str, ActiveInvocation] = {}

    # ------------------------------------------------------------------
    # Registration (called by the runtime at actuate / completion time)
    # ------------------------------------------------------------------
    def register(self, invocation: ActiveInvocation) -> None:
        """Record that an accelerator invocation has started."""
        self._active[invocation.tile_name] = invocation

    def unregister(self, tile_name: str) -> Optional[ActiveInvocation]:
        """Record that the invocation on ``tile_name`` has completed."""
        return self._active.pop(tile_name, None)

    @property
    def active_invocations(self) -> List[ActiveInvocation]:
        """All invocations currently in flight."""
        return list(self._active.values())

    def active_count(self) -> int:
        """Number of invocations currently in flight."""
        return len(self._active)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def footprint_per_tile(self) -> Dict[int, int]:
        """Total active footprint mapped to each memory tile."""
        totals: Dict[int, int] = {tile: 0 for tile in range(self.num_mem_tiles)}
        for invocation in self._active.values():
            for mem_tile, nbytes in invocation.footprint_per_tile.items():
                totals[mem_tile] = totals.get(mem_tile, 0) + nbytes
        return totals

    def snapshot(
        self,
        target_footprint_bytes: int,
        target_footprint_per_tile: Mapping[int, int],
    ) -> SystemSnapshot:
        """Take the sensed state for an invocation that is about to start."""
        target_tiles = tuple(sorted(target_footprint_per_tile))
        if not target_tiles:
            target_tiles = tuple(range(self.num_mem_tiles))

        per_mode: Dict[str, int] = dict(_ZERO_PER_MODE)
        non_coh_users = {tile: 0 for tile in target_tiles}
        llc_users = {tile: 0 for tile in target_tiles}
        tile_footprint = {
            tile: int(target_footprint_per_tile.get(tile, 0)) for tile in target_tiles
        }
        active_footprint = 0

        for invocation in self._active.values():
            mode = invocation.mode
            per_mode[mode.value] += 1
            active_footprint += invocation.footprint_bytes
            is_non_coh = mode is CoherenceMode.NON_COH_DMA
            uses_llc = mode.uses_llc
            for mem_tile, nbytes in invocation.footprint_per_tile.items():
                if mem_tile not in tile_footprint:
                    continue
                tile_footprint[mem_tile] += nbytes
                if is_non_coh:
                    non_coh_users[mem_tile] += 1
                if uses_llc:
                    llc_users[mem_tile] += 1

        num_target_tiles = max(len(target_tiles), 1)
        return SystemSnapshot(
            target_footprint_bytes=target_footprint_bytes,
            target_mem_tiles=target_tiles,
            active_per_mode=dict(per_mode),
            non_coh_per_target_tile=sum(non_coh_users.values()) / num_target_tiles,
            llc_users_per_target_tile=sum(llc_users.values()) / num_target_tiles,
            tile_footprint_bytes=sum(tile_footprint.values()) / num_target_tiles,
            active_footprint_bytes=active_footprint,
            active_accelerators=len(self._active),
            l2_bytes=self.l2_bytes,
            llc_partition_bytes=self.llc_partition_bytes,
            llc_total_bytes=self.llc_partition_bytes * self.num_mem_tiles,
        )

    def reset(self) -> None:
        """Forget all active invocations (used between experiments)."""
        self._active.clear()
