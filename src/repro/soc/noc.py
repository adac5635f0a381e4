"""2D-mesh network-on-chip model.

ESP connects all tiles with a 2D-mesh, multi-plane NoC with one-cycle hop
latency between neighbouring routers and 32-bit links.  For the purposes of
coherence-mode comparison the interesting NoC effects are:

* the distance (hop count) between an accelerator tile and the memory tile
  that owns the data it accesses, which adds latency to every transfer; and
* contention on the links entering each memory tile, which is where traffic
  from many accelerators converges (this is what degrades the cached modes
  when many accelerators run concurrently).

The model therefore assigns each tile a mesh coordinate, computes XY-routing
hop counts, and represents the ingress/egress link of each memory tile as a
shared FCFS bandwidth resource.

:meth:`MeshNoC.route_latency` computes every route's latency.  The
datapath's transfer plans look up each memory tile's link
(:meth:`MeshNoC.memory_link`) and route latency once per invocation and
charge each DMA segment on that link directly; :meth:`MeshNoC.transfer`
does the same for a single transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.sim.resources import BandwidthResource


@dataclass(frozen=True)
class TileCoordinate:
    """Position of a tile in the mesh."""

    row: int
    col: int

    def hops_to(self, other: "TileCoordinate") -> int:
        """Manhattan (XY-routing) hop count to ``other``."""
        return abs(self.row - other.row) + abs(self.col - other.col)


class MeshNoC:
    """A 2D-mesh NoC with per-memory-tile shared links.

    Parameters
    ----------
    rows, cols:
        Mesh dimensions.
    hop_cycles:
        Latency of one router-to-router hop.
    link_bytes_per_cycle:
        Bandwidth of one memory-tile link (32-bit planes = 4 bytes/cycle).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        hop_cycles: float,
        link_bytes_per_cycle: float,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError("mesh dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.hop_cycles = hop_cycles
        self.link_bytes_per_cycle = link_bytes_per_cycle
        self._positions: Dict[str, TileCoordinate] = {}
        self._mem_links: Dict[int, BandwidthResource] = {}
        # Route latencies are pure functions of the (static) floorplan, so
        # transfer() memoizes them per (src, dst) pair instead of paying two
        # dictionary lookups and a hop computation per call.
        self._route_cache: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place_tile(self, tile_name: str, position: TileCoordinate) -> None:
        """Record the mesh position of a tile."""
        if position.row >= self.rows or position.col >= self.cols:
            raise ConfigurationError(
                f"tile {tile_name!r} placed outside the {self.rows}x{self.cols} mesh"
            )
        if position.row < 0 or position.col < 0:
            raise ConfigurationError("tile positions must be non-negative")
        self._positions[tile_name] = position
        self._route_cache.clear()

    def register_memory_tile(self, mem_tile: int, tile_name: str) -> None:
        """Create the shared ingress/egress link for a memory tile."""
        self._mem_links[mem_tile] = BandwidthResource(
            name=f"noc-link[{tile_name}]",
            bytes_per_cycle=self.link_bytes_per_cycle,
            latency=0.0,
        )

    def position_of(self, tile_name: str) -> TileCoordinate:
        """Return the mesh coordinate of ``tile_name``."""
        try:
            return self._positions[tile_name]
        except KeyError:
            raise ConfigurationError(f"tile {tile_name!r} has not been placed") from None

    # ------------------------------------------------------------------
    # Routing and transfer costs
    # ------------------------------------------------------------------
    def hops(self, src_tile: str, dst_tile: str) -> int:
        """Hop count between two tiles under XY routing."""
        return self.position_of(src_tile).hops_to(self.position_of(dst_tile))

    def route_latency(self, src_tile: str, dst_tile: str) -> float:
        """One-way latency of the route between two tiles."""
        return self.hops(src_tile, dst_tile) * self.hop_cycles

    def memory_link(self, mem_tile: int) -> BandwidthResource:
        """Return the shared link resource of ``mem_tile``."""
        try:
            return self._mem_links[mem_tile]
        except KeyError:
            raise ConfigurationError(
                f"memory tile {mem_tile} has no registered NoC link"
            ) from None

    def transfer(
        self,
        now: float,
        src_tile: str,
        mem_tile: int,
        mem_tile_name: str,
        nbytes: float,
    ) -> float:
        """Move ``nbytes`` between ``src_tile`` and a memory tile.

        Returns the completion time.  The transfer is charged to the memory
        tile's shared link (the contention point) and pays the route latency
        once (cut-through routing pipelines the flits across hops).
        """
        try:
            link = self._mem_links[mem_tile]
        except KeyError:
            raise ConfigurationError(
                f"memory tile {mem_tile} has no registered NoC link"
            ) from None
        key = (src_tile, mem_tile_name)
        latency = self._route_cache.get(key)
        if latency is None:
            latency = self.route_latency(src_tile, mem_tile_name)
            self._route_cache[key] = latency
        return link.serve(now, nbytes, latency)

    def reset(self) -> None:
        """Reset all link queues and counters."""
        for link in self._mem_links.values():
            link.reset()
