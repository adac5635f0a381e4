"""Whole-SoC assembly.

:class:`Soc` instantiates every component of the platform from a
:class:`repro.soc.config.SoCConfig`: the mesh NoC and floorplan, the
processors' private L2 caches, the accelerator tiles' optional private
caches, the LLC partitions, the DRAM controllers, the address map and
big-page allocator, the hardware monitors, and the coherence-mode datapath.
It also owns the discrete-event engine on which invocation processes run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.resources import BandwidthResource
from repro.soc.address import AddressMap, Allocator, Buffer
from repro.soc.cache import SetAssociativeCache
from repro.soc.config import SoCConfig
from repro.soc.datapath import Datapath
from repro.soc.dram import DramController
from repro.soc.llc import LLCPartition
from repro.soc.monitors import HardwareMonitors
from repro.soc.noc import MeshNoC
from repro.soc.tiles import Tile, TileType, build_floorplan


class Soc:
    """One instantiated SoC: tiles, caches, memory, NoC, monitors, datapath."""

    def __init__(self, config: SoCConfig) -> None:
        self.config = config
        timing = config.timing

        # Floorplan and NoC.
        self.tiles, self.tiles_by_name = build_floorplan(config)
        self.noc = MeshNoC(
            rows=config.noc_rows,
            cols=config.noc_cols,
            hop_cycles=timing.noc_hop_cycles,
            link_bytes_per_cycle=timing.noc_mem_link_bytes_per_cycle,
        )
        for tile in self.tiles:
            self.noc.place_tile(tile.name, tile.position)

        # Memory tiles: LLC partitions + DRAM controllers.
        self.llc_partitions: List[LLCPartition] = []
        self.dram_controllers: List[DramController] = []
        for mem_tile in range(config.num_mem_tiles):
            tile_name = f"mem{mem_tile}"
            self.noc.register_memory_tile(mem_tile, tile_name)
            self.llc_partitions.append(
                LLCPartition(
                    mem_tile=mem_tile,
                    size_bytes=config.llc_partition_bytes,
                    line_bytes=config.cache_line_bytes,
                    ways=config.llc_ways,
                    port_bytes_per_cycle=timing.llc_bytes_per_cycle,
                    lookup_cycles=timing.llc_lookup_cycles,
                )
            )
            self.dram_controllers.append(
                DramController(
                    mem_tile=mem_tile,
                    bytes_per_cycle=timing.dram_bytes_per_cycle,
                    latency_cycles=timing.dram_latency_cycles,
                    line_bytes=config.cache_line_bytes,
                )
            )

        # Private caches: one per CPU tile, and one per accelerator tile
        # that supports the fully-coherent mode.
        self.cpu_l2_caches: List[SetAssociativeCache] = [
            SetAssociativeCache(
                name=f"l2[cpu{index}]",
                size_bytes=config.l2_bytes,
                line_bytes=config.cache_line_bytes,
                ways=config.l2_ways,
            )
            for index in range(config.num_cpus)
        ]
        self.accelerator_private_caches: Dict[str, SetAssociativeCache] = {}
        self.accelerator_links: Dict[str, BandwidthResource] = {}
        for index in range(config.num_accelerator_tiles):
            name = f"acc{index}"
            if config.accelerator_has_cache(index):
                self.accelerator_private_caches[name] = SetAssociativeCache(
                    name=f"l2[{name}]",
                    size_bytes=config.accelerator_l2_bytes,
                    line_bytes=config.cache_line_bytes,
                    ways=config.l2_ways,
                )
            # Each accelerator's DMA engine injects at most one NoC plane's
            # worth of data per cycle; this private link is never shared.
            self.accelerator_links[name] = BandwidthResource(
                name=f"acc-link[{name}]",
                bytes_per_cycle=timing.acc_link_bytes_per_cycle,
                latency=0.0,
            )

        # Address space and allocation.
        self.address_map = AddressMap(
            num_mem_tiles=config.num_mem_tiles,
            partition_bytes=config.dram_partition_bytes,
        )
        self.allocator = Allocator(self.address_map)

        # Monitors, datapath, engine.  No component refers back to the SoC
        # (docs/architecture.md, "Lifetime").
        self.monitors = HardwareMonitors(self.dram_controllers)
        self.datapath = Datapath(
            config,
            noc=self.noc,
            memory_tiles=[self.memory_tile_name(tile) for tile in range(config.num_mem_tiles)],
            llc_partitions=self.llc_partitions,
            dram_controllers=self.dram_controllers,
            cpu_caches=self.cpu_l2_caches,
            accelerator_caches=self.accelerator_private_caches,
            accelerator_links=self.accelerator_links,
        )
        self.engine = Engine()

    # ------------------------------------------------------------------
    # Tile helpers
    # ------------------------------------------------------------------
    def accelerator_tiles(self) -> List[Tile]:
        """All accelerator tiles in index order."""
        tiles = [t for t in self.tiles if t.tile_type is TileType.ACCELERATOR]
        return sorted(tiles, key=lambda t: t.index)

    def memory_tile_name(self, mem_tile: int) -> str:
        """Name of the memory tile with the given index."""
        name = f"mem{mem_tile}"
        if name not in self.tiles_by_name:
            raise ConfigurationError(f"memory tile {mem_tile} does not exist")
        return name

    def accelerator_tile_name(self, accelerator_index: int) -> str:
        """Name of the accelerator tile with the given index."""
        name = f"acc{accelerator_index}"
        if name not in self.tiles_by_name:
            raise ConfigurationError(f"accelerator tile {accelerator_index} does not exist")
        return name

    def private_cache_of(self, acc_tile: str) -> Optional[SetAssociativeCache]:
        """Private cache of an accelerator tile (``None`` if it has none)."""
        return self.accelerator_private_caches.get(acc_tile)

    # ------------------------------------------------------------------
    # Data allocation and warm-up
    # ------------------------------------------------------------------
    def allocate_buffer(self, size: int, name: str = "") -> Buffer:
        """Allocate an accelerator data buffer in big pages."""
        return self.allocator.allocate(size, name=name)

    def warm_buffer(self, buffer: Buffer, cpu_index: int = 0, dirty: bool = True) -> None:
        """Model the CPU having initialised ``buffer`` before an invocation.

        The most recently written data remains resident in the initialising
        CPU's private cache (up to its capacity) and in the LLC partitions
        owning the buffer (up to their capacity); it is dirty because the
        CPU produced it.  This reproduces the "warm data" starting condition
        of the paper's motivation experiments.
        """
        if not 0 <= cpu_index < len(self.cpu_l2_caches):
            raise ConfigurationError(f"cpu index {cpu_index} out of range")
        l2 = self.cpu_l2_caches[cpu_index]
        # Warm the LLC partition of each segment with (at most) the last
        # partition-capacity bytes of that segment.
        for segment in buffer.segments:
            partition = self.llc_partitions[segment.mem_tile]
            keep = min(segment.size, partition.size_bytes)
            partition.warm(segment.start + segment.size - keep, keep, dirty=dirty)
        # Warm the CPU L2 with the tail of the buffer (the lines written
        # most recently survive in an LRU cache).
        remaining = min(buffer.size, l2.size_bytes)
        for segment in reversed(buffer.segments):
            if remaining <= 0:
                break
            keep = min(segment.size, remaining)
            l2.install_range(segment.start + segment.size - keep, keep, dirty=dirty)
            remaining -= keep

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset_state(self, clear_allocations: bool = False) -> None:
        """Clear caches, counters, queues, and the event engine.

        With ``clear_allocations`` the big-page allocator is also reset, so
        repeated application runs do not exhaust the address space.
        """
        if clear_allocations:
            self.allocator = Allocator(self.address_map)
        for cache in self.cpu_l2_caches:
            cache.clear()
        for cache in self.accelerator_private_caches.values():
            cache.clear()
        for partition in self.llc_partitions:
            partition.reset()
        for controller in self.dram_controllers:
            controller.reset()
        for link in self.accelerator_links.values():
            link.reset()
        self.noc.reset()
        self.engine = Engine()

    def describe(self) -> Dict[str, object]:
        """Summary of the configuration plus the floorplan."""
        summary = dict(self.config.describe())
        summary["tiles"] = [
            (tile.name, tile.tile_type.value, (tile.position.row, tile.position.col))
            for tile in self.tiles
        ]
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Soc(config={self.config.name!r})"
