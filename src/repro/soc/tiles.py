"""Tile descriptors and floorplanning.

ESP SoCs are grids of tiles of four kinds: processor tiles, accelerator
tiles, memory tiles, and auxiliary tiles.  This module assigns tiles to
mesh coordinates with a simple deterministic floorplan: memory tiles at the
corners (so their links are spread across the mesh), processor tiles along
the top edge, accelerator tiles filling the remaining positions, and one
auxiliary tile if a slot is left over.  Exact placement only affects hop
counts mildly; what matters for the experiments is that different
accelerators sit at different distances from the memory tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.soc.config import SoCConfig
from repro.soc.noc import TileCoordinate


class TileType(Enum):
    """The four ESP tile kinds."""

    CPU = "cpu"
    ACCELERATOR = "accelerator"
    MEMORY = "memory"
    AUXILIARY = "auxiliary"


@dataclass(frozen=True)
class Tile:
    """One tile of the SoC grid."""

    name: str
    tile_type: TileType
    index: int
    position: TileCoordinate
    has_private_cache: bool = False


def _corner_positions(rows: int, cols: int) -> List[TileCoordinate]:
    corners = [
        TileCoordinate(0, 0),
        TileCoordinate(0, cols - 1),
        TileCoordinate(rows - 1, 0),
        TileCoordinate(rows - 1, cols - 1),
    ]
    unique: List[TileCoordinate] = []
    for corner in corners:
        if corner not in unique:
            unique.append(corner)
    return unique


def build_floorplan(config: SoCConfig) -> Tuple[List[Tile], Dict[str, Tile]]:
    """Assign every tile of ``config`` to a mesh position.

    Returns the list of tiles and a name-indexed mapping.
    """
    rows, cols = config.noc_rows, config.noc_cols
    all_positions = [TileCoordinate(r, c) for r in range(rows) for c in range(cols)]
    taken: Set[TileCoordinate] = set()
    # A row-major cursor over the free positions.  It tests a position only
    # when it reaches it, and a position, once taken, stays taken, so
    # everything behind the cursor is taken: one forward walk places every
    # tile that does not go to a corner.
    free = (position for position in all_positions if position not in taken)
    tiles: List[Tile] = []

    def claim(position: Optional[TileCoordinate], kind: str) -> TileCoordinate:
        if position is None:
            raise ConfigurationError(f"ran out of mesh slots for {kind} tiles")
        taken.add(position)
        return position

    # Memory tiles at the corners first (distinct, so each is still free).
    corner_slots = _corner_positions(rows, cols)
    for index in range(config.num_mem_tiles):
        slot = corner_slots[index] if index < len(corner_slots) else next(free, None)
        tiles.append(
            Tile(
                name=f"mem{index}",
                tile_type=TileType.MEMORY,
                index=index,
                position=claim(slot, "memory"),
            )
        )

    # Processor tiles along the remaining top-edge slots: the first free
    # slots in row-major order are the top edge's, while it has any.
    for index in range(config.num_cpus):
        tiles.append(
            Tile(
                name=f"cpu{index}",
                tile_type=TileType.CPU,
                index=index,
                position=claim(next(free, None), "processor"),
                has_private_cache=True,
            )
        )

    # Accelerator tiles fill the rest.
    for index in range(config.num_accelerator_tiles):
        tiles.append(
            Tile(
                name=f"acc{index}",
                tile_type=TileType.ACCELERATOR,
                index=index,
                position=claim(next(free, None), "accelerator"),
                has_private_cache=config.accelerator_has_cache(index),
            )
        )

    # One auxiliary tile if room remains (UART / interrupt controller).
    slot = next(free, None)
    if slot is not None:
        tiles.append(
            Tile(
                name="aux0",
                tile_type=TileType.AUXILIARY,
                index=0,
                position=claim(slot, "auxiliary"),
            )
        )

    return tiles, {tile.name: tile for tile in tiles}
