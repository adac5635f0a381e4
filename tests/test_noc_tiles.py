"""Unit tests for the mesh NoC and the tile floorplanner."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.resources import ResourceStats
from repro.soc.config import SoCConfig, soc_preset
from repro.soc.noc import MeshNoC, TileCoordinate
from repro.soc.tiles import TileType, _corner_positions, build_floorplan
from repro.units import KB


def _rescanning_floorplan(config: SoCConfig) -> dict:
    """Oracle: place each tile by rescanning the mesh from the start."""
    positions = [
        TileCoordinate(r, c) for r in range(config.noc_rows) for c in range(config.noc_cols)
    ]
    placed: dict = {}

    def first_free(candidates):
        return next((p for p in candidates if p not in placed.values()), None)

    corners = _corner_positions(config.noc_rows, config.noc_cols)
    for index in range(config.num_mem_tiles):
        corner = corners[index] if index < len(corners) else None
        free_corner = corner is not None and corner not in placed.values()
        placed[f"mem{index}"] = corner if free_corner else first_free(positions)
    top_edge = [p for p in positions if p.row == 0]
    for index in range(config.num_cpus):
        placed[f"cpu{index}"] = first_free(top_edge) or first_free(positions)
    for index in range(config.num_accelerator_tiles):
        placed[f"acc{index}"] = first_free(positions)
    aux = first_free(positions)
    if aux is not None:
        placed["aux0"] = aux
    return placed


@st.composite
def _meshes(draw) -> SoCConfig:
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(-(-3 // rows), 7))  # room for one tile of each kind
    mem = draw(st.integers(1, rows * cols - 2))
    cpus = draw(st.integers(1, rows * cols - mem - 1))
    accs = draw(st.integers(1, rows * cols - mem - cpus))
    return SoCConfig(
        name="Mesh",
        num_accelerator_tiles=accs,
        noc_rows=rows,
        noc_cols=cols,
        num_cpus=cpus,
        num_mem_tiles=mem,
        llc_partition_bytes=128 * KB,
        l2_bytes=16 * KB,
    )


class TestTileCoordinate:
    def test_manhattan_distance(self):
        assert TileCoordinate(0, 0).hops_to(TileCoordinate(2, 3)) == 5
        assert TileCoordinate(1, 1).hops_to(TileCoordinate(1, 1)) == 0


class TestMeshNoC:
    def make_noc(self):
        noc = MeshNoC(rows=3, cols=3, hop_cycles=1.0, link_bytes_per_cycle=8.0)
        noc.place_tile("acc0", TileCoordinate(1, 1))
        noc.place_tile("mem0", TileCoordinate(0, 0))
        noc.register_memory_tile(0, "mem0")
        return noc

    def test_hops_and_latency(self):
        noc = self.make_noc()
        assert noc.hops("acc0", "mem0") == 2
        assert noc.route_latency("acc0", "mem0") == pytest.approx(2.0)

    def test_transfer_charges_link_and_latency(self):
        noc = self.make_noc()
        finish = noc.transfer(0.0, "acc0", 0, "mem0", 80)
        assert finish == pytest.approx(80 / 8.0 + 2.0)

    def test_transfers_queue_on_shared_link(self):
        noc = self.make_noc()
        first = noc.transfer(0.0, "acc0", 0, "mem0", 800)
        second = noc.transfer(0.0, "acc0", 0, "mem0", 800)
        assert second > first

    def test_unplaced_tile_raises(self):
        noc = self.make_noc()
        with pytest.raises(ConfigurationError):
            noc.hops("ghost", "mem0")

    def test_unregistered_memory_tile_raises(self):
        noc = self.make_noc()
        with pytest.raises(ConfigurationError):
            noc.memory_link(3)

    def test_placement_outside_mesh_rejected(self):
        noc = MeshNoC(2, 2, 1.0, 4.0)
        with pytest.raises(ConfigurationError):
            noc.place_tile("far", TileCoordinate(5, 0))

    def test_link_stats_and_reset(self):
        noc = self.make_noc()
        link = noc.memory_link(0)
        link.stats = ResourceStats()
        noc.transfer(0.0, "acc0", 0, "mem0", 64)
        assert link.stats.requests == 1
        noc.reset()
        assert link.stats.requests == 0
        assert link.next_free == 0.0

    def test_invalid_mesh_dimensions(self):
        with pytest.raises(ConfigurationError):
            MeshNoC(0, 3, 1.0, 1.0)


class TestFloorplan:
    def test_every_tile_gets_unique_position(self, tiny_config):
        tiles, by_name = build_floorplan(tiny_config)
        positions = [tile.position for tile in tiles]
        assert len(positions) == len(set(positions))
        assert set(by_name) == {tile.name for tile in tiles}

    def test_tile_counts_match_config(self, tiny_config):
        tiles, _ = build_floorplan(tiny_config)
        counts = {}
        for tile in tiles:
            counts[tile.tile_type] = counts.get(tile.tile_type, 0) + 1
        assert counts[TileType.ACCELERATOR] == tiny_config.num_accelerator_tiles
        assert counts[TileType.CPU] == tiny_config.num_cpus
        assert counts[TileType.MEMORY] == tiny_config.num_mem_tiles

    def test_cpu_tiles_have_private_caches(self, tiny_config):
        tiles, _ = build_floorplan(tiny_config)
        for tile in tiles:
            if tile.tile_type is TileType.CPU:
                assert tile.has_private_cache

    def test_soc3_cacheless_accelerators_reflected(self):
        config = soc_preset("SoC3")
        _, by_name = build_floorplan(config)
        assert not by_name["acc12"].has_private_cache
        assert by_name["acc0"].has_private_cache

    @given(_meshes())
    def test_one_pass_placement_matches_rescanning_oracle(self, config):
        tiles, _ = build_floorplan(config)
        assert {tile.name: tile.position for tile in tiles} == _rescanning_floorplan(config)

    def test_all_presets_floorplan_without_conflict(self):
        for name in ("SoC0", "SoC1", "SoC2", "SoC3", "SoC4", "SoC5", "SoC6"):
            tiles, _ = build_floorplan(soc_preset(name))
            positions = [tile.position for tile in tiles]
            assert len(positions) == len(set(positions))
