"""SoC configuration objects and the Table 4 presets.

A :class:`SoCConfig` captures the architectural parameters the paper varies
across its evaluation platforms (Table 4): number of accelerator tiles,
NoC size, number of processor cores, number of memory tiles (each with a
DRAM controller and an LLC partition), cache sizes, and whether accelerator
tiles include a private cache for the fully-coherent mode.

A :class:`TimingConfig` captures the cycle-level cost model: latencies and
bandwidths of the NoC, the LLC, and the DRAM channels, plus software
overheads such as the device-driver invocation cost and the per-line cache
flush cost.  These values are not taken from the paper (which measures a
real FPGA) but are chosen to be representative of the ESP platform; the
experiments only rely on relative behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import CACHE_LINE_BYTES, KB, MB


@dataclass(frozen=True)
class TimingConfig:
    """Cycle-level cost model of the SoC."""

    #: Latency of one hop between neighbouring NoC routers.
    noc_hop_cycles: float = 1.0
    #: Bandwidth of a single NoC plane / accelerator DMA engine (32 bits).
    noc_bytes_per_cycle: float = 4.0
    #: Aggregate NoC bandwidth into a memory tile (traffic converges from
    #: several mesh directions and planes, so it exceeds a single link).
    noc_mem_link_bytes_per_cycle: float = 24.0
    #: Per-accelerator DMA engine rate: one accelerator cannot inject or
    #: absorb more than one NoC plane's worth of data per cycle.
    acc_link_bytes_per_cycle: float = 4.0
    #: Fixed lookup latency of an LLC partition.
    llc_lookup_cycles: float = 16.0
    #: Bandwidth of an LLC partition port (bytes per cycle).
    llc_bytes_per_cycle: float = 12.0
    #: Fixed access latency of a DRAM channel (row activation + CAS).
    dram_latency_cycles: float = 100.0
    #: Sustained bandwidth of a DRAM channel (the off-chip channel is much
    #: faster than a single accelerator's 32-bit DMA interface, which is why
    #: a single accelerator never saturates it).
    dram_bytes_per_cycle: float = 24.0
    #: Relative LLC-pipeline occupancy of coherent-DMA requests: they must
    #: consult the directory and possibly recall private-cache lines, so
    #: they keep the partition busy longer per datum than plain LLC-coherent
    #: requests.
    coh_dma_port_factor: float = 1.5
    #: Relative LLC-pipeline occupancy of fully-coherent miss requests
    #: (line-granularity directory transactions).
    full_coh_port_factor: float = 1.15
    #: Hit latency of a private cache.
    l2_hit_cycles: float = 2.0
    #: Local bandwidth of a private cache (bytes per cycle).
    l2_bytes_per_cycle: float = 16.0
    #: Cycles to walk one cache line during a software flush.
    flush_cycles_per_line: float = 2.0
    #: Fixed cost of issuing a software flush command.
    flush_base_cycles: float = 200.0
    #: Latency of recalling/invalidating a line from a private cache.  The
    #: recall round-trips largely overlap with the DMA stream, so the
    #: exposed per-line cost is a fraction of the raw round-trip latency.
    recall_cycles_per_line: float = 8.0
    #: Extra overhead of the fully-coherent miss path per 64-byte line of
    #: misses (requests are issued per cache line rather than as long DMA
    #: bursts, so they amortise protocol latency poorly).
    full_coh_line_overhead_cycles: float = 4.0
    #: Device-driver overhead of one accelerator invocation (including the
    #: TLB load for the accelerator's page table).
    driver_base_cycles: float = 2000.0
    #: Per-DMA-burst overhead of the accelerator's DMA engine.
    dma_burst_overhead_cycles: float = 4.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any value is non-physical."""
        for name in (
            "noc_hop_cycles",
            "noc_bytes_per_cycle",
            "noc_mem_link_bytes_per_cycle",
            "acc_link_bytes_per_cycle",
            "llc_lookup_cycles",
            "llc_bytes_per_cycle",
            "dram_latency_cycles",
            "dram_bytes_per_cycle",
            "l2_hit_cycles",
            "l2_bytes_per_cycle",
            "flush_cycles_per_line",
            "flush_base_cycles",
            "recall_cycles_per_line",
            "full_coh_line_overhead_cycles",
            "driver_base_cycles",
            "dma_burst_overhead_cycles",
            "coh_dma_port_factor",
            "full_coh_port_factor",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"timing parameter {name} must be >= 0")
        if self.noc_bytes_per_cycle <= 0 or self.dram_bytes_per_cycle <= 0:
            raise ConfigurationError("bandwidth parameters must be positive")

    def __deepcopy__(self, memo: Dict[int, object]) -> "TimingConfig":
        # Frozen with only float fields: a copy could never differ.
        return self


@dataclass(frozen=True)
class SoCConfig:
    """Architectural parameters of one SoC instance (cf. Table 4)."""

    name: str
    num_accelerator_tiles: int
    noc_rows: int
    noc_cols: int
    num_cpus: int
    num_mem_tiles: int
    llc_partition_bytes: int
    l2_bytes: int
    acc_l2_bytes: Optional[int] = None
    cache_line_bytes: int = CACHE_LINE_BYTES
    l2_ways: int = 4
    llc_ways: int = 16
    #: Indices of accelerator tiles that do NOT have a private cache (and
    #: therefore cannot use the fully-coherent mode); SoC3 has five such
    #: tiles due to FPGA resource constraints.
    accelerators_without_cache: Tuple[int, ...] = ()
    dram_partition_bytes: int = 512 * MB
    timing: TimingConfig = field(default_factory=TimingConfig)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency of the configuration."""
        if self.num_accelerator_tiles <= 0:
            raise ConfigurationError("an SoC needs at least one accelerator tile")
        if self.num_cpus <= 0:
            raise ConfigurationError("an SoC needs at least one processor tile")
        if self.num_mem_tiles <= 0:
            raise ConfigurationError("an SoC needs at least one memory tile")
        if self.noc_rows <= 0 or self.noc_cols <= 0:
            raise ConfigurationError("NoC dimensions must be positive")
        total_tiles = self.num_accelerator_tiles + self.num_cpus + self.num_mem_tiles
        if total_tiles > self.noc_rows * self.noc_cols:
            raise ConfigurationError(
                f"{self.name}: {total_tiles} tiles do not fit in a "
                f"{self.noc_rows}x{self.noc_cols} NoC"
            )
        if self.llc_partition_bytes <= 0 or self.l2_bytes <= 0:
            raise ConfigurationError("cache sizes must be positive")
        if self.cache_line_bytes <= 0 or self.cache_line_bytes % 2:
            raise ConfigurationError("cache line size must be a positive even value")
        for index in self.accelerators_without_cache:
            if not 0 <= index < self.num_accelerator_tiles:
                raise ConfigurationError(
                    f"accelerator index {index} out of range in "
                    f"accelerators_without_cache"
                )
        self.timing.validate()

    def __deepcopy__(self, memo: Dict[int, object]) -> "SoCConfig":
        # Frozen with only immutable fields (scalars, a tuple of ints, a
        # TimingConfig), so a deep copy could never differ: share it.
        return self

    # ------------------------------------------------------------------
    @property
    def accelerator_l2_bytes(self) -> int:
        """Size of an accelerator tile's private cache."""
        return self.acc_l2_bytes if self.acc_l2_bytes is not None else self.l2_bytes

    @property
    def total_llc_bytes(self) -> int:
        """Aggregate LLC capacity across all partitions."""
        return self.llc_partition_bytes * self.num_mem_tiles

    def accelerator_has_cache(self, accelerator_index: int) -> bool:
        """Whether the accelerator tile at ``accelerator_index`` has a cache."""
        return accelerator_index not in self.accelerators_without_cache

    def with_timing(self, **overrides: float) -> "SoCConfig":
        """Return a copy of this config with some timing parameters replaced."""
        return replace(self, timing=replace(self.timing, **overrides))

    def with_line_size(self, line_bytes: int) -> "SoCConfig":
        """Return a copy with a different cache-model granularity.

        Large sweeps can model caches at a coarser granularity (e.g. 256-byte
        blocks) to reduce simulation cost; relative results are unaffected
        because all modes are scaled identically.
        """
        return replace(self, cache_line_bytes=line_bytes)

    def describe(self) -> Dict[str, object]:
        """Return the Table 4 style summary of this configuration."""
        return {
            "name": self.name,
            "accelerators": self.num_accelerator_tiles,
            "noc": f"{self.noc_rows}x{self.noc_cols}",
            "cpus": self.num_cpus,
            "ddrs": self.num_mem_tiles,
            "llc_partition_kb": self.llc_partition_bytes // KB,
            "total_llc_kb": self.total_llc_bytes // KB,
            "l2_kb": self.l2_bytes // KB,
        }


# ----------------------------------------------------------------------
# Table 4 presets
# ----------------------------------------------------------------------

_PRESETS: Dict[str, SoCConfig] = {}


def _register(config: SoCConfig) -> SoCConfig:
    _PRESETS[config.name] = config
    return config


#: SoC0: 12 accelerators, 5x5 NoC, 4 CPUs, 4 DDRs, 512 KB LLC partitions.
SOC0 = _register(
    SoCConfig(
        name="SoC0",
        num_accelerator_tiles=12,
        noc_rows=5,
        noc_cols=5,
        num_cpus=4,
        num_mem_tiles=4,
        llc_partition_bytes=512 * KB,
        l2_bytes=64 * KB,
    )
)

#: SoC1: 7 accelerators, 4x4 NoC, 2 CPUs, 4 DDRs, 256 KB LLC partitions.
SOC1 = _register(
    SoCConfig(
        name="SoC1",
        num_accelerator_tiles=7,
        noc_rows=4,
        noc_cols=4,
        num_cpus=2,
        num_mem_tiles=4,
        llc_partition_bytes=256 * KB,
        l2_bytes=32 * KB,
    )
)

#: SoC2: 9 accelerators, 4x4 NoC, 4 CPUs, 2 DDRs, 512 KB LLC partitions.
SOC2 = _register(
    SoCConfig(
        name="SoC2",
        num_accelerator_tiles=9,
        noc_rows=4,
        noc_cols=4,
        num_cpus=4,
        num_mem_tiles=2,
        llc_partition_bytes=512 * KB,
        l2_bytes=32 * KB,
    )
)

#: SoC3: 16 accelerators, 5x5 NoC, 4 CPUs, 4 DDRs, 256 KB LLC partitions;
#: five accelerators lack a private cache (FPGA resource constraints).
SOC3 = _register(
    SoCConfig(
        name="SoC3",
        num_accelerator_tiles=16,
        noc_rows=5,
        noc_cols=5,
        num_cpus=4,
        num_mem_tiles=4,
        llc_partition_bytes=256 * KB,
        l2_bytes=64 * KB,
        accelerators_without_cache=(11, 12, 13, 14, 15),
    )
)

#: SoC4 (case study, mixed accelerators): 11 accelerators, 5x4 NoC.
SOC4 = _register(
    SoCConfig(
        name="SoC4",
        num_accelerator_tiles=11,
        noc_rows=5,
        noc_cols=4,
        num_cpus=2,
        num_mem_tiles=4,
        llc_partition_bytes=256 * KB,
        l2_bytes=32 * KB,
    )
)

#: SoC5 (case study, collaborative autonomous vehicles): 8 accelerators.
SOC5 = _register(
    SoCConfig(
        name="SoC5",
        num_accelerator_tiles=8,
        noc_rows=4,
        noc_cols=4,
        num_cpus=1,
        num_mem_tiles=4,
        llc_partition_bytes=256 * KB,
        l2_bytes=32 * KB,
    )
)

#: SoC6 (case study, computer vision): 9 accelerators, 2 DDRs, 512 KB LLC.
SOC6 = _register(
    SoCConfig(
        name="SoC6",
        num_accelerator_tiles=9,
        noc_rows=4,
        noc_cols=4,
        num_cpus=1,
        num_mem_tiles=2,
        llc_partition_bytes=256 * KB,
        l2_bytes=32 * KB,
    )
)

#: The SoC used for the Section 3 motivation experiments: 32 KB private
#: caches, a 1 MB LLC split in two partitions, two memory controllers.
MOTIVATION_SOC = _register(
    SoCConfig(
        name="Motivation",
        num_accelerator_tiles=12,
        noc_rows=5,
        noc_cols=4,
        num_cpus=2,
        num_mem_tiles=2,
        llc_partition_bytes=512 * KB,
        l2_bytes=32 * KB,
    )
)


def soc_preset(name: str) -> SoCConfig:
    """Return the Table 4 preset with the given name (e.g. ``'SoC0'``)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown SoC preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None


def available_presets() -> Tuple[str, ...]:
    """Return the names of all registered SoC presets."""
    return tuple(sorted(_PRESETS))
