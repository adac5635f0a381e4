"""The ESP-like accelerator invocation API with runtime coherence selection.

:class:`EspRuntime` is the software layer an application (or the workload
harness) uses to invoke accelerators.  Every invocation goes through the
four phases of the paper's framework:

1. **Sense** — take a snapshot of the SoC status (active accelerators,
   their coherence modes and footprints) restricted to the memory
   partitions the new invocation will touch.
2. **Decide** — ask the configured coherence policy (fixed, random, the
   manual heuristic, or Cohmeleon's RL agent) which mode to use, limited to
   the modes the target accelerator tile supports.
3. **Actuate** — perform the software cache flushes the chosen mode
   requires and start the accelerator.
4. **Evaluate** — when the accelerator completes, read the hardware
   monitors, attribute the shared DRAM counters to this invocation with
   the footprint-proportional approximation, and report the result back to
   the policy (which is how Cohmeleon learns online).

The runtime also arbitrates accelerator tiles between software threads:
if every tile implementing the requested accelerator is busy, the calling
thread waits until one frees up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

from repro.accelerators.descriptor import AcceleratorDescriptor
from repro.accelerators.invocation import InvocationRequest, InvocationResult
from repro.errors import ConfigurationError, PolicyError
from repro.runtime.attribution import attribute_ddr_accesses, combine_footprints
from repro.runtime.executor import InvocationExecutor
from repro.runtime.status import ActiveInvocation, SystemStatus
from repro.sim.engine import ResumeAt
from repro.soc.address import Buffer
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.soc.soc import Soc


@dataclass
class AcceleratorBinding:
    """Binding of one accelerator descriptor to one accelerator tile."""

    tile_name: str
    tile_index: int
    descriptor: AcceleratorDescriptor
    has_private_cache: bool

    @property
    def supported_modes(self) -> List[CoherenceMode]:
        """Coherence modes this tile supports."""
        modes = [m for m in COHERENCE_MODES if m is not CoherenceMode.FULL_COH]
        if self.has_private_cache:
            modes.append(CoherenceMode.FULL_COH)
        return modes


class EspRuntime:
    """Accelerator invocation runtime with runtime coherence selection."""

    #: Polling interval (cycles) used while waiting for a busy tile.
    TILE_POLL_CYCLES = 500.0

    def __init__(self, soc: Soc, policy: "CoherencePolicy") -> None:  # noqa: F821
        self.soc = soc
        self.policy = policy
        config = soc.config
        self.status = SystemStatus(
            l2_bytes=config.l2_bytes,
            llc_partition_bytes=config.llc_partition_bytes,
            num_mem_tiles=config.num_mem_tiles,
        )
        self.executor = InvocationExecutor(soc)
        self.bindings: Dict[str, AcceleratorBinding] = {}
        self._bindings_by_accelerator: Dict[str, List[AcceleratorBinding]] = {}
        self._busy_tiles: set = set()

    # ------------------------------------------------------------------
    # Accelerator binding
    # ------------------------------------------------------------------
    def bind_accelerator(
        self, descriptor: AcceleratorDescriptor, tile_index: Optional[int] = None
    ) -> AcceleratorBinding:
        """Bind ``descriptor`` to an accelerator tile (next free one by default)."""
        if tile_index is None:
            tile_index = len(self.bindings)
        if tile_index >= self.soc.config.num_accelerator_tiles:
            raise ConfigurationError(
                f"cannot bind {descriptor.name}: SoC {self.soc.config.name} has only "
                f"{self.soc.config.num_accelerator_tiles} accelerator tiles"
            )
        tile_name = self.soc.accelerator_tile_name(tile_index)
        if tile_name in self.bindings:
            raise ConfigurationError(f"tile {tile_name} is already bound")
        binding = AcceleratorBinding(
            tile_name=tile_name,
            tile_index=tile_index,
            descriptor=descriptor,
            has_private_cache=self.soc.private_cache_of(tile_name) is not None,
        )
        self.bindings[tile_name] = binding
        self._bindings_by_accelerator.setdefault(descriptor.name, []).append(binding)
        return binding

    def bind_library(self, descriptors: Sequence[AcceleratorDescriptor]) -> None:
        """Bind a list of descriptors to consecutive accelerator tiles."""
        for descriptor in descriptors:
            self.bind_accelerator(descriptor)

    def bindings_for(self, accelerator_name: str) -> List[AcceleratorBinding]:
        """All tiles implementing ``accelerator_name``."""
        bindings = self._bindings_by_accelerator.get(accelerator_name, [])
        if not bindings:
            raise ConfigurationError(
                f"no accelerator tile is bound to {accelerator_name!r} on "
                f"{self.soc.config.name}"
            )
        return bindings

    def bound_accelerator_names(self) -> List[str]:
        """Names of all accelerators bound to this SoC."""
        return sorted(self._bindings_by_accelerator)

    # ------------------------------------------------------------------
    # Device arbitration
    # ------------------------------------------------------------------
    def acquire_tile(
        self, accelerator_name: str
    ) -> Generator[object, float, AcceleratorBinding]:
        """Process: wait for (and lock) a tile implementing ``accelerator_name``."""
        candidates = self.bindings_for(accelerator_name)
        while True:
            for binding in candidates:
                if binding.tile_name not in self._busy_tiles:
                    self._busy_tiles.add(binding.tile_name)
                    return binding
            yield self.TILE_POLL_CYCLES

    def release_tile(self, binding: AcceleratorBinding) -> None:
        """Unlock a tile acquired with :meth:`acquire_tile`."""
        self._busy_tiles.discard(binding.tile_name)

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def invoke(
        self, request: InvocationRequest
    ) -> Generator[object, float, InvocationResult]:
        """Process: run one accelerator invocation through sense/decide/actuate/evaluate."""
        engine = self.soc.engine
        tile_name = request.tile_name
        binding = self.bindings.get(tile_name)
        if binding is None:
            raise ConfigurationError(f"tile {tile_name} has no bound accelerator")

        start_time = engine.now
        footprint_per_tile = self._footprint_per_tile(request.buffer, request.footprint_bytes)

        # (1) Sense.
        snapshot = self.status.snapshot(request.footprint_bytes, footprint_per_tile)

        # (2) Decide.
        supported = binding.supported_modes
        mode = self.policy.select_mode(snapshot, request, supported)
        if mode not in supported:
            raise PolicyError(
                f"policy {self.policy.name} selected unsupported mode {mode} "
                f"for tile {tile_name}"
            )
        policy_overhead = float(self.policy.overhead_cycles)

        ddr_before = self.soc.monitors.ddr_snapshot()

        # Device-driver overhead plus the coherence-selection overhead.
        yield self.soc.config.timing.driver_base_cycles + policy_overhead

        # (3) Actuate: software flushes for the chosen mode, then start.
        segments = request.buffer.slice(0, request.footprint_bytes)
        flush_finish, flush_stats = self.soc.datapath.flush_for_invocation(
            engine.now,
            mode,
            segments,
            exclude_private=self.soc.private_cache_of(tile_name),
        )
        if flush_finish > engine.now:
            yield ResumeAt(flush_finish)

        active = ActiveInvocation(
            tile_name=tile_name,
            accelerator_name=request.accelerator.name,
            mode=mode,
            footprint_bytes=request.footprint_bytes,
            footprint_per_tile=dict(footprint_per_tile),
            start_time=engine.now,
        )
        self.status.register(active)

        record = yield from self.executor.execute(request, mode)

        # (4) Evaluate.
        ddr_after = self.soc.monitors.ddr_snapshot()
        ddr_delta = ddr_before.delta(ddr_after)
        active_footprints = combine_footprints(
            *(inv.footprint_per_tile for inv in self.status.active_invocations)
        )
        attributed = attribute_ddr_accesses(ddr_delta, footprint_per_tile, active_footprints)
        self.status.unregister(tile_name)

        total_cycles = engine.now - start_time
        details = record.stats.as_dict()
        details.update(
            {
                "flush_writebacks": flush_stats.flush_writebacks
                + details.get("flush_writebacks", 0),
                "flush_invalidations": flush_stats.flush_invalidations
                + details.get("flush_invalidations", 0),
                "flush_dram_writes": flush_stats.dram_write_lines,
                "compute_cycles": record.compute_cycles,
            }
        )
        result = InvocationResult(
            accelerator_name=request.accelerator.name,
            tile_name=tile_name,
            mode=mode,
            footprint_bytes=request.footprint_bytes,
            total_cycles=total_cycles,
            accelerator_cycles=record.accelerator_cycles,
            comm_cycles=record.comm_cycles,
            ddr_accesses=attributed,
            policy_overhead_cycles=policy_overhead,
            start_time=start_time,
            finish_time=engine.now,
            details=details,
        )
        self.policy.observe_result(request, mode, snapshot, result)
        return result

    def invoke_by_name(
        self,
        accelerator_name: str,
        buffer: Buffer,
        footprint_bytes: int,
        cpu_index: int = 0,
        thread_id: Optional[str] = None,
    ) -> Generator[object, float, InvocationResult]:
        """Process: acquire a tile for ``accelerator_name`` and invoke it."""
        binding = yield from self.acquire_tile(accelerator_name)
        try:
            request = InvocationRequest(
                accelerator=binding.descriptor,
                tile_name=binding.tile_name,
                buffer=buffer,
                footprint_bytes=footprint_bytes,
                cpu_index=cpu_index,
                thread_id=thread_id,
            )
            result = yield from self.invoke(request)
        finally:
            self.release_tile(binding)
        return result

    # ------------------------------------------------------------------
    # Helpers and bookkeeping
    # ------------------------------------------------------------------
    def _footprint_per_tile(self, buffer: Buffer, footprint_bytes: int) -> Dict[int, int]:
        return buffer.footprint_within(footprint_bytes)

    def total_ddr_accesses(self) -> int:
        """Total off-chip accesses measured since the SoC was last reset."""
        return self.soc.monitors.total_ddr_accesses()
