"""Coherence-mode data paths.

This module implements how an accelerator's DMA traffic traverses the
memory hierarchy under each of the four coherence modes, including the
software cache flushes that the non-coherent and LLC-coherent modes require
before the accelerator may start.  It is the heart of the performance
model: every difference between the modes that the paper measures —
invocation (flush) overhead, reuse of warm cached data, LLC thrashing for
large footprints, recall traffic for coherent DMA, per-line overhead of the
fully-coherent miss path, and queuing on shared LLC ports, NoC links and
DRAM channels — is produced here.

The datapath operates on *byte ranges* (slices of an accelerator buffer,
already resolved to physical segments ``(mem_tile, start, size)``).  The
invocation executor in :mod:`repro.runtime.executor` asks
:meth:`Datapath.plan` once per invocation for the transfer loop of the
chosen mode, then calls that loop once per DMA piece of every iteration.
The plan resolves each memory tile's DRAM controller, LLC array, LLC port,
NoC link and route latency from the accelerator, so a segment charges
every resource directly, with positional calls.  Coherent-DMA recalls skip
private caches that hold no lines without calling into them.
:meth:`Datapath.dma_read` / :meth:`Datapath.dma_write` run a single
transfer through a fresh plan.

The datapath takes the SoC's components at construction and never the
:class:`repro.soc.soc.Soc` itself, so nothing in a finished simulation
points back at its SoC and the whole model is freed by reference counting
as soon as the caller drops it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import CoherenceError
from repro.soc.address import BufferSegment
from repro.soc.cache import SetAssociativeCache, flush_cost_cycles
from repro.soc.coherence import CoherenceMode

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.resources import BandwidthResource
    from repro.soc.config import SoCConfig
    from repro.soc.dram import DramController
    from repro.soc.llc import LLCPartition
    from repro.soc.noc import MeshNoC


class TransferStats:
    """Traffic generated by one DMA transfer (or one flush).

    The transfer loops add to one instance per invocation for every DMA
    piece, so the class uses ``__slots__`` to keep attribute access cheap.
    """

    __slots__ = (
        "bytes_moved",
        "dram_read_lines",
        "dram_write_lines",
        "llc_hits",
        "llc_misses",
        "private_hits",
        "private_misses",
        "recalls",
        "flush_writebacks",
        "flush_invalidations",
    )

    def __init__(
        self,
        bytes_moved: int = 0,
        dram_read_lines: int = 0,
        dram_write_lines: int = 0,
        llc_hits: int = 0,
        llc_misses: int = 0,
        private_hits: int = 0,
        private_misses: int = 0,
        recalls: int = 0,
        flush_writebacks: int = 0,
        flush_invalidations: int = 0,
    ) -> None:
        self.bytes_moved = bytes_moved
        self.dram_read_lines = dram_read_lines
        self.dram_write_lines = dram_write_lines
        self.llc_hits = llc_hits
        self.llc_misses = llc_misses
        self.private_hits = private_hits
        self.private_misses = private_misses
        self.recalls = recalls
        self.flush_writebacks = flush_writebacks
        self.flush_invalidations = flush_invalidations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"TransferStats({fields})"

    @property
    def dram_lines(self) -> int:
        """Total off-chip accesses (reads plus writes) caused by the transfer."""
        return self.dram_read_lines + self.dram_write_lines

    def merge(self, other: "TransferStats") -> "TransferStats":
        """Accumulate ``other`` into this object and return ``self``."""
        self.bytes_moved += other.bytes_moved
        self.dram_read_lines += other.dram_read_lines
        self.dram_write_lines += other.dram_write_lines
        self.llc_hits += other.llc_hits
        self.llc_misses += other.llc_misses
        self.private_hits += other.private_hits
        self.private_misses += other.private_misses
        self.recalls += other.recalls
        self.flush_writebacks += other.flush_writebacks
        self.flush_invalidations += other.flush_invalidations
        return self

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "bytes_moved": self.bytes_moved,
            "dram_read_lines": self.dram_read_lines,
            "dram_write_lines": self.dram_write_lines,
            "dram_lines": self.dram_lines,
            "llc_hits": self.llc_hits,
            "llc_misses": self.llc_misses,
            "private_hits": self.private_hits,
            "private_misses": self.private_misses,
            "recalls": self.recalls,
            "flush_writebacks": self.flush_writebacks,
            "flush_invalidations": self.flush_invalidations,
        }


#: The physical segments of one DMA piece, each ``(mem_tile, start, size)``.
Segments = Sequence[Tuple[int, int, int]]

#: A mode's transfer loop, ``transfer(now, segments, write, stats) -> finish``.
Transfer = Callable[[float, Segments, bool, TransferStats], float]


class Datapath:
    """Executes DMA transfers and flushes against the components of one SoC."""

    #: How many bytes of LLC misses are coalesced into one DRAM transaction.
    #: The LLC fetches misses with (clusters of) line-granularity requests,
    #: so it amortises the DRAM access latency much less well than a long
    #: non-coherent DMA burst that streams straight from memory.
    LLC_MISS_COALESCE_BYTES = 256

    #: Reference line size for per-line protocol overheads.  Overheads such
    #: as the fully-coherent miss path's per-request cost are physical
    #: 64-byte-line effects and must not change when the cache model runs at
    #: a coarser granularity.
    PROTOCOL_LINE_BYTES = 64

    def __init__(
        self,
        config: "SoCConfig",
        *,
        noc: "MeshNoC",
        memory_tiles: Sequence[str],
        llc_partitions: Sequence["LLCPartition"],
        dram_controllers: Sequence["DramController"],
        cpu_caches: Sequence[SetAssociativeCache],
        accelerator_caches: Mapping[str, SetAssociativeCache],
        accelerator_links: Mapping[str, "BandwidthResource"],
    ) -> None:
        self.timing = config.timing
        self.line_bytes = config.cache_line_bytes
        # The SoC's components, which it resets in place but never replaces.
        # Each memory tile's (DRAM controller, LLC array, LLC port, tile name)
        # is resolved once; plan() adds the NoC route from the accelerator.
        self._noc = noc
        self._llc_partitions = llc_partitions
        self._dram_controllers = dram_controllers
        self._acc_caches = accelerator_caches
        self._acc_links = accelerator_links
        # Every private cache, the processors' first: flushes walk them in
        # this order and coherent DMA recalls from them in this order.
        self._private_caches = (*cpu_caches, *accelerator_caches.values())
        self._memories = tuple(
            (dram_controllers[tile], llc.cache, llc.port, memory_tiles[tile])
            for tile, llc in enumerate(llc_partitions)
        )

    # ------------------------------------------------------------------
    # Software flushes (actuation overhead of non-coherent / LLC-coherent)
    # ------------------------------------------------------------------
    def flush_for_invocation(
        self,
        now: float,
        mode: CoherenceMode,
        segments: Sequence[BufferSegment],
        exclude_private: Optional[SetAssociativeCache] = None,
    ) -> Tuple[float, TransferStats]:
        """Perform the software flushes required before running in ``mode``.

        Returns ``(finish_time, stats)``.  The flush walks are charged as
        CPU time; write-backs travel through the regular LLC/DRAM resources
        and increment the off-chip counters, so the flush overhead is
        included in the invocation's measured execution time and memory
        accesses, as in the paper.
        """
        stats = TransferStats()
        finish = now
        if not mode.requires_private_flush:
            return finish, stats

        # Flush the processors' private caches (and any accelerator private
        # caches that may hold the data from earlier fully-coherent runs).
        walk_cycles = 0.0
        for cache in self._private_caches:
            if cache is exclude_private:
                continue
            for segment in segments:
                writebacks, invalidations = cache.flush_range(segment.start, segment.size)
                if not invalidations and not writebacks:
                    continue
                walk_cycles += flush_cost_cycles(
                    writebacks,
                    invalidations,
                    self.timing.flush_base_cycles,
                    self.timing.flush_cycles_per_line,
                )
                stats.flush_writebacks += writebacks
                stats.flush_invalidations += invalidations
                if writebacks:
                    # Dirty lines written back land in the LLC partition that
                    # owns the segment.
                    finish = max(
                        finish,
                        self._install_lines_in_llc(
                            now, segment.mem_tile, segment.start, writebacks, stats
                        ),
                    )

        if mode.requires_llc_flush:
            for segment in segments:
                partition = self._llc_partitions[segment.mem_tile]
                writebacks, invalidations = partition.cache.flush_range(
                    segment.start, segment.size
                )
                if not invalidations and not writebacks:
                    continue
                walk_cycles += flush_cost_cycles(
                    writebacks,
                    invalidations,
                    self.timing.flush_base_cycles,
                    self.timing.flush_cycles_per_line,
                )
                stats.flush_writebacks += writebacks
                stats.flush_invalidations += invalidations
                if writebacks:
                    dram = self._dram_controllers[segment.mem_tile]
                    finish = max(finish, dram.write_back(now, writebacks))
                    stats.dram_write_lines += writebacks

        finish = max(finish, now + walk_cycles)
        return finish, stats

    def _install_lines_in_llc(
        self, now: float, mem_tile: int, base_addr: int, lines: int, stats: TransferStats
    ) -> float:
        """Install ``lines`` written-back lines into an LLC partition."""
        partition = self._llc_partitions[mem_tile]
        nbytes = lines * self.line_bytes
        result = partition.cache.access_range(base_addr, nbytes, write=True)
        if result.writeback_lines:
            dram = self._dram_controllers[mem_tile]
            dram.write_back(now, result.writeback_lines)
            stats.dram_write_lines += result.writeback_lines
        return partition.serve_port(now, nbytes)

    # ------------------------------------------------------------------
    # DMA transfers
    # ------------------------------------------------------------------
    def dma_read(
        self,
        now: float,
        acc_tile: str,
        segments: Sequence[BufferSegment],
        mode: CoherenceMode,
        burst_bytes: int,
        private_cache: Optional[SetAssociativeCache] = None,
        stats: Optional[TransferStats] = None,
    ) -> Tuple[float, TransferStats]:
        """Read the given segments under ``mode``; return (finish, stats).

        A one-transfer :meth:`plan`.  ``stats`` may be a caller-owned
        accumulator: traffic is added to it in place (and it is returned).
        """
        if stats is None:
            stats = TransferStats()
        transfer = self.plan(acc_tile, mode, burst_bytes, private_cache)
        return transfer(now, segments, False, stats), stats

    def dma_write(
        self,
        now: float,
        acc_tile: str,
        segments: Sequence[BufferSegment],
        mode: CoherenceMode,
        burst_bytes: int,
        private_cache: Optional[SetAssociativeCache] = None,
        stats: Optional[TransferStats] = None,
    ) -> Tuple[float, TransferStats]:
        """Write the given segments under ``mode``; return (finish, stats).

        ``stats`` follows the same in-place accumulation contract as
        :meth:`dma_read`.
        """
        if stats is None:
            stats = TransferStats()
        transfer = self.plan(acc_tile, mode, burst_bytes, private_cache)
        return transfer(now, segments, True, stats), stats

    def plan(
        self,
        acc_tile: str,
        mode: CoherenceMode,
        burst_bytes: int,
        private_cache: Optional[SetAssociativeCache] = None,
    ) -> Transfer:
        """Resolve an accelerator's DMA path under ``mode``; return its transfer loop.

        Everything the mode's cost model needs that stays fixed for an
        invocation is looked up here, once: the effective burst size, the
        per-burst overhead, the accelerator's link, and each memory tile's
        DRAM controller, LLC array, LLC port, NoC link and route latency
        from ``acc_tile``.  The returned
        ``transfer(now, segments, write, stats)`` issues every segment
        ``(mem_tile, start, size)`` of one DMA piece at ``now``, adds the
        traffic to ``stats`` in place, and returns when the last segment
        finishes.  A plan belongs to this SoC; the executor builds one per
        invocation.
        """
        if mode is CoherenceMode.NON_COH_DMA:
            return self._plan_non_coherent(acc_tile, burst_bytes)
        if mode is CoherenceMode.LLC_COH_DMA or mode is CoherenceMode.COH_DMA:
            return self._plan_llc(acc_tile, burst_bytes, mode is CoherenceMode.COH_DMA)
        if mode is CoherenceMode.FULL_COH:
            if private_cache is None:
                raise CoherenceError(
                    f"accelerator tile {acc_tile} has no private cache but was "
                    "asked to run fully coherent"
                )
            return self._plan_fully_coherent(acc_tile, private_cache)
        raise CoherenceError(f"unsupported coherence mode {mode}")  # pragma: no cover

    def _memory_paths(self, acc_tile: str) -> Tuple[tuple, ...]:
        """Each memory tile's ``(dram, llc, port, noc_link, route)`` seen from ``acc_tile``.

        ``route`` is the NoC route latency, which the transfer loops pass to
        ``noc_link.serve`` as extra latency, as :meth:`MeshNoC.transfer` does.
        """
        noc = self._noc
        return tuple(
            (dram, cache, port, noc.memory_link(tile), noc.route_latency(acc_tile, name))
            for tile, (dram, cache, port, name) in enumerate(self._memories)
        )

    def _plan_non_coherent(self, acc_tile: str, burst_bytes: int) -> Transfer:
        """Direct DRAM access, bypassing the cache hierarchy."""
        memories = self._memory_paths(acc_tile)
        link = self._acc_links.get(acc_tile)
        line_bytes = self.line_bytes
        burst_bytes = max(int(burst_bytes), line_bytes)
        burst_overhead = self.timing.dma_burst_overhead_cycles

        def transfer(now, segments, write, stats):
            finish = now
            for mem_tile, start, size in segments:
                if size <= 0:
                    continue
                dram, _cache, _port, noc_link, route = memories[mem_tile]
                bursts = -(-size // burst_bytes)
                if write:
                    done = dram.write(now, size, bursts)
                    stats.dram_write_lines += -(-size // line_bytes)
                else:
                    done = dram.read(now, size, bursts)
                    stats.dram_read_lines += -(-size // line_bytes)
                t_noc = noc_link.serve(now, size, route)
                if t_noc > done:
                    done = t_noc
                if link is not None:
                    t_acc = link.serve(now, size)
                    if t_acc > done:
                        done = t_acc
                done += bursts * burst_overhead
                if done > finish:
                    finish = done
                stats.bytes_moved += size
            return finish

        return transfer

    def _plan_llc(self, acc_tile: str, burst_bytes: int, coherent: bool) -> Transfer:
        """LLC-coherent or coherent DMA: requests served by the LLC partition."""
        memories = self._memory_paths(acc_tile)
        link = self._acc_links.get(acc_tile)
        line_bytes = self.line_bytes
        burst_bytes = max(int(burst_bytes), line_bytes)
        burst_overhead = self.timing.dma_burst_overhead_cycles
        coalesce_bytes = self.LLC_MISS_COALESCE_BYTES
        recall = self._recall_from_private_caches
        # Coherent DMA recalls from every private cache but the accelerator's own.
        own_cache = self._acc_caches.get(acc_tile)
        recall_targets = [cache for cache in self._private_caches if cache is not own_cache]
        # Coherent-DMA requests keep the LLC pipeline busy longer per
        # datum (directory lookups and recalls).
        port_factor = self.timing.coh_dma_port_factor if coherent else 1

        def transfer(now, segments, write, stats):
            finish = now
            for mem_tile, start, size in segments:
                if size <= 0:
                    continue
                dram, cache, port, noc_link, route = memories[mem_tile]
                bursts = -(-size // burst_bytes)
                recall_extra = 0.0
                if coherent:
                    recall_extra = recall(recall_targets, cache, start, size, write, stats)
                result = cache.access_range(start, size, write)
                misses = result.misses
                stats.llc_hits += result.hits
                stats.llc_misses += misses
                t_dram = now
                if misses and not write:
                    # Read misses must be fetched from DRAM before being forwarded.
                    miss_bytes = misses * line_bytes
                    t_dram = dram.read(now, miss_bytes, -(-miss_bytes // coalesce_bytes))
                    stats.dram_read_lines += misses
                writebacks = len(result.evicted_dirty)
                if writebacks:
                    # Dirty victims evicted by the fills are written back off-chip.
                    dram.write_back(now, writebacks)
                    stats.dram_write_lines += writebacks
                done = port.serve(now, size * port_factor)
                t_noc = noc_link.serve(now, size, route)
                if t_dram > done:
                    done = t_dram
                if t_noc > done:
                    done = t_noc
                if link is not None:
                    t_acc = link.serve(now, size)
                    if t_acc > done:
                        done = t_acc
                done = done + bursts * burst_overhead + recall_extra
                if done > finish:
                    finish = done
                stats.bytes_moved += size
            return finish

        return transfer

    def _recall_from_private_caches(
        self,
        targets: Sequence[SetAssociativeCache],
        llc: SetAssociativeCache,
        start: int,
        size: int,
        write: bool,
        stats: TransferStats,
    ) -> float:
        """Recall/invalidate lines held by private caches (coherent DMA)."""
        recall_count = 0
        line_bytes = self.line_bytes
        for cache in targets:
            if not cache.num_valid:
                continue
            resident = cache.resident_lines_within(start, size)
            if not resident:
                continue
            recall = cache.recall_line
            recall_count += len(resident)
            for line_addr in resident:
                if recall(line_addr) and not write:
                    # Recalled dirty data is merged into the LLC so the DMA
                    # reads the fresh copy.
                    llc.install_range(line_addr, line_bytes, dirty=True)
        stats.recalls += recall_count
        return recall_count * self.timing.recall_cycles_per_line

    def _plan_fully_coherent(
        self, acc_tile: str, private_cache: SetAssociativeCache
    ) -> Transfer:
        """Fully-coherent access through the accelerator's private cache."""
        memories = self._memory_paths(acc_tile)
        link = self._acc_links.get(acc_tile)
        line_bytes = self.line_bytes
        coalesce_bytes = self.LLC_MISS_COALESCE_BYTES
        timing = self.timing
        l2_hit_cycles = timing.l2_hit_cycles
        l2_bytes_per_cycle = timing.l2_bytes_per_cycle
        port_factor = timing.full_coh_port_factor
        protocol_line_bytes = self.PROTOCOL_LINE_BYTES
        line_overhead_cycles = timing.full_coh_line_overhead_cycles
        access_line_run = private_cache.access_line_run

        def transfer(now, segments, write, stats):
            finish = now
            for mem_tile, start, size in segments:
                if size <= 0:
                    continue
                dram, cache, port, noc_link, route = memories[mem_tile]
                private_hits, private_misses, miss_lines, evicted_dirty = access_line_run(
                    start, size, write
                )
                stats.private_hits += private_hits
                stats.private_misses += private_misses

                # Local time for the hits (and for installing write data locally).
                total_lines = private_hits + private_misses
                local_time = (
                    l2_hit_cycles + total_lines * line_bytes / l2_bytes_per_cycle
                    if total_lines
                    else 0.0
                )

                # Every private-cache miss fetches the line from the LLC (and
                # DRAM below it): read misses need the data, and write misses
                # perform a read-for-ownership because a MESI cache allocates
                # the full line before modifying it — one of the structural
                # disadvantages of the fully-coherent mode for streaming
                # writes compared to DMA modes.
                llc_hits, llc_misses, llc_evicted_dirty = cache.access_lines(miss_lines, False)
                # Dirty victims of the private cache are written back to the LLC.
                _hits, _misses, wb_evicted_dirty = cache.access_lines(evicted_dirty, True)
                llc_evicted_dirty += wb_evicted_dirty
                stats.llc_hits += llc_hits
                stats.llc_misses += llc_misses

                t_dram = now
                if llc_misses:
                    miss_bytes = llc_misses * line_bytes
                    t_dram = dram.read(now, miss_bytes, -(-miss_bytes // coalesce_bytes))
                    stats.dram_read_lines += llc_misses
                if llc_evicted_dirty:
                    dram.write_back(now, llc_evicted_dirty)
                    stats.dram_write_lines += llc_evicted_dirty

                noc_bytes = (len(miss_lines) + len(evicted_dirty)) * line_bytes
                t_llc = t_noc = t_acc = now
                if noc_bytes:
                    t_llc = port.serve(now, noc_bytes * port_factor)
                    t_noc = noc_link.serve(now, noc_bytes, route)
                    if link is not None:
                        t_acc = link.serve(now, noc_bytes)
                # The fully-coherent miss path issues one protocol request per
                # physical cache line; the overhead scales with the data
                # volume, not with the (possibly coarser) modelling granularity.
                miss_protocol_lines = private_misses * line_bytes / protocol_line_bytes
                done = max(now + local_time, t_llc, t_dram, t_noc, t_acc) + (
                    miss_protocol_lines * line_overhead_cycles
                )
                if done > finish:
                    finish = done
                stats.bytes_moved += size
            return finish

        return transfer
