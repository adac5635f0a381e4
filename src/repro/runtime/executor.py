"""Execution of one accelerator invocation on the SoC model.

The executor turns an :class:`repro.accelerators.invocation.InvocationRequest`
plus a chosen coherence mode into a discrete-event process: the accelerator
alternates DMA transfers (reads of its input stream, writes of its output
stream) with computation, overlapping communication and computation the way
the pipelined ESP accelerators do.  Once per invocation the executor asks
the coherence-mode datapath for the chosen mode's transfer loop
(:meth:`repro.soc.datapath.Datapath.plan`); each iteration then maps its
read and write windows to wrap pieces and physical segments with integer
arithmetic and charges every piece through that loop, so the executor
itself is mode-agnostic.  Each iteration ends by yielding its duration as
a plain delay, which the engine's fast path schedules without allocating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.accelerators.invocation import InvocationRequest
from repro.soc.address import Buffer
from repro.soc.cache import SetAssociativeCache
from repro.soc.coherence import CoherenceMode
from repro.soc.datapath import Segments, TransferStats


@dataclass
class ExecutionRecord:
    """Raw outcome of the accelerator-active phase of one invocation."""

    accelerator_cycles: float
    comm_cycles: float
    compute_cycles: float
    stats: TransferStats = field(default_factory=TransferStats)


def _stream_windows(total_bytes: int, iterations: int) -> List[Tuple[int, int]]:
    """Split a virtual stream of ``total_bytes`` into per-iteration windows.

    Window *i* is ``(start, size)`` and runs from
    ``round(i * total_bytes / iterations)`` to the same bound at *i* + 1;
    each bound is computed once, as one window's end and the next one's
    start.
    """
    windows: List[Tuple[int, int]] = []
    start = 0
    for index in range(1, iterations + 1):
        end = round(index * total_bytes / iterations)
        windows.append((start, end - start))
        start = end
    return windows


def _stream_pieces(
    buffer: Buffer, base: int, region_bytes: int
) -> Callable[[int, int], List[Segments]]:
    """Return the map from a stream window to the physical pieces it touches.

    Re-reading the input several times is modelled as the virtual stream
    wrapping around a finite region (``region_bytes`` of ``buffer`` from
    offset ``base``), so a window may straddle the wrap point.  The
    returned ``pieces(offset, nbytes)`` lists the window's pieces in
    transfer order, each as its physical segments.  Pieces stay inside the
    region, which the executor keeps inside the buffer, so a buffer held in
    one segment maps by arithmetic alone and needs no :meth:`Buffer.slice`.
    """
    if len(buffer.segments) == 1:
        mem_tile, start, _size = buffer.segments[0]
        start += base

        def locate(offset: int, nbytes: int) -> Segments:
            return ((mem_tile, start + offset, nbytes),)

    else:

        def locate(offset: int, nbytes: int) -> Segments:
            return buffer.slice(base + offset, nbytes)

    def pieces(offset: int, nbytes: int) -> List[Segments]:
        result: List[Segments] = []
        if nbytes <= 0 or region_bytes <= 0:
            return result
        cursor = offset % region_bytes
        while nbytes > 0:
            take = region_bytes - cursor
            if take > nbytes:
                take = nbytes
            result.append(locate(cursor, take))
            nbytes -= take
            cursor = 0
        return result

    return pieces


class InvocationExecutor:
    """Runs the accelerator-active phase of invocations on the SoC model."""

    #: Upper bound on the number of simulated communicate/compute iterations
    #: per invocation.  Larger workloads group several DMA bursts into one
    #: iteration; the per-burst overheads are still charged by the datapath
    #: because they are derived from the transfer size and burst length.
    MAX_ITERATIONS = 128

    def __init__(self, soc: "Soc") -> None:  # noqa: F821 - forward reference
        self.soc = soc
        # Stream windows by (total bytes, iterations): every invocation of an
        # accelerator at one footprint splits its streams the same way.  The
        # memo dies with the executor, and so with its simulation.
        self._windows: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def _windows_of(self, total_bytes: int, iterations: int) -> List[Tuple[int, int]]:
        key = (total_bytes, iterations)
        windows = self._windows.get(key)
        if windows is None:
            windows = self._windows[key] = _stream_windows(total_bytes, iterations)
        return windows

    # ------------------------------------------------------------------
    def execute(
        self, request: InvocationRequest, mode: CoherenceMode
    ) -> Generator[object, float, ExecutionRecord]:
        """Generator process for the accelerator-active phase.

        Yields one simulation delay per iteration and finally *returns* an
        :class:`ExecutionRecord` (retrieved by the caller via ``yield from``).
        """
        engine = self.soc.engine
        descriptor = request.accelerator
        footprint = request.footprint_bytes
        buffer = request.buffer

        private_cache: Optional[SetAssociativeCache] = None
        if mode is CoherenceMode.FULL_COH:
            private_cache = self.soc.private_cache_of(request.tile_name)
        transfer = self.soc.datapath.plan(
            request.tile_name, mode, descriptor.burst_bytes, private_cache
        )

        read_total = descriptor.read_bytes(footprint)
        write_total = descriptor.write_bytes(footprint)
        compute_total = descriptor.compute_cycles(footprint)

        input_bytes = min(descriptor.input_bytes(footprint), footprint)
        output_bytes = min(descriptor.output_bytes(footprint), footprint)
        read_region = max(int(input_bytes * descriptor.touched_fraction()), 1)
        write_region = max(int(output_bytes * descriptor.touched_fraction()), 1)
        write_offset = 0 if descriptor.in_place else footprint - output_bytes
        write_region = min(write_region, footprint - write_offset)
        write_region = max(write_region, 1)
        # Both regions lie inside the footprint, which the request keeps
        # inside the buffer.
        read_pieces = _stream_pieces(buffer, 0, read_region)
        write_pieces = _stream_pieces(buffer, write_offset, write_region)

        total_bursts = max(
            1, math.ceil((read_total + write_total) / descriptor.burst_bytes)
        )
        iterations = max(1, min(self.MAX_ITERATIONS, total_bursts))
        windows = zip(
            self._windows_of(read_total, iterations), self._windows_of(write_total, iterations)
        )
        compute_chunk = compute_total / iterations

        comm_cycles = 0.0
        stats = TransferStats()
        start_time = engine.now

        for read_window, write_window in windows:
            iteration_start = engine.now
            finish = iteration_start

            # The pieces of a window go out back to back: each starts when
            # the previous one finishes.
            cursor = finish
            for segments in read_pieces(*read_window):
                cursor = transfer(cursor, segments, False, stats)
            if cursor > finish:
                finish = cursor

            cursor = finish
            for segments in write_pieces(*write_window):
                cursor = transfer(cursor, segments, True, stats)
            if cursor > finish:
                finish = cursor

            comm_time = finish - iteration_start
            comm_cycles += comm_time
            # Communication and computation overlap within an iteration:
            # the iteration takes as long as the slower of the two.
            duration = comm_time if comm_time > compute_chunk else compute_chunk
            # The clock still reads iteration_start, so the engine resumes at
            # iteration_start + duration, the same float ResumeAt gave.
            yield duration

        accelerator_cycles = engine.now - start_time
        return ExecutionRecord(
            accelerator_cycles=accelerator_cycles,
            comm_cycles=comm_cycles,
            compute_cycles=compute_total,
            stats=stats,
        )
