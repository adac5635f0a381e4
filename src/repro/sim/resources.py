"""Shared-hardware contention model.

Every shared component of the SoC that can become a bottleneck — a DRAM
channel, an LLC port, the NoC ingress link of a memory tile — is modelled
as a :class:`BandwidthResource`: a first-come-first-served server with a
fixed per-request latency and a finite bandwidth in bytes per cycle.

A transfer request made at simulation time ``now`` for ``nbytes`` bytes is
served no earlier than the completion of all previously accepted requests.
This captures the qualitative contention behaviour the paper measures in
Figure 3: when many accelerators funnel traffic into the same LLC partition
or DRAM controller, each sees its effective bandwidth shrink and its
latency grow, while private paths are unaffected.

``serve`` is called once per DMA segment per resource, which puts it on the
simulation's hot path.  Both classes use ``__slots__``, and ``serve``
converts nothing: callers pass ints or floats, for which ``nbytes /
bytes_per_cycle`` is the same float as ``float(nbytes) / bytes_per_cycle``.
Only ``bytes_served`` takes ``int(nbytes)``, because the LLC port is
charged a float byte count (``size * port_factor``).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SimulationError


class ResourceStats:
    """Usage counters for one shared resource."""

    __slots__ = ("requests", "bytes_served", "busy_cycles", "queue_cycles")

    def __init__(
        self,
        requests: int = 0,
        bytes_served: int = 0,
        busy_cycles: float = 0.0,
        queue_cycles: float = 0.0,
    ) -> None:
        self.requests = requests
        self.bytes_served = bytes_served
        self.busy_cycles = busy_cycles
        self.queue_cycles = queue_cycles

    def as_dict(self) -> Dict[str, float]:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "requests": self.requests,
            "bytes_served": self.bytes_served,
            "busy_cycles": self.busy_cycles,
            "queue_cycles": self.queue_cycles,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResourceStats(requests={self.requests}, bytes_served={self.bytes_served}, "
            f"busy_cycles={self.busy_cycles}, queue_cycles={self.queue_cycles})"
        )


class BandwidthResource:
    """FCFS server with fixed latency and finite bandwidth.

    Parameters
    ----------
    name:
        Human-readable identifier used in reports.
    bytes_per_cycle:
        Sustained throughput of the resource.
    latency:
        Fixed cycles added to every request (pipeline / access latency).
    """

    __slots__ = ("name", "bytes_per_cycle", "latency", "next_free", "stats")

    def __init__(self, name: str, bytes_per_cycle: float, latency: float = 0.0) -> None:
        if bytes_per_cycle <= 0:
            raise SimulationError(f"resource {name!r} must have positive bandwidth")
        if latency < 0:
            raise SimulationError(f"resource {name!r} has negative latency")
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.next_free = 0.0
        self.stats = ResourceStats()

    def serve(self, now: float, nbytes: float, extra_latency: float = 0.0) -> float:
        """Accept a request at time ``now`` and return its completion time.

        ``extra_latency`` models per-request overheads that occupy the
        requester but not the resource pipeline (for example a directory
        recall round-trip) — it delays completion but does not extend the
        resource's busy window.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        next_free = self.next_free
        start = now if now > next_free else next_free
        latency = self.latency
        busy = nbytes / self.bytes_per_cycle
        finish = start + latency + busy
        self.next_free = finish
        stats = self.stats
        stats.requests += 1
        stats.bytes_served += int(nbytes)
        stats.busy_cycles += latency + busy
        stats.queue_cycles += start - now
        if extra_latency > 0.0:
            return finish + extra_latency
        return finish

    def reset(self) -> None:
        """Clear the queue state and counters (used between experiments)."""
        self.next_free = 0.0
        self.stats = ResourceStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BandwidthResource(name={self.name!r}, "
            f"bytes_per_cycle={self.bytes_per_cycle}, latency={self.latency})"
        )
