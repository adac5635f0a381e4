"""Deterministic sharding: partitioning a sweep grid by fingerprint hash.

A shard is described as ``index/count`` (1-based, e.g. ``2/3``) and owns
every job whose fingerprint, read as a hexadecimal integer, is congruent to
``index - 1`` modulo ``count``.  Because the fingerprint depends only on
the job's function, parameters, and seed, the partition is

* **disjoint and complete** — every job belongs to exactly one shard;
* **order-insensitive** — shuffling the grid, or building it twice, never
  moves a job between shards;
* **machine-independent** — three CI jobs given ``1/3``, ``2/3``, ``3/3``
  agree on ownership without talking to each other.

Shard *balance* is statistical, not exact: SHA-256 residues spread jobs
uniformly, so shards of a large grid are near-equal, but a small grid may
give one shard an extra job (or, degenerately, some shard none).  Leases
(:func:`lease_partition`) are exact instead: they slice the jobs in
fingerprint order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import SweepError
from repro.experiments.sweep.sweep import Job


class ShardIncompleteError(SweepError):
    """A payload was requested that this shard did not own or execute.

    Raised when code consumes the result of a sharded run as if it were
    complete (for example a figure harness building its report).  The
    remaining payloads live in the sibling shards; fuse them with
    ``python -m repro.experiments merge-shards`` and re-run with a warm
    cache, or run without ``--shard``.
    """


@dataclass(frozen=True)
class ShardSpec:
    """One slice of a sharded sweep: shard ``index`` of ``count`` (1-based)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SweepError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise SweepError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"index/count"`` (for example ``"2/3"``)."""
        head, sep, tail = text.partition("/")
        try:
            if not sep:
                raise ValueError(text)
            return cls(index=int(head), count=int(tail))
        except ValueError:
            raise SweepError(
                f"invalid shard {text!r}: expected INDEX/COUNT, e.g. 2/3"
            ) from None

    @property
    def label(self) -> str:
        """Canonical rendering, ``"index/count"``."""
        return f"{self.index}/{self.count}"

    def owns(self, fingerprint: str) -> bool:
        """Whether the job with ``fingerprint`` belongs to this shard."""
        return int(fingerprint, 16) % self.count == self.index - 1


def lease_partition(jobs: Sequence[Job], jobs_per_lease: int) -> List[List[Job]]:
    """Group ``jobs`` into leases of exactly ``jobs_per_lease`` each.

    This is the grouping behind the process pool (the ``batch`` backend)
    and distributed work leases.  The jobs are sorted by fingerprint and
    cut into consecutive runs of ``jobs_per_lease``; only the last lease
    may be shorter, so there are exactly ``ceil(len(jobs) /
    jobs_per_lease)`` leases.  Sorting by fingerprint keeps the grouping
    deterministic, order-insensitive, and machine-independent — every
    coordinator computes the same leases for the same grid.
    """
    if jobs_per_lease < 1:
        raise SweepError(f"jobs_per_lease must be >= 1, got {jobs_per_lease}")
    ordered = sorted(jobs, key=Job.fingerprint)
    return [
        ordered[start:start + jobs_per_lease]
        for start in range(0, len(ordered), jobs_per_lease)
    ]

