"""The coordinator's lease board: pure work-assignment logic, no I/O.

A *lease* is a group of jobs handed to one worker for one round-trip.
The board is built once per sweep from the pending job list:

* grouping uses
  :func:`~repro.experiments.sweep.shard.lease_partition` — exact runs of
  ``jobs_per_lease`` jobs in fingerprint order — so the lease layout is
  a pure function of the grid, identical on every coordinator;
* an acquired lease carries a **deadline**; if the worker neither
  completes nor returns it in time (killed mid-lease, network gone),
  :meth:`LeaseBoard.expire` moves it back to the pending queue and the
  next worker to ask gets it reissued.  Expiry is evaluated lazily on
  every acquire/complete, which is sufficient: a lease can only be
  *needed* again when some worker asks for work;
* completion is **idempotent**: a worker that lost the race against its
  own expiry may still push results, and the board accepts them as long
  as every payload digest agrees with what is already recorded — a
  disagreement means the determinism contract broke, and the board
  refuses the payload loudly rather than let either version win.

All methods take an explicit ``now`` (a monotonic timestamp), so the
whole lifecycle is unit-testable without a clock or a server.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.experiments.sweep.distributed.protocol import WireError
from repro.experiments.sweep.manifest import payload_digest
from repro.experiments.sweep.shard import lease_partition
from repro.experiments.sweep.sweep import Job


@dataclass
class Lease:
    """One group of jobs, either waiting in the queue or held by a worker."""

    lease_id: str
    jobs: Tuple[Job, ...]
    #: How many times this lease has been issued (0 while never acquired).
    attempts: int = 0
    #: The worker currently holding the lease, if any.
    worker: Optional[str] = None
    #: Monotonic deadline after which the lease is reclaimable.
    deadline: Optional[float] = None


@dataclass
class CompletionReceipt:
    """What one completion call changed on the board."""

    #: Newly recorded ``(job, payload)`` pairs, in submission order.
    accepted: List[Tuple[Job, dict]] = field(default_factory=list)
    #: Results that were already recorded (digest-verified duplicates).
    duplicates: int = 0
    #: Whether the submitted lease id was still active when it completed.
    lease_known: bool = True


class LeaseBoard:
    """Tracks pending, active, and completed leases for one sweep.

    Parameters
    ----------
    jobs:
        The pending jobs of the sweep, in grid order.
    jobs_per_lease:
        Jobs per lease; only the last lease may hold fewer (see
        :func:`~repro.experiments.sweep.shard.lease_partition`).
    lease_timeout:
        Seconds a worker may hold a lease before it is reclaimable.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        jobs_per_lease: int = 1,
        lease_timeout: float = 60.0,
    ) -> None:
        self.lease_timeout = float(lease_timeout)
        self._jobs: Dict[str, Job] = {job.fingerprint(): job for job in jobs}
        groups = lease_partition(list(jobs), jobs_per_lease)
        self._pending: Deque[Lease] = deque(
            Lease(lease_id=f"lease-{index:04d}", jobs=tuple(group))
            for index, group in enumerate(groups)
        )
        self._active: Dict[str, Lease] = {}
        self._digests: Dict[str, str] = {}
        #: Leases reclaimed after their deadline and queued for reissue.
        self.reissues = 0
        #: Workers that have completed at least one result.
        self.workers_completed: set = set()

    # ------------------------------------------------------------------
    @property
    def total_jobs(self) -> int:
        """Number of jobs the board was built with."""
        return len(self._jobs)

    @property
    def completed_jobs(self) -> int:
        """Number of jobs with a recorded payload digest."""
        return len(self._digests)

    @property
    def done(self) -> bool:
        """Whether every job has a recorded (digest-verified) payload."""
        return len(self._digests) == len(self._jobs)

    def snapshot(self) -> Dict[str, object]:
        """Counters for the status route (and tests)."""
        return {
            "jobs": self.total_jobs,
            "completed": self.completed_jobs,
            "pending_leases": len(self._pending),
            "active_leases": len(self._active),
            "reissues": self.reissues,
            "workers": sorted(self.workers_completed),
        }

    # ------------------------------------------------------------------
    def expire(self, now: float) -> int:
        """Reclaim active leases whose deadline has passed; return count."""
        overdue = [
            lease
            for lease in self._active.values()
            if lease.deadline is not None and now >= lease.deadline
        ]
        for lease in overdue:
            del self._active[lease.lease_id]
            lease.worker = None
            lease.deadline = None
            self._pending.append(lease)
            self.reissues += 1
        return len(overdue)

    def acquire(self, worker: str, now: float) -> Optional[Lease]:
        """Issue the next pending lease to ``worker``, or ``None`` if idle.

        Jobs that were completed through another attempt of the same
        lease are filtered out before reissue; leases with nothing left
        to do are dropped.
        """
        self.expire(now)
        while self._pending:
            lease = self._pending.popleft()
            remaining = tuple(
                job for job in lease.jobs if job.fingerprint() not in self._digests
            )
            if not remaining:
                continue
            lease.jobs = remaining
            lease.attempts += 1
            lease.worker = worker
            lease.deadline = now + self.lease_timeout
            self._active[lease.lease_id] = lease
            return lease
        return None

    def complete(
        self,
        lease_id: str,
        worker: str,
        results: Sequence[Tuple[str, str, dict]],
        now: float,
    ) -> CompletionReceipt:
        """Record ``(fingerprint, digest, payload)`` results for a lease.

        Unknown fingerprints are rejected; a digest disagreeing with the
        payload, or with an already recorded completion of the same job,
        raises :class:`WireError` (``digest-mismatch``) — both sides of
        the exchange computed the same canonical JSON digest if and only
        if the results are bit-identical.  A stale ``lease_id`` (expired
        and reissued, or already completed) is *not* an error: the
        results are still digest-checked and recorded or deduplicated.
        """
        self.expire(now)
        receipt = CompletionReceipt(lease_known=lease_id in self._active)
        for fingerprint, digest, payload in results:
            job = self._jobs.get(fingerprint)
            if job is None:
                raise WireError(
                    "unknown-job",
                    f"completion for unknown job fingerprint {fingerprint[:12]}…",
                )
            actual = payload_digest(payload)
            if actual != digest:
                raise WireError(
                    "digest-mismatch",
                    f"job {job.key!r}: payload digest {actual[:12]}… does not "
                    f"match the stamped digest {digest[:12]}…",
                )
            recorded = self._digests.get(fingerprint)
            if recorded is not None:
                if recorded != digest:
                    raise WireError(
                        "digest-mismatch",
                        f"job {job.key!r}: reassigned lease produced digest "
                        f"{digest[:12]}… but {recorded[:12]}… is already "
                        "recorded — the determinism contract is broken",
                    )
                receipt.duplicates += 1
                continue
            self._digests[fingerprint] = digest
            receipt.accepted.append((job, payload))
        if receipt.accepted or receipt.duplicates:
            self.workers_completed.add(worker)
        active = self._active.get(lease_id)
        if active is not None and all(
            job.fingerprint() in self._digests for job in active.jobs
        ):
            del self._active[lease_id]
        return receipt


__all__ = ["CompletionReceipt", "Lease", "LeaseBoard"]
