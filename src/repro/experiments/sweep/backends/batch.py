"""The process pool: one lease of jobs per worker round-trip.

This is the backend behind ``--workers N`` (N > 1).
:class:`BatchBackend` pays the pickle/unpickle/IPC round-trip per lease
instead of per job, without touching the determinism contract:

* jobs are grouped into leases by
  :func:`~repro.experiments.sweep.shard.lease_partition` — exact runs of
  ``jobs_per_lease`` jobs in fingerprint order, so the grouping never
  depends on grid order or machine — and the leases are dispatched in the
  grid order of their first job;
* each pool task executes one whole lease and returns its results as one
  vector of ``(key, payload)`` pairs, so pickling overhead (including
  parameter objects shared across a lease, which the pickler memoizes
  once per lease instead of once per job) and pool round-trips are paid
  per *lease*, not per job;
* completions are still reported incrementally on the calling thread —
  one lease at a time — so the runner checkpoints each lease to the
  cache and manifest as soon as it returns, and payloads stay
  bit-identical to serial execution because job randomness derives from
  job fingerprints;
* when no pool can be created (no ``fork``/semaphore support, or the
  runner is already inside a daemonic worker) the backend degrades to
  serial execution with a warning.

``jobs_per_lease`` trades checkpoint granularity against dispatch
overhead; the default aims at a few leases per worker so the pool stays
load-balanced while round-trips are amortized.
"""

from __future__ import annotations

import multiprocessing
import warnings
from typing import List, Optional, Sequence, Tuple

from repro.errors import SweepError
from repro.experiments.sweep.backends.base import ExecutionBackend, ResultCallback
from repro.experiments.sweep.backends.serial import SerialBackend, execute_job
from repro.experiments.sweep.shard import lease_partition
from repro.experiments.sweep.sweep import Job

#: Default leases handed to each worker over a run's lifetime; a few per
#: worker keeps the pool load-balanced even when job costs are skewed.
LEASES_PER_WORKER = 4


def _execute_batch(jobs: Sequence[Job]) -> List[Tuple[str, dict]]:
    """Worker entry point: run one lease, return its ``(key, payload)`` vector."""
    return [(job.key, execute_job(job)) for job in jobs]


def default_jobs_per_lease(job_count: int, workers: int) -> int:
    """Lease size giving ~:data:`LEASES_PER_WORKER` leases per worker."""
    return max(1, -(-job_count // (max(1, workers) * LEASES_PER_WORKER)))


class BatchBackend(ExecutionBackend):
    """Fans leases of jobs out over a ``multiprocessing`` pool.

    Results are consumed in completion order in the parent process, so
    ``on_result`` (and therefore every cache/manifest write) runs in the
    parent only — workers never see the cache.
    """

    name = "batch"

    def __init__(self, jobs_per_lease: Optional[int] = None) -> None:
        if jobs_per_lease is not None and jobs_per_lease < 1:
            raise SweepError(
                f"jobs_per_lease must be >= 1, got {jobs_per_lease}"
            )
        self.jobs_per_lease = jobs_per_lease

    def run(
        self,
        jobs: Sequence[Job],
        workers: int,
        on_result: ResultCallback,
    ) -> int:
        """Execute ``jobs`` in leases, falling back to serial without a pool."""
        if workers <= 1:
            return SerialBackend().run(jobs, 1, on_result)
        per_lease = (
            self.jobs_per_lease
            if self.jobs_per_lease is not None
            else default_jobs_per_lease(len(jobs), workers)
        )
        # Dispatch leases in the grid order of their first job.  With one
        # job per lease the pool then starts jobs in grid order, as serial
        # execution does, so a grid that lists its longest jobs first (the
        # Figure 9 grid does) keeps them first.
        position = {job.key: index for index, job in enumerate(jobs)}
        leases = sorted(
            lease_partition(jobs, per_lease),
            key=lambda lease: min(position[job.key] for job in lease),
        )
        try:
            pool = multiprocessing.get_context().Pool(processes=workers)
        except Exception as exc:  # daemonic nesting, missing sem_open, ...
            warnings.warn(
                f"sweep: cannot create a {workers}-worker pool ({exc}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return SerialBackend().run(jobs, 1, on_result)
        by_key = {job.key: job for job in jobs}
        try:
            with pool:
                for results in pool.imap_unordered(_execute_batch, leases):
                    for key, payload in results:
                        on_result(by_key[key], payload)
        finally:
            pool.join()
        return workers
