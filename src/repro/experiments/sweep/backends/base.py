"""The :class:`ExecutionBackend` protocol every sweep backend implements.

A backend is a *strategy for executing pending jobs*: it receives the jobs
that survived cache and manifest filtering, runs them in whatever execution
domain it manages (in-process, a process pool, remote workers), and
reports each completed job through a callback **from the caller's thread of
control**.  That last point is the checkpointing contract: because
``on_result`` fires incrementally as jobs finish — not in one batch at the
end — the runner can persist every payload to the result cache and the
sweep manifest the moment it exists, so an interrupted sweep loses at most
the leases that were in flight (a serial run's lease is one job).

Backends never touch the cache or the manifest themselves, and they never
reorder or filter the results semantically: every job in ``jobs`` must be
reported exactly once (in any completion order).  Determinism is owned by
the jobs — each derives its RNG stream from its own fingerprint — so a
spec produces bit-identical payloads on every backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Sequence

from repro.experiments.sweep.sweep import Job

#: Callback invoked once per completed job with ``(job, payload)``.  Always
#: called from the thread that invoked :meth:`ExecutionBackend.run`, so the
#: caller may perform cache and manifest writes without locking.
ResultCallback = Callable[[Job, Dict[str, object]], None]


class ExecutionBackend(ABC):
    """Strategy interface for executing the pending jobs of one sweep.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`run`.  Instances are stateless between :meth:`run` calls and
    may be reused across specs.
    """

    #: Registry key; subclasses override with a short stable identifier.
    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        jobs: Sequence[Job],
        workers: int,
        on_result: ResultCallback,
    ) -> int:
        """Execute ``jobs``, reporting each completion through ``on_result``.

        Parameters
        ----------
        jobs:
            Pending jobs, already filtered by cache/manifest/shard.  Each
            must be executed exactly once.
        workers:
            Requested degree of parallelism (already clamped to
            ``len(jobs)`` by the runner); backends without parallelism
            ignore it.
        on_result:
            Invoked with ``(job, payload)`` as each job completes, from
            the calling thread, so the caller can checkpoint immediately.

        Returns
        -------
        int
            The degree of parallelism actually achieved (1 after a
            fallback to serial execution), reported as
            ``SweepResult.workers_used``.
        """
