"""In-process serial execution — the default and the universal fallback."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.sweep.backends.base import ExecutionBackend, ResultCallback
from repro.experiments.sweep.sweep import Job


def execute_job(job: Job) -> Dict[str, object]:
    """Run one job in the current process and return its payload.

    Module-level so the process pool can call it in its workers (the
    function must be picklable by dotted path).
    """
    return job.execute()


class SerialBackend(ExecutionBackend):
    """Runs every job in the calling process, one after the other.

    This is the reference implementation of the execution contract: the
    other backends must be observationally equivalent to it, payload for
    payload.  It is also the backend used inside sweep workers (nested
    pools are never created) and on platforms without ``multiprocessing``
    support.
    """

    name = "serial"

    def run(
        self,
        jobs: Sequence[Job],
        workers: int,
        on_result: ResultCallback,
    ) -> int:
        """Execute ``jobs`` sequentially in grid order; always returns 1."""
        for job in jobs:
            on_result(job, execute_job(job))
        return 1
