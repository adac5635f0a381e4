"""Execution backends for the sweep runner.

The package exposes a tiny registry mapping stable names to
:class:`~repro.experiments.sweep.backends.base.ExecutionBackend`
implementations:

========== =========================================================
``serial``  one job after another in the calling process (reference)
``batch``   the process pool, dispatching one lease of jobs per round-trip
========== =========================================================

The worker count picks between them: one worker runs serially, more
run on the pool.  The distributed coordinator backend
(:class:`~repro.experiments.sweep.distributed.DistributedBackend`) also
implements the protocol but is not name-registered — it needs host/port
configuration, so it is constructed explicitly (or via the
``coordinate`` subcommand) and passed as an instance.

All backends satisfy the same contract — every pending job executed
exactly once, completions reported incrementally on the calling thread —
and all produce bit-identical payloads, because determinism lives in the
jobs (fingerprint-derived RNG streams), not in the executor.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type, Union

from repro.errors import SweepError
from repro.experiments.sweep.backends.base import ExecutionBackend, ResultCallback
from repro.experiments.sweep.backends.batch import BatchBackend
from repro.experiments.sweep.backends.serial import SerialBackend

#: Registered backend classes, keyed by their stable names.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    backend.name: backend for backend in (SerialBackend, BatchBackend)
}

#: Backend names in stable (sorted) order.
BACKEND_NAMES: Tuple[str, ...] = tuple(sorted(BACKENDS))


def create_backend(
    spec: Union[str, ExecutionBackend, None],
    workers: int,
    jobs_per_lease: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve a backend argument to an instance.

    ``None`` selects the default policy: the process pool when more than
    one worker is requested, otherwise serial.  A string is looked up in
    the registry; an :class:`ExecutionBackend` instance passes through.
    ``jobs_per_lease`` sets the pool's lease size; serial ignores it.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = BatchBackend.name if workers > 1 else SerialBackend.name
    if spec == BatchBackend.name:
        return BatchBackend(jobs_per_lease=jobs_per_lease)
    if spec == SerialBackend.name:
        return SerialBackend()
    raise SweepError(
        f"unknown execution backend {spec!r}; choose from {', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "BatchBackend",
    "ExecutionBackend",
    "ResultCallback",
    "SerialBackend",
    "create_backend",
]
