"""Distributed multi-host sweep execution: coordinator + pull workers.

The package implements the
:class:`~repro.experiments.sweep.backends.ExecutionBackend` protocol
across machine boundaries with nothing but the standard library:

* :mod:`~repro.experiments.sweep.distributed.protocol` — the JSON wire
  contract: versioned documents, typed error envelopes, and the
  fingerprint-verified job/result encodings;
* :mod:`~repro.experiments.sweep.distributed.lease` — the pure-logic
  lease board: deterministic, exact grouping of jobs into leases in
  fingerprint order, expiry + reassignment, and idempotent
  digest-checked completion;
* :mod:`~repro.experiments.sweep.distributed.coordinator` —
  :class:`DistributedBackend`, an asyncio HTTP coordinator (same
  hand-rolled keep-alive transport idiom as :mod:`repro.serving`) that
  serves leases to workers and reports completions incrementally on the
  runner's thread, so cache/manifest checkpointing is unchanged;
* :mod:`~repro.experiments.sweep.distributed.worker` — the pull worker
  loop behind ``python -m repro.experiments.sweep worker``.

Determinism is inherited, not negotiated: every job's randomness derives
from its fingerprint, so payloads are bit-identical no matter which
worker (or how many, or in what order) executes them — and the
coordinator *checks* this, by digest, whenever a reassigned lease is
completed twice.
"""

from repro.experiments.sweep.distributed.coordinator import DistributedBackend
from repro.experiments.sweep.distributed.lease import Lease, LeaseBoard
from repro.experiments.sweep.distributed.protocol import (
    DIST_PROTOCOL_VERSION,
    WireError,
    decode_job,
    encode_job,
    encode_result,
)
from repro.experiments.sweep.distributed.worker import run_worker

__all__ = [
    "DIST_PROTOCOL_VERSION",
    "DistributedBackend",
    "Lease",
    "LeaseBoard",
    "WireError",
    "decode_job",
    "encode_job",
    "encode_result",
    "run_worker",
]
