"""Parallel sweep orchestration for the experiment harnesses.

The subsystem has five layers plus a CLI:

* :mod:`repro.experiments.sweep.sweep` — declarative :class:`SweepSpec` /
  :class:`Job` grids with stable fingerprints and per-job RNG derivation;
* :mod:`repro.experiments.sweep.backends` — the serial reference and
  the process pool (:class:`BatchBackend`, one lease of jobs per
  round-trip) behind one incremental-completion
  :class:`ExecutionBackend` contract;
* :mod:`repro.experiments.sweep.distributed` — the coordinator/worker
  execution layer (:class:`DistributedBackend`) serving work leases over
  HTTP to pull workers on other hosts;
* :mod:`repro.experiments.sweep.config` — :class:`RunConfig`, the one
  frozen description of how a sweep executes, shared by the
  programmatic API and every CLI front end;
* :mod:`repro.experiments.sweep.pool` — :class:`SweepRunner`, which
  orchestrates cache, manifest, shard, and backend for each spec;
* :mod:`repro.experiments.sweep.cache` — :class:`ResultCache`, an on-disk
  JSON store keyed by job fingerprints;
* :mod:`repro.experiments.sweep.manifest` / ``shard`` / ``merge`` —
  checkpointed sweep manifests, deterministic fingerprint sharding, and
  the validated ``merge-shards`` fusion they enable;
* :mod:`repro.experiments.sweep.cli` — ``python -m repro.experiments`` to
  run any figure by name with ``--workers`` / ``--cache-dir`` /
  ``--resume`` / ``--shard``, plus the ``merge-shards`` subcommand.
"""

from repro import lazy_exports
from repro.experiments.sweep.backends import (
    BACKEND_NAMES,
    BACKENDS,
    BatchBackend,
    ExecutionBackend,
    create_backend,
)
from repro.experiments.sweep.cache import ResultCache
from repro.experiments.sweep.config import RunConfig, add_runner_arguments
from repro.experiments.sweep.manifest import SweepManifest, grid_digest, payload_digest
from repro.experiments.sweep.merge import MergeReport, discover_shard_manifests, merge_shards
from repro.experiments.sweep.pool import (
    SweepResult,
    SweepRunner,
    autodetect_workers,
    run_spec,
)
from repro.experiments.sweep.shard import (
    ShardIncompleteError,
    ShardSpec,
    lease_partition,
)
from repro.experiments.sweep.sweep import Job, SweepSpec, canonicalize

__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "BatchBackend",
    "DistributedBackend",
    "ExecutionBackend",
    "Job",
    "MergeReport",
    "ResultCache",
    "RunConfig",
    "ShardIncompleteError",
    "ShardSpec",
    "SweepManifest",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "add_runner_arguments",
    "autodetect_workers",
    "canonicalize",
    "create_backend",
    "discover_shard_manifests",
    "grid_digest",
    "lease_partition",
    "merge_shards",
    "payload_digest",
    "run_spec",
]

# The coordinator and its workers speak HTTP (asyncio, ssl, http.client,
# repro.net); a serial or pool sweep never does, so they load on first use.
__getattr__ = lazy_exports(
    globals(),
    {
        "DistributedBackend": "repro.experiments.sweep.distributed",
        "run_worker": "repro.experiments.sweep.distributed",
    },
)
