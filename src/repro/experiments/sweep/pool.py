"""The sweep runner: cache, manifest, shard, and backend orchestration.

:class:`SweepRunner` executes a :class:`~repro.experiments.sweep.sweep.SweepSpec`
through a pluggable :class:`~repro.experiments.sweep.backends.ExecutionBackend`
(serial, process pool, thread pool, batched dispatch, or the distributed
coordinator — see :mod:`repro.experiments.sweep.backends` and
:mod:`repro.experiments.sweep.distributed`), configured by one frozen
:class:`~repro.experiments.sweep.config.RunConfig`.  Because every job
derives its
randomness from its own fingerprint, results are bit-identical regardless
of backend, worker count, or completion order; the runner re-orders
payloads into grid order before returning them.

Around the backend the runner layers three persistence concerns, all owned
by the calling process (workers never touch disk):

* **cache** — payloads keyed by job fingerprint, written the moment each
  job completes, so an interrupted sweep loses at most in-flight jobs;
* **manifest** — a per-sweep checkpoint file recording the grid and a
  digest per completed payload (:mod:`repro.experiments.sweep.manifest`);
  with ``resume=True`` the runner skips jobs the manifest records, after
  verifying the cached payload still matches the recorded digest;
* **shard** — a :class:`~repro.experiments.sweep.shard.ShardSpec`
  restricts execution to the grid slice the shard owns; payloads the
  shard neither owns nor finds in the cache are *missing*, and reading
  one from the result raises
  :class:`~repro.experiments.sweep.shard.ShardIncompleteError`.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union
from warnings import warn

from repro.errors import SweepError
from repro.experiments.sweep.backends import ExecutionBackend, create_backend
from repro.experiments.sweep.cache import ResultCache
from repro.experiments.sweep.config import RunConfig, autodetect_workers
from repro.experiments.sweep.manifest import SweepManifest, payload_digest
from repro.experiments.sweep.shard import ShardIncompleteError, ShardSpec
from repro.experiments.sweep.sweep import Job, SweepSpec

@dataclass
class SweepResult:
    """Payloads of one sweep run, in grid order, plus execution statistics."""

    spec_name: str
    payloads: "OrderedDict[str, Dict[str, object]]" = field(default_factory=OrderedDict)
    cache_hits: int = 0
    executed: int = 0
    workers_used: int = 1
    #: Jobs skipped because a resumed manifest recorded them complete (and
    #: the cached payload matched the recorded digest).
    resumed: int = 0
    #: Keys of jobs this (sharded) run neither owned nor found cached, in
    #: grid order.  Empty for unsharded runs.
    missing: Tuple[str, ...] = ()
    #: The shard this result covers, or ``None`` for a full run.
    shard: Optional[ShardSpec] = None

    def __getitem__(self, key: str) -> Dict[str, object]:
        try:
            return self.payloads[key]
        except KeyError:
            if key in self.missing:
                raise ShardIncompleteError(
                    f"sweep {self.spec_name!r}: job {key!r} belongs to another "
                    f"shard (this run covered shard {self.shard.label}); fuse "
                    "the shards with 'merge-shards' or run without --shard"
                    if self.shard is not None
                    else f"sweep {self.spec_name!r}: job {key!r} was not executed"
                ) from None
            raise

    def __len__(self) -> int:
        return len(self.payloads)

    def __iter__(self) -> Iterator[str]:
        return iter(self.payloads)

    def items(self):
        """``(key, payload)`` pairs in grid order."""
        return self.payloads.items()

    @property
    def complete(self) -> bool:
        """Whether every job of the grid has a payload in this result."""
        return not self.missing


def run_spec(spec: SweepSpec, runner: Optional["SweepRunner"] = None) -> SweepResult:
    """Run ``spec`` on ``runner``, defaulting to a serial in-process runner.

    This is the one idiom every experiment harness uses to dispatch its
    grid: ``runner=None`` (the harness default) means serial execution with
    no cache or manifest, which is also safe inside sweep workers (no
    nested pools).
    """
    return (runner if runner is not None else SweepRunner(config=RunConfig())).run(spec)


class SweepRunner:
    """Executes sweep specs through a backend, a cache, and a manifest.

    The runner is configured by one frozen :class:`RunConfig`::

        SweepRunner(config=RunConfig(workers=4, cache=cache, resume=True,
                                     manifest_dir=manifest_dir))

    See :class:`~repro.experiments.sweep.config.RunConfig` for the
    meaning of each field.  The configuration stays readable through the
    ``workers``/``cache``/``backend``/``manifest_dir``/``resume``/
    ``shard``/``jobs_per_lease`` properties.
    """

    def __init__(self, config: Optional[RunConfig] = None) -> None:
        if config is None:
            config = RunConfig()
        if not isinstance(config, RunConfig):
            raise SweepError(
                f"config must be a RunConfig, got {type(config).__name__}"
            )
        self.config = config

    # -- read-only views of the frozen configuration -------------------
    @property
    def workers(self) -> Optional[int]:
        """Requested parallelism (``None`` = autodetect)."""
        return self.config.workers

    @property
    def cache(self) -> Optional[ResultCache]:
        """The result cache, or ``None`` when caching is disabled."""
        return self.config.cache

    @property
    def backend(self) -> Union[str, ExecutionBackend, None]:
        """The configured backend name/instance (``None`` = default policy)."""
        return self.config.backend

    @property
    def manifest_dir(self) -> Union[str, os.PathLike, None]:
        """Directory of the per-sweep checkpoint manifests, if any."""
        return self.config.manifest_dir

    @property
    def resume(self) -> bool:
        """Whether completed manifest entries are skipped on re-run."""
        return self.config.resume

    @property
    def shard(self) -> Optional[ShardSpec]:
        """The grid slice this runner executes, or ``None`` for all of it."""
        return self.config.shard

    @property
    def jobs_per_lease(self) -> Optional[int]:
        """Lease granularity for batching backends (``None`` = default)."""
        return self.config.jobs_per_lease

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute ``spec`` and return its payloads in grid order.

        Jobs are satisfied, in priority order, by: a resumed manifest
        record (digest-verified against the cache), a cache hit, or
        execution on the backend.  With a shard, only owned jobs execute;
        cache hits still fill in foreign jobs when available.
        """
        # One rendering pass fingerprints the whole grid; every later
        # fingerprint() call below reads the job's memoized digest.
        fingerprints = spec.fingerprints()
        manifest: Optional[SweepManifest] = None
        if self.manifest_dir is not None:
            manifest = SweepManifest.open(
                self.manifest_dir, spec, shard=self.shard, resume=self.resume
            )

        payloads: Dict[str, Dict[str, object]] = {}
        cache_hits = resumed = 0
        pending: List[Job] = []
        for job, fingerprint in zip(spec.jobs, fingerprints):
            cached = self.cache.get(fingerprint) if self.cache is not None else None
            if manifest is not None and self.resume:
                recorded = manifest.completed.get(fingerprint)
                if recorded is not None:
                    if cached is not None and payload_digest(cached) == recorded:
                        payloads[job.key] = cached
                        resumed += 1
                        continue
                    warn(
                        f"sweep {spec.name}: resumed manifest records job "
                        f"{job.key!r} complete but the cached payload is "
                        "missing or stale; re-executing it",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    # The cached bytes failed digest verification — never
                    # serve them through the plain cache-hit path below.
                    cached = None
            if cached is not None:
                payloads[job.key] = cached
                cache_hits += 1
                if manifest is not None:
                    manifest.mark_done(job, cached)
                continue
            if self.shard is None or self.shard.owns(fingerprint):
                pending.append(job)

        workers_used = 1
        if pending:
            workers = self.workers if self.workers is not None else autodetect_workers()
            workers = max(1, min(workers, len(pending)))
            backend = create_backend(
                self.backend, workers, jobs_per_lease=self.jobs_per_lease
            )

            def on_result(job: Job, payload: Dict[str, object]) -> None:
                payloads[job.key] = payload
                if self.cache is not None:
                    self.cache.put(job.fingerprint(), job.key, payload)
                if manifest is not None:
                    manifest.mark_done(job, payload)

            workers_used = backend.run(pending, workers, on_result)

        ordered: "OrderedDict[str, Dict[str, object]]" = OrderedDict(
            (job.key, payloads[job.key])
            for job in spec.jobs
            if job.key in payloads
        )
        return SweepResult(
            spec_name=spec.name,
            payloads=ordered,
            cache_hits=cache_hits,
            executed=len(pending),
            workers_used=workers_used,
            resumed=resumed,
            missing=tuple(key for key in spec.keys() if key not in payloads),
            shard=self.shard,
        )
