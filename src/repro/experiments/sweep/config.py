"""The unified run configuration behind every sweep-runner entry point.

:class:`RunConfig` is the one object that describes *how* a sweep
executes — parallelism, backend, cache, manifest, resume, shard, and
lease granularity — separated from *what* executes (the
:class:`~repro.experiments.sweep.sweep.SweepSpec`).  Before this module
existed the same six keyword arguments were re-plumbed through four CLI
front ends and :class:`~repro.experiments.sweep.pool.SweepRunner`
individually, and each front end exposed a slightly different subset of
flags.  Now there is exactly one source of truth, used three ways:

* ``SweepRunner(config=RunConfig(...))`` — the programmatic API, and the
  only way to configure a runner;
* :func:`add_runner_arguments` — registers the shared CLI flag set
  (``--workers/--cache-dir/--no-cache/--manifest-dir/--resume/--shard/
  --jobs-per-lease``) on any argparse parser, so
  ``python -m repro.experiments``, ``python -m repro.scenarios run``,
  ``python -m repro.models train/eval``, and the distributed
  ``worker``/``coordinate`` subcommands behave identically;
* :meth:`RunConfig.from_args` — turns the parsed namespace back into a
  validated config, applying the same defaulting rules everywhere
  (autodetected workers, ``<cache-dir>/manifests``).

Validation lives in ``__post_init__`` so a bad combination fails at
construction time with the same :class:`~repro.errors.SweepError`
messages the runner has always raised.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.cli import positive_int
from repro.errors import SweepError
from repro.experiments.sweep.cache import ResultCache
from repro.experiments.sweep.shard import ShardSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pool -> config)
    from repro.experiments.sweep.backends import ExecutionBackend


def autodetect_workers() -> int:
    """Number of workers to use when none is specified: one per CPU."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class RunConfig:
    """Frozen description of how a sweep executes.

    Parameters
    ----------
    workers:
        Requested parallelism; ``None`` autodetects one worker per CPU,
        ``1`` runs serially.
    cache:
        Optional :class:`ResultCache`; payloads are looked up before
        execution and written as each job completes.
    backend:
        ``None`` (the process pool when ``workers > 1``, else serial), a
        registered backend name (see
        :data:`~repro.experiments.sweep.backends.BACKEND_NAMES`), or an
        :class:`~repro.experiments.sweep.backends.ExecutionBackend`
        instance (for example a configured
        :class:`~repro.experiments.sweep.distributed.DistributedBackend`).
    manifest_dir:
        Directory for per-sweep checkpoint manifests; ``None`` disables
        manifests (and therefore ``resume``).
    resume:
        Reload an existing manifest and skip its completed jobs after
        digest-verifying their cached payloads.  Requires ``cache`` and
        ``manifest_dir``.
    shard:
        Execute only the grid slice this :class:`ShardSpec` owns.
    jobs_per_lease:
        Lease granularity for the process pool and the distributed
        backend: how many jobs travel per worker round-trip.  ``None``
        lets each backend pick its own default; serial ignores it.
    """

    workers: Optional[int] = 1
    cache: Optional[ResultCache] = None
    backend: Union[str, "ExecutionBackend", None] = None
    manifest_dir: Union[str, os.PathLike, None] = None
    resume: bool = False
    shard: Optional[ShardSpec] = None
    jobs_per_lease: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise SweepError(f"workers must be >= 1, got {self.workers}")
        if self.resume and self.manifest_dir is None:
            raise SweepError("resume requires a manifest_dir")
        if self.resume and self.cache is None:
            raise SweepError(
                "resume requires a cache (manifests record digests, payloads "
                "live in the result cache)"
            )
        if self.jobs_per_lease is not None and self.jobs_per_lease < 1:
            raise SweepError(
                f"jobs_per_lease must be >= 1, got {self.jobs_per_lease}"
            )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        """Build a validated config from :func:`add_runner_arguments` flags.

        Applies the shared defaulting rules: ``--workers`` falls back to
        one worker per CPU, and the manifest directory falls back to
        ``<cache-dir>/manifests`` whenever the cache is enabled.  The
        backend is left to the runner's default policy, which the worker
        count decides.  Flags a particular parser chose not to register
        are treated as their defaults, so every front end can share this
        one constructor.
        """
        no_cache = bool(getattr(args, "no_cache", False))
        cache_dir = getattr(args, "cache_dir", None)
        cache = None if (no_cache or cache_dir is None) else ResultCache(cache_dir)
        resume = bool(getattr(args, "resume", False))
        shard = getattr(args, "shard", None)
        if cache is None and (resume or shard is not None):
            raise SweepError(
                "--resume and --shard need the result cache; drop --no-cache"
            )
        manifest_dir = getattr(args, "manifest_dir", None)
        if manifest_dir is not None:
            manifest_dir = Path(manifest_dir)
        elif cache is not None:
            manifest_dir = Path(cache_dir) / "manifests"
        workers = getattr(args, "workers", None)
        return cls(
            workers=workers if workers is not None else autodetect_workers(),
            cache=cache,
            manifest_dir=manifest_dir,
            resume=resume,
            shard=shard,
            jobs_per_lease=getattr(args, "jobs_per_lease", None),
        )

    def with_backend(self, backend: Union[str, "ExecutionBackend", None]) -> "RunConfig":
        """Return a copy of this config pinned to ``backend``."""
        return replace(self, backend=backend)


def shard_arg(text: str) -> ShardSpec:
    """Parse ``--shard I/N``, mapping SweepError onto a clean usage error."""
    try:
        return ShardSpec.parse(text)
    except SweepError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def add_runner_arguments(
    parser: argparse.ArgumentParser,
    *,
    cache: bool = True,
    manifest: bool = True,
    shard: bool = True,
    lease: bool = True,
) -> None:
    """Register the shared sweep-runner flag set on ``parser``.

    This is the single source of the runner CLI surface: every front end
    (``repro.experiments``, ``repro.scenarios run/matrix``,
    ``repro.models train/eval``, and the distributed ``worker``/
    ``coordinate`` subcommands) calls this function, so the flags spell,
    default, and validate identically everywhere.  The keyword toggles
    let a front end drop a *group* of flags it cannot honour (the
    distributed worker, for example, never touches disk and therefore
    takes no cache/manifest/shard flags) without redefining the rest.
    """
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        metavar="N",
        help="worker processes (default: one per CPU; 1 = serial, "
        "more = a process pool)",
    )
    if cache:
        parser.add_argument(
            "--cache-dir",
            default=".sweep-cache",
            metavar="DIR",
            help="on-disk result cache location (default: %(default)s)",
        )
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the result cache entirely",
        )
    if manifest:
        parser.add_argument(
            "--manifest-dir",
            default=None,
            metavar="DIR",
            help="sweep manifest location (default: <cache-dir>/manifests)",
        )
        parser.add_argument(
            "--resume",
            action="store_true",
            help="skip jobs an existing manifest records complete "
            "(digest-verified against the cache)",
        )
    if shard:
        parser.add_argument(
            "--shard",
            type=shard_arg,
            default=None,
            metavar="I/N",
            help="execute only shard I of N (fingerprint-hash partition); "
            "fuse shards afterwards with the merge-shards subcommand",
        )
    if lease:
        parser.add_argument(
            "--jobs-per-lease",
            type=positive_int,
            default=None,
            metavar="N",
            help="jobs per lease for the process pool and the distributed "
            "backend (default: backend-specific)",
        )


__all__ = [
    "RunConfig",
    "add_runner_arguments",
    "autodetect_workers",
    "shard_arg",
]
