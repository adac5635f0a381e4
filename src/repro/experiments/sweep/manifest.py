"""Checkpointed sweep manifests: on-disk progress records for one grid.

A manifest is a JSON-lines file describing one run of one
:class:`~repro.experiments.sweep.sweep.SweepSpec` (optionally one shard of
it).  The first line is a header carrying the sweep's identity; every
following line records one completed job::

    {"kind": "header", "version": 1, "spec": "socs", "grid_digest": "…",
     "shard": {"index": 2, "count": 3} | null,
     "jobs": [{"key": "SoC1", "fingerprint": "…"}, …]}
    {"kind": "result", "fingerprint": "…", "key": "SoC1", "digest": "…"}

``grid_digest`` identifies the grid *content* — the sorted set of job
fingerprints — so it is invariant under job order, and ``digest`` is the
SHA-256 of the job's canonical JSON payload (the byte-identity the resume
and merge checks compare).  Result lines are appended and flushed as jobs
complete, which makes the file crash-tolerant by construction: killing a
sweep can at worst truncate the final line, and :meth:`SweepManifest.load`
ignores a trailing partial record.  Payloads themselves live in the
:class:`~repro.experiments.sweep.cache.ResultCache`; the manifest holds
only their digests, so resuming can verify that a cached payload is the
exact bytes the interrupted run produced.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import SweepError
from repro.experiments.sweep.shard import ShardSpec
from repro.experiments.sweep.sweep import Job, SweepSpec
from repro.store.io import canonical_digest
from repro.store.readers import (
    MANIFEST_SUFFIX,
    MANIFEST_VERSION,
    ManifestDocument,
    ShardPair,
    grid_digest,
)


def payload_digest(payload: Dict[str, object]) -> str:
    """SHA-256 of the canonical JSON rendering of a job payload.

    Delegates to :func:`repro.store.io.canonical_digest` — the one
    content-digest implementation — so equal digests always mean
    byte-identical cached payloads.
    """
    return canonical_digest(payload)


class SweepManifest(ManifestDocument):
    """Progress record of one (possibly sharded) run of one sweep grid.

    The parsed document — :meth:`load`, the grid digest, progress — is
    :class:`~repro.store.readers.ManifestDocument`; this class adds the
    writer: :meth:`open` creates (or, resuming, rewrites) the file at its
    canonical location and :meth:`mark_done` appends one completion
    record per job.
    """

    @staticmethod
    def path_for(
        directory: Union[str, Path], spec: SweepSpec, shard: Optional[ShardSpec] = None
    ) -> Path:
        """Canonical manifest location for ``spec`` (and shard) in ``directory``."""
        grid = [(job.key, job.fingerprint()) for job in spec.jobs]
        return SweepManifest.grid_path(directory, spec.name, grid_digest(grid), shard)

    @staticmethod
    def grid_path(
        directory: Union[str, Path],
        spec_name: str,
        digest: str,
        shard: Union[ShardSpec, ShardPair, None] = None,
    ) -> Path:
        """Canonical location of a manifest of the grid with ``digest``.

        The name embeds the spec name (made filesystem-safe) and the grid
        digest, so two grids that share a spec name (for example quick
        vs. ``--full`` scales) never collide, and each shard of a grid
        gets its own file.
        """
        stem = f"{re.sub(r'[^A-Za-z0-9._-]+', '_', spec_name)}-{digest[:12]}"
        if shard is not None:
            stem += f".shard{shard.index}of{shard.count}"
        return Path(directory) / f"{stem}{MANIFEST_SUFFIX}"

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        spec: SweepSpec,
        shard: Optional[ShardSpec] = None,
        resume: bool = False,
    ) -> "SweepManifest":
        """Create (or, with ``resume``, reload) the manifest for ``spec``.

        Without ``resume`` any existing file is truncated and a fresh
        header written.  With ``resume``, an existing manifest for the
        same grid is reloaded and its completion records kept; a manifest
        whose grid digest differs (the spec changed since the interrupted
        run) raises :class:`~repro.errors.SweepError` rather than silently
        mixing two grids.  The reloaded file is rewritten in one pass so
        any truncated trailing record from a crash is dropped on disk too.
        """
        grid = [(job.key, job.fingerprint()) for job in spec.jobs]
        path = cls.path_for(directory, spec, shard)
        completed: Dict[str, str] = {}
        if resume and path.exists():
            previous = cls.load(path)
            if previous.grid_digest != grid_digest(grid):
                raise SweepError(
                    f"cannot resume sweep {spec.name!r}: manifest {path} records a "
                    "different grid (the spec changed since the interrupted run); "
                    "delete the manifest or rerun without --resume"
                )
            valid = {fingerprint for _, fingerprint in grid}
            completed = {
                fingerprint: digest
                for fingerprint, digest in previous.completed.items()
                if fingerprint in valid
            }
        pair = ShardPair(shard.index, shard.count) if shard is not None else None
        manifest = cls(path, spec.name, grid, pair, completed=completed)
        manifest._rewrite()
        return manifest

    def mark_done(self, job: Job, payload: Dict[str, object]) -> str:
        """Record ``job`` as complete; append-and-flush, return the digest."""
        digest = payload_digest(payload)
        fingerprint = job.fingerprint()
        if self.completed.get(fingerprint) == digest:
            return digest
        self.completed[fingerprint] = digest
        record = {
            "kind": "result",
            "fingerprint": fingerprint,
            "key": job.key,
            "digest": digest,
        }
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return digest

    def _rewrite(self) -> None:
        """Write the whole manifest (header + known completions) afresh."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SweepError(
                f"cannot create the manifest directory {self.path.parent}: "
                f"{exc.strerror or exc}"
            ) from exc
        header = {
            "kind": "header",
            "version": MANIFEST_VERSION,
            "spec": self.spec_name,
            "grid_digest": self.grid_digest,
            "shard": (
                {"index": self.shard.index, "count": self.shard.count}
                if self.shard is not None
                else None
            ),
            "jobs": [
                {"key": key, "fingerprint": fingerprint}
                for key, fingerprint in self.grid
            ],
        }
        keys = self.keys_by_fingerprint
        lines = [json.dumps(header, sort_keys=True)]
        for key, fingerprint in self.grid:
            digest = self.completed.get(fingerprint)
            if digest is not None:
                lines.append(
                    json.dumps(
                        {
                            "kind": "result",
                            "fingerprint": fingerprint,
                            "key": keys[fingerprint],
                            "digest": digest,
                        },
                        sort_keys=True,
                    )
                )
        self.path.write_text("\n".join(lines) + "\n")
