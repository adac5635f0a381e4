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
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import DocumentError, SweepError
from repro.experiments.sweep.shard import ShardSpec
from repro.experiments.sweep.sweep import Job, SweepSpec
from repro.store.io import canonical_digest
from repro.store.readers import (
    MANIFEST_SUFFIX,
    MANIFEST_VERSION,
    grid_digest,
    load_sweep_manifest,
)


def payload_digest(payload: Dict[str, object]) -> str:
    """SHA-256 of the canonical JSON rendering of a job payload.

    Delegates to :func:`repro.store.io.canonical_digest` — the one
    content-digest implementation — so equal digests always mean
    byte-identical cached payloads.
    """
    return canonical_digest(payload)


def _safe_name(name: str) -> str:
    """Render a spec name as a filesystem-safe fragment."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


class SweepManifest:
    """Progress record of one (possibly sharded) run of one sweep grid.

    Instances are either *attached* (created by :meth:`open`, with a file
    they append to as jobs complete) or *loaded* (created by :meth:`load`
    for inspection and merging, read-only).
    """

    def __init__(
        self,
        path: Path,
        spec_name: str,
        grid: List[Tuple[str, str]],
        shard: Optional[ShardSpec],
        completed: Optional[Dict[str, str]] = None,
    ) -> None:
        self.path = path
        self.spec_name = spec_name
        #: ``(key, fingerprint)`` pairs in grid order.
        self.grid = grid
        self.shard = shard
        #: fingerprint -> payload digest for every recorded completion.
        self.completed: Dict[str, str] = dict(completed or {})

    # ------------------------------------------------------------------
    @property
    def grid_digest(self) -> str:
        """Content digest of this manifest's grid."""
        return grid_digest(self.grid)

    @property
    def keys_by_fingerprint(self) -> Dict[str, str]:
        """Mapping of fingerprint -> job key for the whole grid."""
        return {fingerprint: key for key, fingerprint in self.grid}

    def pending(self) -> List[Tuple[str, str]]:
        """Grid entries with no completion record yet, in grid order."""
        return [
            (key, fingerprint)
            for key, fingerprint in self.grid
            if fingerprint not in self.completed
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def path_for(
        directory: Union[str, Path], spec: SweepSpec, shard: Optional[ShardSpec] = None
    ) -> Path:
        """Canonical manifest location for ``spec`` (and shard) in ``directory``.

        The name embeds the grid digest, so two grids that share a spec
        name (for example quick vs. ``--full`` scales) never collide, and
        each shard of a grid gets its own file.
        """
        jobs = [(job.key, job.fingerprint()) for job in spec.jobs]
        stem = f"{_safe_name(spec.name)}-{grid_digest(jobs)[:12]}"
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
        manifest = cls(path, spec.name, grid, shard, completed)
        manifest._rewrite()
        return manifest

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepManifest":
        """Parse a manifest file, tolerating a truncated final line.

        The parse itself — including the crash-tolerance rule for a
        truncated trailing record — lives in
        :func:`repro.store.readers.load_sweep_manifest`, shared with
        every other manifest consumer; this wrapper only rehydrates the
        attachable class and maps failures to the sweep domain.
        """
        try:
            document = load_sweep_manifest(path)
        except DocumentError as exc:
            raise SweepError(str(exc)) from exc
        shard = (
            ShardSpec(index=document.shard[0], count=document.shard[1])
            if document.shard is not None
            else None
        )
        return cls(
            document.path,
            document.spec_name,
            document.grid,
            shard,
            document.completed,
        )

    # ------------------------------------------------------------------
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

    def _header_document(self) -> Dict[str, object]:
        return {
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

    def _rewrite(self) -> None:
        """Write the whole manifest (header + known completions) afresh."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SweepError(
                f"cannot create the manifest directory {self.path.parent}: "
                f"{exc.strerror or exc}"
            ) from exc
        keys = self.keys_by_fingerprint
        lines = [json.dumps(self._header_document(), sort_keys=True)]
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SweepManifest({self.spec_name!r}, {len(self.completed)}/"
            f"{len(self.grid)} done, shard={self.shard})"
        )
