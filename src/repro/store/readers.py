"""Typed readers for every on-disk document format the repository writes.

One reader per format, each returning a typed value and raising
:class:`~repro.errors.DocumentError` (or a subclass) on anything
missing, corrupt, or failing its digest gate:

==============================  =============================================
reader                          format
==============================  =============================================
:func:`load_sweep_manifest`     JSONL sweep manifests (header + result lines,
                                crash-tolerant trailing line)
:func:`load_cache_entry`        :class:`ResultCache` entry files
:func:`load_bench_report`       ``BENCH_*.json`` perf reports
:func:`load_model_artifact`     trained-policy artifacts (digest-gated)
:func:`load_transfer_matrix`    models x scenarios transfer matrices
==============================  =============================================

The writers stay where they are (manifests in
:mod:`repro.experiments.sweep.manifest`, artifacts in
:mod:`repro.models.artifact`, ...); what is unified here is the *read
side*, so a rule like the manifest trailing-line tolerance exists in one
place and every consumer — the sweep runner, ``merge-shards``, the
tracking API — reads through it.  This module deliberately imports
nothing from the layers it serves; shared format constants therefore
live here and are re-exported by their historical homes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import DocumentError
from repro.store.io import canonical_digest, decode_jsonl_line, read_document
from repro.utils.fileio import read_json_document

#: Sweep-manifest layout version (re-exported by ``...sweep.manifest``).
MANIFEST_VERSION = 1

#: Filename suffix of sweep manifests (re-exported by ``...sweep.manifest``).
MANIFEST_SUFFIX = ".manifest.jsonl"

#: Perf-report format identifier (re-exported by :mod:`repro.perf.report`).
BENCH_SCHEMA = "repro-perf/1"

#: Transfer-matrix format marker (re-exported by ``repro.models.transfer``).
MATRIX_FORMAT = "cohmeleon-transfer-matrix"

#: Transfer-matrix layout version (re-exported by ``repro.models.transfer``).
MATRIX_VERSION = 1


def grid_digest(grid: Sequence[Tuple[str, str]]) -> str:
    """Content digest of a grid: its sorted ``(key, fingerprint)`` pairs."""
    return canonical_digest(sorted(grid))


# ----------------------------------------------------------------------
# Sweep manifests
# ----------------------------------------------------------------------
@dataclass
class ManifestDocument:
    """The parsed content of one sweep-manifest file.

    A plain value object — no appending, no rewriting — so every
    consumer that only *reads* manifests (``merge-shards`` discovery,
    the tracking API, resume verification) shares one parse.
    """

    #: The file the document was read from.
    path: Path
    #: Name of the sweep spec the manifest records.
    spec_name: str
    #: ``(key, fingerprint)`` pairs in grid order.
    grid: List[Tuple[str, str]] = field(default_factory=list)
    #: ``(index, count)`` of the shard, or ``None`` for a whole grid.
    shard: Optional[Tuple[int, int]] = None
    #: The ``grid_digest`` value the header recorded at write time.
    recorded_grid_digest: Optional[str] = None
    #: fingerprint -> payload digest for every recorded completion.
    completed: Dict[str, str] = field(default_factory=dict)

    @property
    def grid_digest(self) -> str:
        """Content digest recomputed from the grid (order-invariant)."""
        return grid_digest(self.grid)

    def progress(self) -> Dict[str, int]:
        """Completion counters: total, completed, pending jobs."""
        done = sum(
            1 for _, fingerprint in self.grid if fingerprint in self.completed
        )
        return {
            "total": len(self.grid),
            "completed": done,
            "pending": len(self.grid) - done,
        }


def load_sweep_manifest(path: Union[str, Path]) -> ManifestDocument:
    """Parse a sweep manifest, tolerating a truncated final line.

    This is the one implementation of the manifest crash-tolerance rule:
    result lines are appended and flushed as jobs complete, so a killed
    sweep can at worst truncate the final line, and a line that does not
    decode is skipped rather than failing the file (see
    :func:`repro.store.io.decode_jsonl_line`).  Structural failures —
    an empty file, a missing or malformed header, an incompatible
    version — raise :class:`~repro.errors.DocumentError`.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DocumentError(f"cannot read manifest {path}: {exc}") from exc
    if not lines:
        raise DocumentError(f"manifest {path} is empty")
    header = decode_jsonl_line(lines[0])
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise DocumentError(f"manifest {path} does not start with a header line")
    if header.get("version") != MANIFEST_VERSION:
        raise DocumentError(
            f"manifest {path} has version {header.get('version')!r}; "
            f"this build reads version {MANIFEST_VERSION}"
        )
    try:
        grid = [(entry["key"], entry["fingerprint"]) for entry in header["jobs"]]
        spec_name = str(header["spec"])
        raw_shard = header.get("shard")
        shard = (
            (int(raw_shard["index"]), int(raw_shard["count"])) if raw_shard else None
        )
    except (KeyError, TypeError) as exc:
        raise DocumentError(
            f"manifest {path} has a malformed header: {exc}"
        ) from exc
    recorded = header.get("grid_digest")
    completed: Dict[str, str] = {}
    for line in lines[1:]:
        record = decode_jsonl_line(line)
        if (
            isinstance(record, dict)
            and record.get("kind") == "result"
            and isinstance(record.get("fingerprint"), str)
            and isinstance(record.get("digest"), str)
        ):
            completed[record["fingerprint"]] = record["digest"]
    return ManifestDocument(
        path=path,
        spec_name=spec_name,
        grid=grid,
        shard=shard,
        recorded_grid_digest=str(recorded) if recorded is not None else None,
        completed=completed,
    )


# ----------------------------------------------------------------------
# Result-cache entries
# ----------------------------------------------------------------------
@dataclass
class CacheEntry:
    """One committed result-cache entry, digest-stamped."""

    #: The file the entry was read from.
    path: Path
    #: Job fingerprint the entry is addressed by.
    fingerprint: str
    #: Human-readable job key.
    key: str
    #: The cached payload document.
    payload: Dict[str, object] = field(default_factory=dict)
    #: Canonical content digest of the payload (recomputed on load).
    digest: str = ""


def load_cache_entry(path: Union[str, Path]) -> CacheEntry:
    """Read one result-cache entry file, strictly.

    Unlike :meth:`ResultCache.get` — which treats a corrupt entry as a
    miss so the job simply re-executes — this reader is for consumers
    that must *account* for the entry (merging, tracking): every failure
    raises :class:`~repro.errors.DocumentError`.  The returned entry
    carries the recomputed canonical digest of its payload.
    """
    path = Path(path)
    entry = read_document(path)
    if not isinstance(entry, dict) or not isinstance(entry.get("payload"), dict):
        raise DocumentError(f"cache entry {path} is malformed (no payload object)")
    fingerprint = str(entry.get("fingerprint", ""))
    if not fingerprint:
        raise DocumentError(f"cache entry {path} records no fingerprint")
    if fingerprint != path.stem:
        raise DocumentError(
            f"cache entry {path} records fingerprint {fingerprint[:12]}…, "
            "which does not match its filename"
        )
    payload: Dict[str, object] = entry["payload"]
    return CacheEntry(
        path=path,
        fingerprint=fingerprint,
        key=str(entry.get("key", "")),
        payload=payload,
        digest=canonical_digest(payload),
    )


# ----------------------------------------------------------------------
# BENCH perf reports
# ----------------------------------------------------------------------
def load_bench_report(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate one ``BENCH_*.json`` perf report.

    The schema gate matches :func:`repro.perf.report.load_report` (which
    delegates here): the document must be an object carrying
    ``schema == "repro-perf/1"`` and a ``benchmarks`` section.
    """
    path = Path(path)
    try:
        report = read_json_document(path)
    except FileNotFoundError:
        raise DocumentError(f"perf report {path} does not exist") from None
    except OSError as exc:
        raise DocumentError(f"cannot read perf report {path}: {exc}") from exc
    except ValueError as error:
        raise DocumentError(
            f"perf report {path} is not valid JSON: {error}"
        ) from None
    if not isinstance(report, dict) or report.get("schema") != BENCH_SCHEMA:
        raise DocumentError(
            f"perf report {path} does not carry schema {BENCH_SCHEMA!r}"
        )
    if not isinstance(report.get("benchmarks"), dict):
        raise DocumentError(f"perf report {path} has no benchmarks section")
    return report


# ----------------------------------------------------------------------
# Trained-policy artifacts
# ----------------------------------------------------------------------
def load_model_artifact(
    path: Union[str, Path], expected_digest: Optional[str] = None
):
    """Read, parse, and digest-verify one trained-policy artifact.

    Delegates to :func:`repro.models.artifact.load_artifact`; every
    failure raises :class:`~repro.errors.ModelError`, which *is* a
    :class:`~repro.errors.DocumentError`, so store consumers need only
    the common base.  Imported lazily so reading manifests or reports
    never pays for the models stack.
    """
    from repro.models.artifact import load_artifact

    return load_artifact(path, expected_digest=expected_digest)


# ----------------------------------------------------------------------
# Transfer matrices
# ----------------------------------------------------------------------
def load_transfer_matrix(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate one transfer-matrix document.

    The matrix writer (``repro.models.transfer.TransferMatrix``) had no
    matching reader before this module; the tracking API and tests read
    matrices through this gate: format marker, layout version, and the
    presence of the ``cells`` list are all checked.
    """
    path = Path(path)
    document = read_document(path)
    if not isinstance(document, dict):
        raise DocumentError(f"{path}: transfer matrix must be a JSON object")
    if document.get("format") != MATRIX_FORMAT:
        raise DocumentError(
            f"{path}: not a transfer matrix "
            f"(format {document.get('format')!r}, expected {MATRIX_FORMAT!r})"
        )
    if document.get("version") != MATRIX_VERSION:
        raise DocumentError(
            f"{path}: transfer-matrix layout version "
            f"{document.get('version')!r} is not supported "
            f"(this build reads version {MATRIX_VERSION})"
        )
    if not isinstance(document.get("cells"), list):
        raise DocumentError(f"{path}: transfer matrix has no cells list")
    return document


__all__ = [
    "BENCH_SCHEMA",
    "CacheEntry",
    "MANIFEST_SUFFIX",
    "MANIFEST_VERSION",
    "MATRIX_FORMAT",
    "MATRIX_VERSION",
    "ManifestDocument",
    "grid_digest",
    "load_bench_report",
    "load_cache_entry",
    "load_model_artifact",
    "load_sweep_manifest",
    "load_transfer_matrix",
]
