"""Typed readers for the on-disk documents the repository reads back.

Each reader returns a typed value and raises
:class:`~repro.errors.DocumentError` on anything missing, corrupt, or
failing its schema gate:

====================================  =======================================
reader                                format
====================================  =======================================
:meth:`ManifestDocument.load`         JSONL sweep manifests (header + result
                                      lines, crash-tolerant trailing line)
:func:`load_bench_report`             ``BENCH_*.json`` perf reports
====================================  =======================================

The writers stay with their subsystems (manifests in
:mod:`repro.experiments.sweep.manifest`, whose ``SweepManifest`` extends
:class:`ManifestDocument` with the writer; reports in
:mod:`repro.perf.report`).  What lives here is the *read side*, so a
rule like the manifest trailing-line tolerance exists in one place and
every consumer — the sweep runner's ``--resume``, ``merge-shards``, the
tracking API — reads through it.  This module deliberately imports
nothing from the layers it serves; shared format constants therefore
live here and are re-exported by their historical homes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import DocumentError
from repro.store.io import canonical_digest, decode_jsonl_line
from repro.utils.fileio import read_json_document

#: Sweep-manifest layout version (re-exported by ``...sweep.manifest``).
MANIFEST_VERSION = 1

#: Filename suffix of sweep manifests (re-exported by ``...sweep.manifest``).
MANIFEST_SUFFIX = ".manifest.jsonl"

#: Perf-report format identifier (re-exported by :mod:`repro.perf.report`).
BENCH_SCHEMA = "repro-perf/1"


def grid_digest(grid: Sequence[Tuple[str, str]]) -> str:
    """Content digest of a grid: its sorted ``(key, fingerprint)`` pairs."""
    return canonical_digest(sorted(grid))


# ----------------------------------------------------------------------
# Sweep manifests
# ----------------------------------------------------------------------
class ShardPair(NamedTuple):
    """The ``(index, count)`` pair a shard manifest's header records."""

    index: int
    count: int


@dataclass
class ManifestDocument:
    """The content of one sweep-manifest file.

    Every consumer that reads manifests (``merge-shards`` discovery, the
    tracking API, resume verification) parses through :meth:`load`;
    ``SweepManifest`` adds only the writer.
    """

    #: The file the document was read from (or is written to).
    path: Path
    #: Name of the sweep spec the manifest records.
    spec_name: str
    #: ``(key, fingerprint)`` pairs in grid order.
    grid: List[Tuple[str, str]] = field(default_factory=list)
    #: ``(index, count)`` of the shard, or ``None`` for a whole grid.
    shard: Optional[ShardPair] = None
    #: The ``grid_digest`` value the header recorded at write time.
    recorded_grid_digest: Optional[str] = None
    #: fingerprint -> payload digest for every recorded completion.
    completed: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ManifestDocument":
        """Parse a sweep manifest into an instance of ``cls``.

        A truncated final line is tolerated: this is the one
        implementation of the manifest crash-tolerance rule.  Result lines are appended and flushed as jobs complete, so
        a killed sweep can at worst truncate the final line, and a line
        that does not decode is skipped rather than failing the file (see
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
                ShardPair(int(raw_shard["index"]), int(raw_shard["count"]))
                if raw_shard
                else None
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
        return cls(
            path=path,
            spec_name=spec_name,
            grid=grid,
            shard=shard,
            recorded_grid_digest=str(recorded) if recorded is not None else None,
            completed=completed,
        )

    @property
    def grid_digest(self) -> str:
        """Content digest recomputed from the grid (order-invariant)."""
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

    def progress(self) -> Dict[str, int]:
        """Completion counters: total, completed, pending jobs."""
        pending = len(self.pending())
        return {
            "total": len(self.grid),
            "completed": len(self.grid) - pending,
            "pending": pending,
        }


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


__all__ = [
    "BENCH_SCHEMA",
    "MANIFEST_SUFFIX",
    "MANIFEST_VERSION",
    "ManifestDocument",
    "ShardPair",
    "grid_digest",
    "load_bench_report",
]
