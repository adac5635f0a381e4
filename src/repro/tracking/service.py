"""The read side of the tracking API: documents in, summaries out.

:class:`TrackingService` points at the three places experiment state
lives on disk — a sweep-manifest directory, a model registry, and a
benchmark-results directory — and answers every tracking question by
*reading through* :mod:`repro.store`, never by keeping state of its
own.  That makes the service live by construction: a sweep appending
result lines to its manifest is visible on the next ``runs`` call, with
no notification channel and no staleness.

Every document the service returns carries ``document_sha256`` — the
SHA-256 of the underlying file's raw bytes — so a client (or the CI
tracking lane) can verify a served answer against the checkout
byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import DocumentError, ModelError, TrackingError
from repro.perf.compare import compare_reports
from repro.store.io import document_sha256
from repro.store.readers import (
    MANIFEST_SUFFIX,
    ManifestDocument,
    load_bench_report,
    load_sweep_manifest,
)
from repro.tracking.protocol import TRACKING_PROTOCOL_VERSION, TrackingRequestError

#: Allowed rate regression before a trajectory point is flagged (matches
#: the ``repro.perf compare`` CLI default).
DEFAULT_TOLERANCE = 0.2

#: Filename pattern of benchmark reports in the bench directory.
BENCH_GLOB = "BENCH_*.json"


def _run_id(path: Path) -> str:
    """The run identifier of a manifest file (its suffix-free name)."""
    return path.name[: -len(MANIFEST_SUFFIX)]


class TrackingService:
    """Read-only views over sweep runs, registered models, and BENCH files.

    Parameters
    ----------
    manifest_dir:
        Directory of ``*.manifest.jsonl`` sweep manifests (one per run
        or shard).  Required for :meth:`runs` / :meth:`run`.
    models_dir:
        Model-registry root (``.repro-models`` layout).  Required for
        :meth:`models` / :meth:`model`.
    bench_dir:
        Directory of ``BENCH_*.json`` reports.  Required for
        :meth:`bench`.
    tolerance:
        Allowed fractional rate drop before a benchmark with an embedded
        ``before`` report is flagged as a regression.
    """

    def __init__(
        self,
        manifest_dir: Optional[Union[str, Path]] = None,
        models_dir: Optional[Union[str, Path]] = None,
        bench_dir: Optional[Union[str, Path]] = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        self.manifest_dir = Path(manifest_dir) if manifest_dir is not None else None
        self.models_dir = Path(models_dir) if models_dir is not None else None
        self.bench_dir = Path(bench_dir) if bench_dir is not None else None
        self.tolerance = float(tolerance)

    # ------------------------------------------------------------------
    # Directory plumbing
    # ------------------------------------------------------------------
    def _require_dir(self, path: Optional[Path], what: str, flag: str) -> Path:
        """The configured ``what`` directory, or a clear error."""
        if path is None:
            raise TrackingError(f"no {what} directory configured (pass {flag})")
        if not path.is_dir():
            raise TrackingError(f"{what} directory {path} does not exist")
        return path

    def _manifest_paths(self) -> List[Path]:
        directory = self._require_dir(
            self.manifest_dir, "manifest", "--manifest-dir"
        )
        return sorted(directory.glob(f"*{MANIFEST_SUFFIX}"))

    # ------------------------------------------------------------------
    # Sweep runs
    # ------------------------------------------------------------------
    def runs(self) -> Dict[str, object]:
        """Summarise every sweep run (manifest) with live progress.

        Progress comes straight from the JSONL manifests, so a sweep
        that is still appending result lines shows its current counts;
        a manifest that fails to parse is reported as an entry carrying
        ``error`` rather than failing the whole listing.
        """
        entries: List[Dict[str, object]] = []
        for path in self._manifest_paths():
            entry: Dict[str, object] = {
                "id": _run_id(path),
                "file": path.name,
                "document_sha256": document_sha256(path),
            }
            try:
                document = load_sweep_manifest(path)
            except DocumentError as exc:
                entry["error"] = str(exc)
            else:
                entry.update(self._run_summary(document))
            entries.append(entry)
        return {"protocol": TRACKING_PROTOCOL_VERSION, "runs": entries}

    def run(self, run_id: str) -> Dict[str, object]:
        """Detail one run: summary plus its per-job completion records."""
        directory = self._require_dir(
            self.manifest_dir, "manifest", "--manifest-dir"
        )
        if not run_id or "/" in run_id or "\\" in run_id or ".." in run_id:
            raise TrackingRequestError(
                "invalid-request", f"invalid run id {run_id!r}"
            )
        path = directory / f"{run_id}{MANIFEST_SUFFIX}"
        if not path.is_file():
            raise TrackingRequestError("not-found", f"no run {run_id!r}")
        document = load_sweep_manifest(path)
        detail: Dict[str, object] = {
            "protocol": TRACKING_PROTOCOL_VERSION,
            "id": run_id,
            "file": path.name,
            "document_sha256": document_sha256(path),
        }
        detail.update(self._run_summary(document))
        detail["jobs"] = [
            {
                "key": key,
                "fingerprint": fingerprint,
                "done": fingerprint in document.completed,
                "digest": document.completed.get(fingerprint),
            }
            for key, fingerprint in document.grid
        ]
        return detail

    @staticmethod
    def _run_summary(document: ManifestDocument) -> Dict[str, object]:
        """The shared summary block of one parsed manifest."""
        return {
            "spec": document.spec_name,
            "shard": (
                {"index": document.shard[0], "count": document.shard[1]}
                if document.shard is not None
                else None
            ),
            "grid_digest": document.grid_digest,
            "recorded_grid_digest": document.recorded_grid_digest,
            "progress": document.progress(),
        }

    # ------------------------------------------------------------------
    # Model registry
    # ------------------------------------------------------------------
    def _registry(self):
        from repro.models.registry import ModelRegistry

        root = self._require_dir(self.models_dir, "models", "--models-dir")
        return ModelRegistry(root)

    def models(self) -> Dict[str, object]:
        """Summarise every registered model with its provenance.

        Each entry re-verifies the artifact's digest gate on read; an
        artifact that fails it is reported with ``error`` rather than
        failing the whole listing.
        """
        registry = self._registry()
        entries: List[Dict[str, object]] = []
        for name in registry.names():
            path = registry.path_for(name)
            entry: Dict[str, object] = {
                "name": name,
                "file": path.name,
                "document_sha256": document_sha256(path),
            }
            try:
                artifact = registry.load(name)
            except DocumentError as exc:
                entry["error"] = str(exc)
            else:
                entry["digest"] = artifact.digest
                entry["provenance"] = artifact.provenance
                entry["stats"] = artifact.stats
            entries.append(entry)
        return {"protocol": TRACKING_PROTOCOL_VERSION, "models": entries}

    def model(self, name: str) -> Dict[str, object]:
        """The full (digest-verified) artifact document of one model."""
        registry = self._registry()
        try:
            present = name in registry
        except ModelError as exc:
            # path_for rejects names that could escape the registry; that
            # is a bad request, not a bad document.
            raise TrackingRequestError("invalid-request", str(exc)) from exc
        if not present:
            available = ", ".join(registry.names()) or "none"
            raise TrackingRequestError(
                "not-found", f"no model named {name!r} (available: {available})"
            )
        path = registry.path_for(name)
        artifact = registry.load(name)
        return {
            "protocol": TRACKING_PROTOCOL_VERSION,
            "name": name,
            "file": path.name,
            "document_sha256": document_sha256(path),
            "artifact": artifact.to_document(),
        }

    # ------------------------------------------------------------------
    # BENCH trajectory
    # ------------------------------------------------------------------
    def bench(self) -> Dict[str, object]:
        """The benchmark trajectory with per-report regression flagging.

        Every ``BENCH_*.json`` in the bench directory becomes one
        trajectory point.  Reports in the perf schema that embed a
        ``before`` report are re-gated with the same
        :func:`repro.perf.compare.compare_reports` checks the
        ``repro.perf compare`` CLI applies (determinism exact, rate
        within :attr:`tolerance`); findings with ``ok=False`` appear
        under ``regressions``.  Files that are not perf-schema reports
        are listed with ``error`` so the trajectory never hides a file.
        """
        directory = self._require_dir(self.bench_dir, "bench", "--bench-dir")
        entries: List[Dict[str, object]] = []
        for path in sorted(directory.glob(BENCH_GLOB)):
            entry: Dict[str, object] = {
                "file": path.name,
                "document_sha256": document_sha256(path),
            }
            try:
                report = load_bench_report(path)
            except DocumentError as exc:
                entry["error"] = str(exc)
                entries.append(entry)
                continue
            benchmarks = report.get("benchmarks")
            entry["scale"] = report.get("scale")
            entry["host"] = report.get("host")
            entry["rates"] = {
                name: value.get("rate")
                for name, value in benchmarks.items()
                if isinstance(value, dict)
            }
            entry["speedup_vs_before"] = report.get("speedup_vs_before")
            before = report.get("before")
            if isinstance(before, dict):
                findings = compare_reports(
                    before, report, tolerance=self.tolerance
                )
                entry["regressions"] = [
                    {"benchmark": f.name, "kind": f.kind, "message": f.message}
                    for f in findings
                    if not f.ok
                ]
                entry["gate_ok"] = not entry["regressions"]
            entries.append(entry)
        return {
            "protocol": TRACKING_PROTOCOL_VERSION,
            "tolerance": self.tolerance,
            "reports": entries,
        }

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        """Liveness plus a count of the documents currently visible."""
        document: Dict[str, object] = {
            "status": "ok",
            "protocol": TRACKING_PROTOCOL_VERSION,
        }
        if self.manifest_dir is not None and self.manifest_dir.is_dir():
            document["runs"] = len(
                list(self.manifest_dir.glob(f"*{MANIFEST_SUFFIX}"))
            )
        if self.models_dir is not None and self.models_dir.is_dir():
            from repro.models.registry import ModelRegistry

            document["models"] = len(ModelRegistry(self.models_dir).names())
        if self.bench_dir is not None and self.bench_dir.is_dir():
            document["bench_reports"] = len(list(self.bench_dir.glob(BENCH_GLOB)))
        return document


__all__ = ["BENCH_GLOB", "DEFAULT_TOLERANCE", "TrackingService"]
