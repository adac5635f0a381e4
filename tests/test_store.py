"""Tests of :mod:`repro.store` — the on-disk document read side.

One reader per format, one error taxonomy (:class:`DocumentError`), one
implementation of the manifest crash-tolerance rule.  The regression
spine here is the truncated-final-line case: a sweep killed mid-append
must leave a manifest that still loads — through
``ManifestDocument.load`` *and* through the writer's subclass that
inherits it (``SweepManifest.load``, ``merge-shards`` discovery).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import (
    ConfigurationError,
    DocumentError,
    ModelError,
    ReproError,
)
from repro.experiments.sweep.manifest import SweepManifest
from repro.perf.report import load_report
from repro.store import (
    ManifestDocument,
    canonical_digest,
    canonical_text,
    decode_jsonl_line,
    document_sha256,
    load_bench_report,
    read_document,
)
from repro.utils.host import host_metadata


def write_manifest(path, *, jobs=2, results=1, version=1, trailing=""):
    """Write a synthetic sweep manifest with ``results`` completions."""
    header = {
        "kind": "header",
        "version": version,
        "spec": "quick",
        "jobs": [
            {"key": f"job-{i}", "fingerprint": f"fp-{i}"} for i in range(jobs)
        ],
        "shard": None,
        "grid_digest": "recorded",
    }
    lines = [json.dumps(header)]
    for i in range(results):
        lines.append(
            json.dumps(
                {
                    "kind": "result",
                    "fingerprint": f"fp-{i}",
                    "key": f"job-{i}",
                    "digest": f"digest-{i}",
                }
            )
        )
    path.write_text("\n".join(lines) + "\n" + trailing)
    return path


# ----------------------------------------------------------------------
# Shared IO primitives
# ----------------------------------------------------------------------
class TestIo:
    """Canonical digests, raw-file digests, and the JSONL line rule."""

    def test_canonical_digest_is_order_invariant(self):
        assert canonical_digest({"a": 1, "b": 2}) == canonical_digest(
            {"b": 2, "a": 1}
        )
        assert canonical_text({"b": 2, "a": 1}) == '{"a":1,"b":2}'

    def test_document_sha256_is_the_raw_file_digest(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"x": 1}\n')
        assert document_sha256(path) == hashlib.sha256(b'{"x": 1}\n').hexdigest()

    def test_document_sha256_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read document"):
            document_sha256(tmp_path / "ghost.json")

    def test_decode_jsonl_line_tolerates_garbage(self):
        assert decode_jsonl_line('{"kind": "result"}') == {"kind": "result"}
        assert decode_jsonl_line("") is None
        assert decode_jsonl_line("   ") is None
        assert decode_jsonl_line('{"kind": "resu') is None

    def test_read_document_errors_are_typed(self, tmp_path):
        with pytest.raises(DocumentError, match="does not exist"):
            read_document(tmp_path / "ghost.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DocumentError, match="not valid JSON"):
            read_document(bad)


# ----------------------------------------------------------------------
# Sweep manifests (the crash-tolerance regression spine)
# ----------------------------------------------------------------------
class TestManifestReader:
    """The single implementation of the manifest trailing-line rule."""

    def test_loads_header_and_results(self, tmp_path):
        path = write_manifest(tmp_path / "m.manifest.jsonl", jobs=3, results=2)
        document = ManifestDocument.load(path)
        assert document.spec_name == "quick"
        assert document.completed == {"fp-0": "digest-0", "fp-1": "digest-1"}
        assert document.recorded_grid_digest == "recorded"
        assert document.progress() == {"total": 3, "completed": 2, "pending": 1}

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        """Regression: a sweep killed mid-append must not corrupt the run."""
        path = write_manifest(
            tmp_path / "m.manifest.jsonl",
            jobs=2,
            results=1,
            trailing='{"kind": "result", "fingerprint": "fp-1", "dig',
        )
        document = ManifestDocument.load(path)
        # The truncated record is dropped; everything before it survives.
        assert document.completed == {"fp-0": "digest-0"}
        assert document.progress()["pending"] == 1

    def test_legacy_entry_point_shares_the_rule(self, tmp_path):
        """``SweepManifest.load`` is the store reader, inherited."""
        path = write_manifest(
            tmp_path / "m.manifest.jsonl",
            jobs=2,
            results=1,
            trailing='{"kind": "resu',
        )
        manifest = SweepManifest.load(path)
        assert manifest.completed == {"fp-0": "digest-0"}

    @pytest.mark.parametrize(
        "breakage, match",
        [
            (lambda p: p.write_text(""), "is empty"),
            (lambda p: p.write_text('{"kind": "x"}\n'), "header line"),
            (
                lambda p: write_manifest(p, version=99),
                "has version 99",
            ),
            (
                lambda p: p.write_text(
                    '{"kind": "header", "version": 1, "spec": "s"}\n'
                ),
                "malformed header",
            ),
        ],
    )
    def test_structural_failures_raise_document_error(
        self, tmp_path, breakage, match
    ):
        path = tmp_path / "m.manifest.jsonl"
        breakage(path)
        with pytest.raises(DocumentError, match=match):
            ManifestDocument.load(path)
        # ...and the writer's subclass raises the identical error.
        with pytest.raises(DocumentError, match=match):
            SweepManifest.load(path)


# ----------------------------------------------------------------------
# BENCH reports
# ----------------------------------------------------------------------
class TestBenchReader:
    """Schema gating shared with ``repro.perf.load_report``."""

    def test_valid_report_loads(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(
            json.dumps({"schema": "repro-perf/1", "benchmarks": {}})
        )
        assert load_bench_report(path)["schema"] == "repro-perf/1"

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": "other", "benchmarks": {}}))
        with pytest.raises(DocumentError, match="does not carry schema"):
            load_bench_report(path)

    def test_perf_load_report_delegates_with_identical_messages(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": "other", "benchmarks": {}}))
        with pytest.raises(DocumentError) as store_error:
            load_bench_report(path)
        with pytest.raises(ConfigurationError) as perf_error:
            load_report(path)
        assert str(perf_error.value) == str(store_error.value)


# ----------------------------------------------------------------------
# The error taxonomy
# ----------------------------------------------------------------------
class TestArtifactAndMatrixReaders:
    """Model artifacts are read by ``repro.models``, under the same base."""

    def test_model_error_is_a_document_error(self):
        assert issubclass(ModelError, DocumentError)
        assert issubclass(DocumentError, ReproError)


# ----------------------------------------------------------------------
# Host metadata (the uniform BENCH host block)
# ----------------------------------------------------------------------
class TestHostMetadata:
    """Every BENCH writer stamps the same host block from one helper."""

    def test_fields_and_determinism(self):
        block = host_metadata()
        assert set(block) == {"cpu_count", "platform", "python", "repro_version"}
        assert block == host_metadata()

    def test_perf_reports_carry_the_block(self):
        from repro.perf.report import make_report

        report = make_report([], "quick")
        assert report["host"] == host_metadata()

    def test_load_reports_carry_the_block(self):
        from repro.serving.loadtest import LoadReport

        report = LoadReport(
            clients=1,
            requests_per_client=1,
            batch=1,
            seed=1,
            decisions=1,
            duration_s=1.0,
            decisions_per_s=1.0,
            latency_ms={"p50": 1.0},
        )
        assert report.to_dict()["host"] == host_metadata()
