"""Read side for the repository's on-disk document formats.

Every writer stays with its subsystem; this package owns the *read
side* of the documents that programs read back:

* :mod:`repro.store.io` — canonical JSON text and digests, raw-file
  SHA-256, whole-document reads, and the JSONL crash-tolerance rule;
* :mod:`repro.store.readers` — one typed reader per format (JSONL sweep
  manifests and ``BENCH_*.json`` perf reports), each validating
  structure and raising :class:`~repro.errors.DocumentError` on anything
  missing or corrupt.

Built for every consumer that reads documents it did not just write:
``--resume`` and ``merge-shards`` reading shard manifests, the CLIs'
``--check`` / ``--slo`` baselines, and the :mod:`repro.tracking` API,
which serves these documents over HTTP with digests clients can verify
against the files on disk.
"""

from repro.store.io import (
    canonical_digest,
    canonical_text,
    decode_jsonl_line,
    document_sha256,
    read_document,
)
from repro.store.readers import (
    BENCH_SCHEMA,
    MANIFEST_SUFFIX,
    MANIFEST_VERSION,
    ManifestDocument,
    grid_digest,
    load_bench_report,
)

__all__ = [
    "BENCH_SCHEMA",
    "MANIFEST_SUFFIX",
    "MANIFEST_VERSION",
    "ManifestDocument",
    "canonical_digest",
    "canonical_text",
    "decode_jsonl_line",
    "document_sha256",
    "grid_digest",
    "load_bench_report",
    "read_document",
]
