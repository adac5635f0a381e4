"""Byte-level document primitives: canonical JSON, digests, safe reads.

Every digest-bearing format in the repository is built from the same
three primitives, which therefore live here exactly once:

* **canonical JSON** — :func:`canonical_text` renders a payload with
  sorted keys and fixed separators, so the same logical document always
  produces the same bytes (and the same digest) on every platform;
* **content digests** — :func:`canonical_digest` is the SHA-256 of the
  canonical rendering (the digest stamped into manifests, cache entries,
  artifacts, and matrix cells), and :func:`document_sha256` is the
  SHA-256 of a file's *raw bytes* (the identity the tracking API reports
  so clients can verify a served document against the file on disk);
* **safe reads** — :func:`read_document` reads one whole JSON document
  and :func:`read_jsonl_records` reads a JSON-lines file under the
  crash-tolerance rule (a blank or truncated line decodes to ``None``
  instead of failing the whole file), both mapping every failure to
  :class:`~repro.errors.DocumentError`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import DocumentError
from repro.utils.fileio import read_json_document


#: Renders exactly as ``json.dumps(payload, sort_keys=True,
#: separators=(",", ":"))``, without building an encoder per call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_text(payload: object) -> str:
    """Canonical JSON rendering: sorted keys, fixed separators.

    Serialisation failures (:class:`TypeError`/:class:`ValueError` for a
    non-JSON payload) propagate unchanged so callers can wrap them in
    their own domain error with a contextual message.
    """
    return _CANONICAL_ENCODER.encode(payload)


def canonical_digest(payload: object) -> str:
    """SHA-256 of the canonical JSON rendering of ``payload``.

    This is *the* content digest of the repository: sweep manifests,
    result-cache entries, trained-policy artifacts, and transfer-matrix
    cells all stamp exactly this value, so equal digests always mean
    byte-identical canonical payloads across formats.
    """
    return hashlib.sha256(canonical_text(payload).encode("utf-8")).hexdigest()


def document_sha256(path: Union[str, Path]) -> str:
    """SHA-256 of the raw bytes of the file at ``path``.

    Unlike :func:`canonical_digest` this hashes the document *as
    written* (indentation and key order included), so it identifies the
    exact on-disk file — the gate the tracking API exposes for
    byte-for-byte verification against served documents.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DocumentError(f"cannot read document {path}: {exc}") from exc
    return hashlib.sha256(blob).hexdigest()


def read_document(path: Union[str, Path]) -> object:
    """Read one whole JSON document, mapping failures to ``DocumentError``.

    A missing file, an unreadable file, and invalid JSON each raise
    :class:`~repro.errors.DocumentError` with a message naming the path
    and the failure, so CLI surfaces can print it verbatim.
    """
    path = Path(path)
    try:
        return read_json_document(path)
    except FileNotFoundError:
        raise DocumentError(f"document {path} does not exist") from None
    except OSError as exc:
        raise DocumentError(f"cannot read document {path}: {exc}") from exc
    except ValueError as exc:
        raise DocumentError(f"document {path} is not valid JSON: {exc}") from None


def decode_jsonl_line(line: str) -> Optional[object]:
    """JSON-decode one line; ``None`` for a blank or truncated line.

    This is the crash-tolerance rule of every JSON-lines format in the
    repository: appending writers flush whole lines, so a crash can at
    worst truncate the final line, and a reader that maps undecodable
    lines to ``None`` loses only the record that was mid-write.
    """
    line = line.strip()
    if not line:
        return None
    try:
        return json.loads(line)
    except ValueError:
        return None


def read_jsonl_records(path: Union[str, Path]) -> List[Optional[object]]:
    """Read a JSON-lines file under the crash-tolerance rule.

    Returns one entry per physical line, in order — the decoded object,
    or ``None`` where the line was blank or truncated (see
    :func:`decode_jsonl_line`).  Positions are preserved so callers can
    apply structural rules ("the first line is the header") exactly as
    they would on the raw file.  An unreadable file raises
    :class:`~repro.errors.DocumentError`.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DocumentError(f"cannot read document {path}: {exc}") from exc
    return [decode_jsonl_line(line) for line in lines]


__all__ = [
    "canonical_digest",
    "canonical_text",
    "decode_jsonl_line",
    "document_sha256",
    "read_document",
    "read_jsonl_records",
]
