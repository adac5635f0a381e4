"""The JSON wire contract between the sweep coordinator and its workers.

Everything that crosses the wire is one JSON document per request and one
per response (the same shape as :mod:`repro.serving.protocol`): failures
map to a **typed error envelope** ::

    {"error": {"type": "digest-mismatch", "status": 409, "message": "..."}}

with a closed vocabulary (:data:`ERROR_STATUS`) — a traceback never
crosses the wire.

Jobs travel as pickles (base64-encoded into the JSON document), because a
:class:`~repro.experiments.sweep.sweep.Job` carries an arbitrary params
mapping and a function reference; both ends therefore must run the same
code tree, which is the deployment model anyway (N checkouts of this
repository pointed at one coordinator).  Unpickling is authenticated
against the job's **fingerprint**: :func:`decode_job` rebuilds the job
from its fields and recomputes the SHA-256 fingerprint from scratch, so a
corrupted or tampered blob — anything that changed the function path,
the canonicalized params, or the seed — is rejected before execution.
The transport is plain HTTP intended for a trusted network (the default
bind is loopback); the fingerprint check is an integrity seal, not a
substitute for network-level access control.

Results travel as plain JSON payloads stamped with their
:func:`~repro.experiments.sweep.manifest.payload_digest`; the coordinator
recomputes the digest on receipt, which pins down any canonicalization
drift between hosts before a payload can reach the cache.
"""

from __future__ import annotations

import base64
import pickle
from typing import Dict, Mapping, Tuple

from repro.errors import SweepError
from repro.experiments.sweep.manifest import payload_digest
from repro.experiments.sweep.sweep import Job
from repro.net.envelope import EnvelopeError, make_envelope

#: Version stamped into every coordinator response; workers refuse to
#: execute leases from a different protocol generation.
DIST_PROTOCOL_VERSION = 1

#: The closed set of error-envelope types and their HTTP status codes.
ERROR_STATUS: Dict[str, int] = {
    "invalid-request": 400,
    "not-found": 404,
    "unknown-job": 409,
    "digest-mismatch": 409,
    "fingerprint-mismatch": 409,
    "payload-too-large": 413,
    "internal-error": 500,
}


class WireError(EnvelopeError, SweepError):
    """A coordinator/worker exchange that failed, with a typed envelope."""

    #: The coordinator/worker vocabulary; see :data:`ERROR_STATUS`.
    vocabulary = ERROR_STATUS

    #: Unknown envelope types are a coordinator-side bug.
    unknown_error = SweepError


def error_envelope(error_type: str, message: str) -> Dict[str, object]:
    """Build the JSON error envelope for ``error_type``."""
    return make_envelope(ERROR_STATUS, error_type, message, SweepError)


def envelope_for_exception(exc: BaseException) -> Tuple[int, Dict[str, object]]:
    """Map an exception to ``(status, envelope)``; never leaks a traceback.

    :class:`WireError` carries its own type.  Anything else is a
    coordinator bug — the worker gets an opaque ``internal-error`` naming
    only the exception class, never its message or stack.
    """
    if isinstance(exc, WireError):
        return exc.status, exc.envelope()
    return (
        ERROR_STATUS["internal-error"],
        error_envelope("internal-error", f"unexpected {type(exc).__name__}"),
    )


def encode_job(job: Job) -> Dict[str, object]:
    """Encode ``job`` for the wire: key, fingerprint, base64 pickle."""
    return {
        "key": job.key,
        "fingerprint": job.fingerprint(),
        "blob": base64.b64encode(pickle.dumps(job)).decode("ascii"),
    }


def decode_job(document: Mapping[str, object]) -> Job:
    """Decode one wire job and verify its fingerprint from scratch.

    The fingerprint the coordinator stamped next to the blob must equal
    the SHA-256 the *receiver* computes over the decoded function path,
    canonicalized params, and seed.  The job is rebuilt field-by-field so
    a memoized fingerprint smuggled inside the pickle can never
    short-circuit the check.
    """
    try:
        expected = document["fingerprint"]
        blob = base64.b64decode(str(document["blob"]), validate=True)
        job = pickle.loads(blob)
    except WireError:
        raise
    except Exception as exc:
        raise WireError("invalid-request", f"undecodable wire job: {exc}") from exc
    if not isinstance(job, Job):
        raise WireError(
            "invalid-request",
            f"wire blob decoded to {type(job).__name__}, expected a Job",
        )
    fresh = Job(key=job.key, fn=job.fn, params=job.params, seed=job.seed)
    if fresh.fingerprint() != expected:
        raise WireError(
            "fingerprint-mismatch",
            f"job {job.key!r}: fingerprint {fresh.fingerprint()[:12]}… does "
            f"not match the coordinator's {str(expected)[:12]}…",
        )
    return fresh


def encode_result(job: Job, payload: Mapping[str, object]) -> Dict[str, object]:
    """Encode one completed job for the wire, stamped with its digest."""
    return {
        "fingerprint": job.fingerprint(),
        "key": job.key,
        "payload": dict(payload),
        "digest": payload_digest(payload),
    }


__all__ = [
    "DIST_PROTOCOL_VERSION",
    "ERROR_STATUS",
    "WireError",
    "decode_job",
    "encode_job",
    "encode_result",
    "envelope_for_exception",
    "error_envelope",
]
