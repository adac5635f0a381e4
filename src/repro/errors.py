"""Exception hierarchy for the Cohmeleon reproduction library.

All errors raised intentionally by the library derive from
:class:`ReproError`, so callers can catch a single base class at API
boundaries without masking programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A SoC, accelerator, or workload configuration is invalid."""


class AllocationError(ReproError):
    """The address-space allocator could not satisfy a buffer request."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class CoherenceError(ReproError):
    """A coherence mode was requested that the platform does not support."""


class PolicyError(ReproError):
    """A coherence-selection policy was misused or misconfigured."""


class ExperimentError(ReproError):
    """An experiment harness was given inconsistent parameters."""


class SweepError(ReproError):
    """A sweep specification, job, or result cache is invalid."""


class DocumentError(ReproError):
    """An on-disk JSON/JSONL document is missing, corrupt, or tampered.

    Raised by :mod:`repro.store` — the read side of the documents
    programs read back (sweep manifests, BENCH reports) — when a
    document cannot be read or parsed, and, through
    :class:`ModelError`, by model artifacts failing their digest gate.
    """


class ModelError(DocumentError):
    """A trained-policy artifact or model registry is invalid.

    Raised by :mod:`repro.models` for corrupt, truncated, tampered, or
    version-incompatible artifacts and for bad registry operations.
    A model artifact is one of the repository's digest-bearing document
    formats, so this is a :class:`DocumentError`.
    """


class ServingError(ReproError):
    """The policy-serving service was misconfigured or misused.

    Raised by :mod:`repro.serving` for invalid requests, transport
    failures, and server configuration problems.
    """


class TrackingError(ReproError):
    """The experiment-tracking service was misconfigured or misused.

    Raised by :mod:`repro.tracking` for invalid requests, missing
    document directories, and server configuration problems.
    """
