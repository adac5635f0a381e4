"""Read-only experiment tracking over the repository's on-disk documents.

The tracking API answers "what have my experiments produced?" directly
from the documents the other subsystems already write — sweep manifests,
the model registry, ``BENCH_*.json`` reports — with no database and no
write path.  It is the capstone consumer of the two substrate layers
this package family shares: every byte is framed by :mod:`repro.net`
and every document is parsed by :mod:`repro.store`.

Modules:

* :mod:`repro.tracking.service` — :class:`TrackingService`, the
  transport-free read side (runs, models, bench trajectory).
* :mod:`repro.tracking.protocol` — the typed error-envelope vocabulary.
* :mod:`repro.tracking.http` — :class:`TrackingServer`, the GET-only
  route table over the shared :mod:`repro.net` server.
* :mod:`repro.tracking.cli` — ``python -m repro.tracking``
  (``serve`` / ``runs`` / ``run`` / ``models`` / ``bench``).
"""

from repro.tracking.http import TrackingServer
from repro.tracking.protocol import (
    ERROR_STATUS,
    TRACKING_PROTOCOL_VERSION,
    TrackingRequestError,
    envelope_for_exception,
    error_envelope,
)
from repro.tracking.service import DEFAULT_TOLERANCE, TrackingService

__all__ = [
    "DEFAULT_TOLERANCE",
    "ERROR_STATUS",
    "TRACKING_PROTOCOL_VERSION",
    "TrackingRequestError",
    "TrackingServer",
    "TrackingService",
    "envelope_for_exception",
    "error_envelope",
]
