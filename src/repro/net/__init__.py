"""Shared JSON/HTTP wire substrate for every server in the repository.

Three in-repo services speak the same hand-rolled dialect — one JSON
document per request and one per response over keep-alive HTTP/1.1, with
failures mapped to a typed error envelope from a closed vocabulary:

* :mod:`repro.serving` (the policy-serving API),
* the distributed sweep coordinator
  (:mod:`repro.experiments.sweep.distributed`),
* :mod:`repro.tracking` (the read-only experiment-tracking API).

This package owns the substrate they share rather than letting each fork
its own copy:

* :mod:`repro.net.envelope` — the typed error-envelope machinery: a
  closed ``{error-type: HTTP status}`` vocabulary per service, envelope
  construction, and the :class:`~repro.net.envelope.EnvelopeError` base
  for wire errors that carry their own envelope type.  A traceback never
  crosses the wire.
* :mod:`repro.net.http` — :class:`~repro.net.http.JsonHttpServer`, the
  asyncio keep-alive HTTP/1.1 server: the listener lifecycle (bind,
  ephemeral-port resolution, teardown that closes open connections,
  ``async with`` and ``serve_forever``), one ``asyncio.Protocol`` per
  connection that answers each buffered request eagerly, request framing
  with the one head cap and a per-service body cap, JSON response
  serialisation, the shared ``/healthz`` route, and the request boundary
  that maps any exception a route raises through the service's own
  ``envelope_for_exception``.  A server subclass keeps only its route
  table and health document.

Deliberately framework-free: the protocol surface is a handful of routes
exchanging single JSON documents, and a web framework would be the only
third-party dependency in the repository.
"""

from repro.net.envelope import EnvelopeError, make_envelope
from repro.net.http import JsonHttpServer

__all__ = [
    "EnvelopeError",
    "JsonHttpServer",
    "make_envelope",
]
