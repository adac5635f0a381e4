"""The routes of the experiment-tracking service.

:class:`TrackingServer` is the third :class:`repro.net.http.JsonHttpServer`
in the repository (after the policy server and the sweep coordinator) and
by far the simplest: every route is a GET answered inline on the event
loop by one :class:`~repro.tracking.service.TrackingService` call, which
reads the underlying documents through :mod:`repro.store` on every
request.  There is no cache, no executor, and no background task — the
documents on disk *are* the state, so serving stays consistent with the
checkout by construction.  The listener lifecycle, framing and the
exception boundary live in :mod:`repro.net`; this module keeps only the
route table and the health document.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.net.http import JsonHttpServer
from repro.tracking import protocol
from repro.tracking.protocol import TrackingRequestError
from repro.tracking.service import TrackingService

#: Largest accepted request body; tracking requests carry no body, so
#: anything beyond a small allowance is a client error.
MAX_BODY_BYTES = 1024 * 1024

#: Route prefixes of the two parameterised document routes.
_RUN_PREFIX = "/v1/runs/"
_MODEL_PREFIX = "/v1/models/"


class TrackingServer(JsonHttpServer):
    """One asyncio HTTP server wrapping a :class:`TrackingService`.

    Routes (all GET)::

        /healthz           liveness + visible document counts
        /v1/runs           every sweep run with live progress
        /v1/runs/<id>      one run with per-job completion records
        /v1/models         the model registry with provenance
        /v1/models/<name>  one digest-verified artifact document
        /v1/bench          the BENCH trajectory with regression flags

    Use as an async context manager (``async with TrackingServer(...)``)
    or call :meth:`start`/:meth:`close` explicitly.
    """

    envelope_for_exception = staticmethod(protocol.envelope_for_exception)

    def __init__(
        self,
        service: TrackingService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(MAX_BODY_BYTES, TrackingRequestError, host=host, port=port)
        self.service = service

    # ------------------------------------------------------------------
    # Routing (the server itself lives in repro.net.http)
    # ------------------------------------------------------------------
    def healthz_document(self) -> Dict[str, object]:
        """Liveness + visible document counts for ``/healthz``."""
        return self.service.healthz()

    async def route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """The route table proper (the boundary lives in ``dispatch``)."""
        if path == "/v1/runs":
            self.require_method(method, "GET", path)
            return 200, self.service.runs()
        if path.startswith(_RUN_PREFIX):
            self.require_method(method, "GET", path)
            return 200, self.service.run(path[len(_RUN_PREFIX) :])
        if path == "/v1/models":
            self.require_method(method, "GET", path)
            return 200, self.service.models()
        if path.startswith(_MODEL_PREFIX):
            self.require_method(method, "GET", path)
            return 200, self.service.model(path[len(_MODEL_PREFIX) :])
        if path == "/v1/bench":
            self.require_method(method, "GET", path)
            return 200, self.service.bench()
        raise TrackingRequestError("not-found", f"no route for {path!r}")


__all__ = [
    "MAX_BODY_BYTES",
    "TrackingServer",
]
