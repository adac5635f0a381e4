"""The routes of the policy-serving service.

:class:`ServingServer` is a :class:`repro.net.http.JsonHttpServer` — the
shared keep-alive HTTP/1.1 server — wrapping a
:class:`~repro.serving.service.PolicyService`.  The listener lifecycle,
request framing, body caps, connection teardown, JSON responses and the
exception boundary live in :mod:`repro.net`; this module owns the route
table, the health document, the what-if executor, the reload loop and
the per-request stats.

Concurrency model:

* **Decisions, health, stats, reloads** run inline on the event loop —
  decisions, health and stats are sub-millisecond lookups, and running every
  reload check on the loop serialises them against each other and against
  decision handling without any locking.  A decision whose request has
  arrived whole is answered inside the connection's ``data_received``,
  with no task (see :mod:`repro.net.http`).
* **What-if simulations** are the one genuinely slow request class; they
  are pushed to a small thread pool so a simulation never stalls the
  decision hot path; requests pipelined behind one on the same connection
  wait for it.  The handler captures the model snapshot before
  dispatch, so a hot reload mid-simulation cannot tear the response.
* A background task polls :meth:`PolicyService.check_reload` every
  ``reload_interval`` seconds; reload failures are counted in the stats
  and the previous model keeps serving.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.errors import ServingError
from repro.net.envelope import EnvelopeError
from repro.net.http import JsonHttpServer
from repro.serving import protocol
from repro.serving.protocol import RequestError
from repro.serving.service import PolicyService

#: Largest accepted request body (bytes); larger bodies get a 413 envelope.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ServingServer(JsonHttpServer):
    """One asyncio HTTP server wrapping a :class:`PolicyService`.

    Routes::

        GET  /healthz     liveness + served-model identity
        GET  /stats       counters, latency/batch histograms
        POST /v1/decide   single or batched coherence-mode decisions
        POST /v1/whatif   bounded scenario evaluation
        POST /v1/reload   force one hot-reload check now

    Use as an async context manager (``async with ServingServer(...)``) or
    call :meth:`start`/:meth:`close` explicitly.
    """

    envelope_for_exception = staticmethod(protocol.envelope_for_exception)

    def __init__(
        self,
        service: PolicyService,
        host: str = "127.0.0.1",
        port: int = 0,
        reload_interval: float = 1.0,
    ) -> None:
        super().__init__(MAX_BODY_BYTES, RequestError, host=host, port=port)
        self.service = service
        self.reload_interval = float(reload_interval)
        self._reload_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle (binding and teardown live in repro.net.http)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the reload loop."""
        await super().start()
        self._executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-whatif"
        )
        if self.reload_interval > 0:
            self._reload_task = asyncio.ensure_future(self._reload_loop())

    async def close(self) -> None:
        """Stop accepting, cancel the reload loop, drain the executor.

        A what-if still simulating holds its executor thread until it
        ends; the wait for it runs off the event loop, so the loop's other
        timers and connections go on meanwhile.
        """
        if self._reload_task is not None:
            self._reload_task.cancel()
            try:
                await self._reload_task
            except asyncio.CancelledError:
                pass
            self._reload_task = None
        await super().close()
        executor, self._executor = self._executor, None
        if executor is not None:
            await asyncio.get_running_loop().run_in_executor(None, executor.shutdown)

    async def _reload_loop(self) -> None:
        """Poll for registry changes; failures keep the old model serving."""
        while True:
            await asyncio.sleep(self.reload_interval)
            try:
                self.service.check_reload()
            except Exception:
                # Already counted by check_reload (reload_errors); the
                # previous snapshot keeps serving and the next tick retries.
                continue

    # ------------------------------------------------------------------
    # Routing (transport plumbing lives in repro.net.http)
    # ------------------------------------------------------------------
    def healthz_document(self) -> Dict[str, object]:
        """Liveness + served-model identity for ``/healthz``."""
        return self.service.healthz()

    def on_framing_error(self, exc: EnvelopeError) -> None:
        """Count framing failures in the serving stats."""
        self.service.stats.record_error(exc.error_type)

    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """Answer one request, counting it and any error in the stats."""
        start = time.perf_counter()
        status, document = await super().dispatch(method, path, body)
        if status >= 400:
            self.service.stats.record_error(str(document["error"]["type"]))
        self.service.stats.record_request(
            f"{method} {path}", (time.perf_counter() - start) * 1000.0
        )
        return status, document

    async def route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """The route table proper (the boundary lives in ``dispatch``)."""
        if path == "/stats":
            self.require_method(method, "GET", path)
            return 200, self.service.stats_snapshot()
        if path == "/v1/decide":
            self.require_method(method, "POST", path)
            return 200, self.service.decide(self.parse_json_body(body))
        if path == "/v1/whatif":
            self.require_method(method, "POST", path)
            document = self.parse_json_body(body)
            loop = asyncio.get_event_loop()
            if self._executor is None:
                raise ServingError("server is not running")
            # The service captures its model snapshot inside whatif(), so
            # a hot reload during the simulation cannot tear the response.
            result = await loop.run_in_executor(
                self._executor, self.service.whatif, document
            )
            return 200, result
        if path == "/v1/reload":
            self.require_method(method, "POST", path)
            reloaded = self.service.check_reload()
            model = self.service.model
            return 200, {
                "reloaded": reloaded,
                "digest": model.digest,
                "generation": model.generation,
            }
        raise RequestError("not-found", f"no route for {path!r}")


__all__ = [
    "MAX_BODY_BYTES",
    "ServingServer",
]
