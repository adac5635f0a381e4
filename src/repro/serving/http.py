"""Asyncio HTTP/1.1 transport for the policy-serving service.

:class:`ServingServer` is a :class:`repro.net.http.JsonHttpServer` — the
shared keep-alive HTTP/1.1 transport — wrapping a
:class:`~repro.serving.service.PolicyService`.  Everything that frames
bytes on the socket (request parsing, body caps, connection teardown,
JSON responses) lives in :mod:`repro.net`; this module owns the route
table and the serving-specific lifecycle.

Concurrency model:

* **Decisions, health, stats, reloads** run inline on the event loop —
  decisions, health and stats are sub-millisecond lookups, and running every
  reload check on the loop serialises them against each other and against
  decision handling without any locking.
* **What-if simulations** are the one genuinely slow request class; they
  are pushed to a small thread pool so a simulation never stalls the
  decision hot path.  The handler captures the model snapshot before
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
from repro.serving.protocol import RequestError, envelope_for_exception
from repro.serving.service import PolicyService

#: Largest accepted request body (bytes); larger bodies get a 413 envelope.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted request head (request line + headers, bytes).
MAX_HEAD_BYTES = 64 * 1024


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

    def __init__(
        self,
        service: PolicyService,
        host: str = "127.0.0.1",
        port: int = 0,
        reload_interval: float = 1.0,
    ) -> None:
        super().__init__(
            max_body_bytes=MAX_BODY_BYTES,
            max_head_bytes=MAX_HEAD_BYTES,
            wire_error=RequestError,
        )
        self.service = service
        self.host = host
        self.port = port
        self.reload_interval = float(reload_interval)
        self._server: Optional[asyncio.AbstractServer] = None
        self._reload_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the reload loop."""
        if self._server is not None:
            raise ServingError("server is already running")
        self._executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-whatif"
        )
        self._server = await asyncio.start_server(
            self.handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.reload_interval > 0:
            self._reload_task = asyncio.ensure_future(self._reload_loop())

    async def close(self) -> None:
        """Stop accepting, cancel the reload loop, drain the executor."""
        if self._reload_task is not None:
            self._reload_task.cancel()
            try:
                await self._reload_task
            except asyncio.CancelledError:
                pass
            self._reload_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.cancel_connections()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "ServingServer":
        """Start the server on entry."""
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        """Close the server on exit."""
        await self.close()

    @property
    def started(self) -> bool:
        """Whether the listening socket is currently bound."""
        return self._server is not None

    @property
    def url(self) -> str:
        """Base URL of the bound listening socket."""
        return f"http://{self.host}:{self.port}"

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
        """Route one request and map every failure to a typed envelope."""
        start = time.perf_counter()
        try:
            status, document = await self._route(method, path, body)
        except Exception as exc:  # noqa: BLE001 - boundary: everything becomes JSON
            status, document = envelope_for_exception(exc)
            error = document.get("error")
            if isinstance(error, dict):
                self.service.stats.record_error(str(error.get("type")))
        self.service.stats.record_request(
            f"{method} {path}", (time.perf_counter() - start) * 1000.0
        )
        return status, document

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """The route table proper (exceptions handled by ``dispatch``)."""
        builtin = self.route_builtin(method, path)
        if builtin is not None:
            return builtin
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


async def serve_forever(server: ServingServer) -> None:
    """Run ``server`` until cancelled (the CLI entry point's main loop).

    Starts the server only if it is not already running — the CLI starts
    it eagerly so the banner can print the resolved ephemeral port — and
    closes it on the way out.
    """
    if not server.started:
        await server.start()
    try:
        while True:
            await asyncio.sleep(3600)
    finally:
        await server.close()


__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEAD_BYTES",
    "ServingServer",
    "serve_forever",
]
