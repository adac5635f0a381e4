"""The shared asyncio keep-alive HTTP/1.1 server.

:class:`JsonHttpServer` is the one implementation of the hand-rolled
HTTP/1.1 dialect every in-repo server speaks, and of everything around
the route table: the listener lifecycle (bind, resolve an ephemeral
port, stop listening, cancel open connections), request-line + headers
+ ``Content-Length`` body framing with head/body caps, keep-alive
connection handling, JSON responses serialised with sorted keys, the
``/healthz`` liveness route, and the request boundary that turns any
exception into a typed envelope.  Subclasses provide the route table
(:meth:`JsonHttpServer.route`), the health document
(:meth:`JsonHttpServer.healthz_document`) and the exception mapping
(:meth:`JsonHttpServer.envelope_for_exception`, owned by each service's
protocol module); everything that touches the socket lives here, once.

Framing errors (malformed request line, a ``Content-Length`` that is not
ASCII digits or that is repeated with a different value, oversized head
or body) are answered with the service's typed envelope and then the
connection is dropped — the stream position is unrecoverable.  Which
envelope vocabulary applies is chosen by the subclass through the
``wire_error`` constructor argument (an
:class:`~repro.net.envelope.EnvelopeError` subclass), so the wire
behavior of each service is exactly what its protocol module declares.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple, Type

from repro.net.envelope import EnvelopeError

#: Largest accepted request head (request line + headers, bytes).  It is
#: also each connection's stream-reader limit, which stops most longer heads
#: before the head check in :meth:`JsonHttpServer.read_request` sees them.
MAX_HEAD_BYTES = 64 * 1024

#: Reason phrases for every status any in-repo service emits.
STATUS_REASON: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


class JsonHttpServer:
    """Keep-alive JSON-over-HTTP/1.1 server shared by every service.

    Subclasses implement :meth:`route` (the route table; it may raise
    anything), :meth:`healthz_document` and :meth:`envelope_for_exception`,
    and may override :meth:`on_framing_error` to observe framing failures
    (e.g. for stats counters).  The server itself never raises into the
    event loop: connection resets and cancellation on teardown are
    swallowed after cleanup.

    Use as an async context manager (``async with server``), call
    :meth:`start`/:meth:`close` explicitly, or run :meth:`serve_forever`.
    """

    def __init__(
        self,
        max_body_bytes: int,
        wire_error: Type[EnvelopeError],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        #: Largest accepted request body (bytes); larger gets a 413 envelope.
        self.max_body_bytes = int(max_body_bytes)
        #: The service's :class:`EnvelopeError` subclass for wire errors.
        self.wire_error = wire_error
        self.host = host
        #: The bound port once started (``0`` asks for an ephemeral one).
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    async def route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """Serve one request other than ``/healthz``; may raise anything."""
        raise NotImplementedError

    def healthz_document(self) -> Dict[str, object]:
        """The liveness document served on ``GET /healthz``."""
        raise NotImplementedError

    def envelope_for_exception(
        self, exc: Exception
    ) -> Tuple[int, Dict[str, object]]:
        """Map a failed request's exception to ``(status, envelope)``."""
        raise NotImplementedError

    def on_framing_error(self, exc: EnvelopeError) -> None:
        """Hook invoked before a framing error's envelope is written."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and resolve an ephemeral port."""
        if self._server is not None:
            # The service's own domain error (ServingError, TrackingError).
            raise self.wire_error.unknown_error("server is already running")
        self._server = await asyncio.start_server(
            self.handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_HEAD_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop listening and cancel every open connection (idempotent).

        Idle keep-alive connections sit in a blocked read; cancelling them
        ensures no handler task outlives the server.  It comes before
        ``wait_closed``, which newer Pythons make wait for every connection.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        if server is not None:
            await server.wait_closed()

    async def serve_forever(self) -> None:
        """Serve until cancelled, then close.

        Starts the server only if it is not already running — a CLI
        starts it eagerly so its banner can print the resolved port.
        """
        if not self.started:
            await self.start()
        try:
            await asyncio.Event().wait()
        finally:
            await self.close()

    async def __aenter__(self) -> "JsonHttpServer":
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

    # ------------------------------------------------------------------
    # The request boundary
    # ------------------------------------------------------------------
    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """Answer one request; every failure becomes a typed envelope."""
        try:
            if path == "/healthz":
                self.require_method(method, "GET", path)
                return 200, self.healthz_document()
            return await self.route(method, path, body)
        except Exception as exc:  # noqa: BLE001 - boundary: everything becomes JSON
            return self.envelope_for_exception(exc)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve keep-alive requests on one connection until EOF."""
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self.read_request(reader)
                except EnvelopeError as exc:
                    # Framing errors (bad request line, oversized body):
                    # answer with the typed envelope, then drop the
                    # connection — the stream position is unrecoverable.
                    self.on_framing_error(exc)
                    await self.write_response(
                        writer, exc.status, exc.envelope(), keep_alive=False
                    )
                    break
                if request is None:
                    break
                method, path, body, keep_alive = request
                status, document = await self.dispatch(method, path, body)
                await self.write_response(writer, status, document, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancelled this handler; close and swallow —
            # re-raising out of the streams callback is logged as noise.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()

    # ------------------------------------------------------------------
    # Request/response framing
    # ------------------------------------------------------------------
    async def read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """Parse one request; ``None`` on a clean EOF between requests."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        except asyncio.LimitOverrunError as exc:
            raise self.wire_error(
                "payload-too-large", "request head exceeds the server limit"
            ) from exc
        if len(head) > MAX_HEAD_BYTES:
            raise self.wire_error(
                "payload-too-large", "request head exceeds the server limit"
            )
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise self.wire_error(
                "invalid-request", f"malformed request line {lines[0]!r}"
            )
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                # Two differing lengths leave the body's end ambiguous.
                raise self.wire_error(
                    "invalid-request",
                    "conflicting Content-Length headers "
                    f"{headers[name]!r} and {value!r}",
                )
            headers[name] = value
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        length_text = headers.get("content-length", "0")
        # Digits only: int() would also take a sign, underscores and
        # non-ASCII digits.
        if not (length_text.isascii() and length_text.isdigit()):
            raise self.wire_error(
                "invalid-request", f"invalid Content-Length {length_text!r}"
            )
        length = int(length_text)
        if length > self.max_body_bytes:
            raise self.wire_error(
                "payload-too-large",
                f"request body of {length} bytes exceeds the server limit "
                f"of {self.max_body_bytes}",
            )
        body = await reader.readexactly(length) if length else b""
        # Strip any query string: the protocol carries everything in JSON.
        path = target.split("?", 1)[0]
        return method.upper(), path, body, keep_alive

    async def write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        document: Dict[str, object],
        keep_alive: bool,
    ) -> None:
        """Serialise one JSON response with standard framing headers."""
        payload = json.dumps(document, sort_keys=True).encode("utf-8")
        reason = STATUS_REASON.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Route helpers
    # ------------------------------------------------------------------
    def require_method(self, method: str, expected: str, path: str) -> None:
        """Reject a request whose method does not match the route."""
        if method != expected:
            raise self.wire_error(
                "invalid-request", f"{path} expects {expected}, got {method}"
            )

    def parse_json_body(self, body: bytes) -> object:
        """Decode a request body as one JSON document."""
        if not body:
            raise self.wire_error(
                "invalid-request", "request body must be a JSON document"
            )
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise self.wire_error(
                "invalid-request", f"request body is not valid JSON: {exc}"
            ) from exc


__all__ = ["JsonHttpServer", "MAX_HEAD_BYTES", "STATUS_REASON"]
