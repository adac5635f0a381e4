"""The shared asyncio keep-alive HTTP/1.1 transport.

:class:`JsonHttpServer` is the one implementation of the hand-rolled
HTTP/1.1 dialect every in-repo server speaks: request-line + headers +
``Content-Length`` body framing with head/body caps, keep-alive
connection handling with cancel-on-teardown, JSON responses serialised
with sorted keys, and the ``/healthz`` liveness route.  Subclasses
provide the route table (:meth:`JsonHttpServer.dispatch`) and the
health document (:meth:`JsonHttpServer.healthz_document`); everything
that frames bytes on the socket lives here, once.

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
    """Keep-alive JSON-over-HTTP/1.1 transport shared by every server.

    Subclasses implement :meth:`dispatch` (the route table, mapping every
    failure to a typed envelope — nothing may escape it) and
    :meth:`healthz_document`, and may override :meth:`on_framing_error`
    to observe framing failures (e.g. for stats counters).  The transport
    itself never raises into the event loop: connection resets and
    cancellation on teardown are swallowed after cleanup.
    """

    def __init__(
        self,
        max_body_bytes: int,
        max_head_bytes: int,
        wire_error: Type[EnvelopeError],
    ) -> None:
        #: Largest accepted request body (bytes); larger gets a 413 envelope.
        self.max_body_bytes = int(max_body_bytes)
        #: Largest accepted request head (request line + headers, bytes).
        self.max_head_bytes = int(max_head_bytes)
        #: The service's :class:`EnvelopeError` subclass for wire errors.
        self.wire_error = wire_error
        self._connections: set = set()

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """Route one request; subclasses map every failure to an envelope."""
        raise NotImplementedError

    def healthz_document(self) -> Dict[str, object]:
        """The liveness document served on ``GET /healthz``."""
        raise NotImplementedError

    def on_framing_error(self, exc: EnvelopeError) -> None:
        """Hook invoked before a framing error's envelope is written."""

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

    async def cancel_connections(self) -> None:
        """Cancel and await every open connection-handler task.

        Idle keep-alive connections sit in a blocked read; cancelling
        them on teardown ensures no handler task outlives the server
        (and trips the event loop's "task was destroyed" noise).
        """
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()

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
        if len(head) > self.max_head_bytes:
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
    def route_builtin(
        self, method: str, path: str
    ) -> Optional[Tuple[int, Dict[str, object]]]:
        """Serve the routes every server shares; ``None`` if not one."""
        if path == "/healthz":
            self.require_method(method, "GET", path)
            return 200, self.healthz_document()
        return None

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


__all__ = ["JsonHttpServer", "STATUS_REASON"]
