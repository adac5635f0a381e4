"""The shared asyncio keep-alive HTTP/1.1 server.

:class:`JsonHttpServer` is the one implementation of the hand-rolled
HTTP/1.1 dialect every in-repo server speaks, and of everything around
the route table: the listener lifecycle (bind, resolve an ephemeral
port, stop listening, close open connections), request-line + headers
+ ``Content-Length`` body framing with head/body caps, keep-alive
connection handling, JSON responses serialised with sorted keys, the
``/healthz`` liveness route, and the request boundary that turns any
exception into a typed envelope.  Subclasses provide the route table
(:meth:`JsonHttpServer.route`), the health document
(:meth:`JsonHttpServer.healthz_document`) and the exception mapping
(:meth:`JsonHttpServer.envelope_for_exception`, owned by each service's
protocol module); everything that touches the socket lives here, once.
An exception the mapping turns into a 5xx envelope is a server bug: its
traceback goes to the ``repro.net`` logger, never to the client.

Connection model.  Each connection is one :class:`asyncio.Protocol` that
buffers what it receives.  While a whole request head is buffered and no
earlier request of the connection is in flight, ``data_received`` runs
the request *eagerly*: it steps the request's coroutine
(:meth:`~JsonHttpServer.read_request`, :meth:`~JsonHttpServer.dispatch`,
:meth:`~JsonHttpServer.write_response`) itself, so a request answered
from memory, such as a decision, is read, answered and written with no
task, no future and no extra event-loop turn.  A request that has to
wait (a what-if in a thread pool, a body still arriving, a reply held up
by write backpressure) goes on as a task that resumes the same
coroutine, and the requests behind it wait for it, so replies keep
HTTP/1.1 order.  A slow client therefore holds a buffer, not a task.
While a request is in flight, reading pauses once more than
``2 * MAX_HEAD_BYTES`` are buffered, and resumes when a read of that
request needs more or the requests behind it have been answered (as
:class:`asyncio.StreamReader` pauses and resumes).  While a request runs
eagerly, :func:`asyncio.current_task` is ``None``: a per-request deadline
belongs on the connection as a loop timer (``loop.call_later``), not in a
route as ``asyncio.timeout``.

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
import logging
import types
from typing import Dict, Optional, Tuple, Type

from repro.net.envelope import EnvelopeError

#: Largest accepted request head (request line + headers, bytes).  It is
#: also each connection's read limit, which stops most longer heads before
#: the head check in :meth:`JsonHttpServer.read_request` sees them.
MAX_HEAD_BYTES = 64 * 1024

#: Where the traceback of a request that failed with a server bug goes.
logger = logging.getLogger("repro.net")

#: The response encoder, built once; its bytes are ``json.dumps(...,
#: sort_keys=True)``'s.
_ENCODER = json.JSONEncoder(sort_keys=True)

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
    event loop: a connection reset or EOF mid-request ends the
    connection quietly, and teardown cancels a request still waiting.

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
        #: The open connections (:class:`_Connection`).
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
        """Bind the listening socket and resolve an ephemeral port.

        A port in use or out of range, or a host that does not resolve,
        raises the service's domain error and leaves the server stopped.
        """
        if self._server is not None:
            # The service's own domain error (ServingError, TrackingError).
            raise self.wire_error.unknown_error("server is already running")
        try:
            self._server = await asyncio.get_running_loop().create_server(
                lambda: _Connection(self), host=self.host, port=self.port
            )
        except (OSError, OverflowError) as exc:
            raise self.wire_error.unknown_error(
                f"cannot listen on {self.host}:{self.port}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop listening and close every open connection (idempotent).

        A request still waiting (say, on a what-if) is cancelled, so no
        task outlives the server.  Both come before ``wait_closed``, which
        newer Pythons make wait for every connection.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        waiting = []
        for connection in list(self._connections):
            connection.transport.close()
            if connection.task is not None:
                connection.task.cancel()
                waiting.append(connection.task)
        if waiting:
            await asyncio.gather(*waiting, return_exceptions=True)
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
        """Answer one request; every failure becomes a typed envelope.

        A failure mapped to a 5xx envelope is a server bug, and the client
        learns only its class: its traceback is logged first.
        """
        try:
            if path == "/healthz":
                self.require_method(method, "GET", path)
                return 200, self.healthz_document()
            return await self.route(method, path, body)
        except Exception as exc:  # noqa: BLE001 - boundary: everything becomes JSON
            status, envelope = self.envelope_for_exception(exc)
            if status >= 500:
                logger.exception("%s %s failed", method, path)
            return status, envelope

    # ------------------------------------------------------------------
    # Request/response framing
    # ------------------------------------------------------------------
    async def read_request(
        self, reader: "_Connection"
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
        digits = length_text.lstrip("0") or "0"
        if len(digits) > len(str(self.max_body_bytes)):
            # Over the limit whatever it says, and possibly too long for
            # int() (Python caps integer strings at 4,300 digits).
            raise self.wire_error(
                "payload-too-large",
                f"request body exceeds the server limit of {self.max_body_bytes}",
            )
        length = int(digits)
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
        writer: "_Connection",
        status: int,
        document: Dict[str, object],
        keep_alive: bool,
    ) -> None:
        """Serialise one JSON response with standard framing headers."""
        payload = _ENCODER.encode(document).encode("utf-8")
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


class _Connection(asyncio.Protocol):
    """One client connection, and the reader and writer of its requests.

    It offers :meth:`readuntil`, :meth:`readexactly`, :meth:`write` and
    :meth:`drain` as :class:`asyncio.StreamReader` and
    :class:`asyncio.StreamWriter` do, with the same ``LimitOverrunError``
    and ``IncompleteReadError``, over its own receive buffer.  Each request
    runs eagerly in :meth:`data_received` until it has to wait; see the
    module docstring.
    """

    def __init__(self, server: JsonHttpServer) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        #: The task of a request that had to wait, while it is in flight.
        self.task: Optional[asyncio.Task] = None
        self._buffer = bytearray()
        #: Length of the buffer already searched for the end of a head.
        self._scanned = 0
        self._eof = False
        self._lost = False
        self._read_paused = False
        self._write_paused = False
        #: What a waiting read or drain awaits: more data, EOF or room.
        self._waiter: Optional[asyncio.Future] = None

    # -- asyncio.Protocol --------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        """Register the connection with its server."""
        self.transport = transport  # type: ignore[assignment]
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        """Buffer ``data``; answer every request it completes."""
        self._buffer += data
        if self.task is None:
            self._serve()
        else:
            self._wake()
        if (
            self.task is not None
            and not self._read_paused
            and len(self._buffer) > 2 * MAX_HEAD_BYTES
        ):
            self._read_paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        """Answer what is buffered, then end the connection."""
        self._eof = True
        if self.task is None:
            self._serve()
        else:
            self._wake()
        # Keep the transport: a request already read still gets its reply.
        return True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """Unregister; a waiting read sees EOF and a waiting drain fails."""
        self._eof = self._lost = True
        self.server._connections.discard(self)
        self._wake()

    def pause_writing(self) -> None:
        """The transport's write buffer is full: hold back replies."""
        self._write_paused = True

    def resume_writing(self) -> None:
        """The transport's write buffer drained: let replies go on."""
        self._write_paused = False
        self._wake()

    # -- Requests ----------------------------------------------------------
    def _serve(self) -> None:
        """Run each request whose head is buffered, in order, until one waits."""
        while self._head_ready():
            request = self._request()
            try:
                waiting_on = request.send(None)
            except StopIteration as done:
                keep_alive = done.value
            except (ConnectionError, asyncio.IncompleteReadError):
                keep_alive = False
            else:
                self.task = asyncio.get_running_loop().create_task(
                    self._finish(request, waiting_on)
                )
                return
            if not keep_alive:
                self.transport.close()
                return
        self._resume_reading()

    def _head_ready(self) -> bool:
        """Whether the next request can start without waiting for its head.

        It can once its whole head is buffered, once the buffer overruns
        the head cap (the read then fails with a 413), or at EOF (the read
        then ends the connection).
        """
        if self._eof:
            return True
        buffer = self._buffer
        if (
            buffer.find(b"\r\n\r\n", max(0, self._scanned - 3)) >= 0
            or len(buffer) > MAX_HEAD_BYTES
        ):
            self._scanned = 0
            return True
        self._scanned = len(buffer)
        return False

    async def _request(self) -> bool:
        """Read and answer one request; whether the connection stays open."""
        server = self.server
        try:
            request = await server.read_request(self)
        except EnvelopeError as exc:
            # Framing errors (bad request line, oversized head or body):
            # answer with the typed envelope, then drop the connection —
            # the stream position is unrecoverable.
            server.on_framing_error(exc)
            await server.write_response(
                self, exc.status, exc.envelope(), keep_alive=False
            )
            return False
        if request is None:
            return False
        method, path, body, keep_alive = request
        status, document = await server.dispatch(method, path, body)
        await server.write_response(self, status, document, keep_alive)
        return keep_alive

    async def _finish(self, request, waiting_on: object) -> None:
        """Finish a request that had to wait, then serve the ones behind it."""
        keep_alive = False
        try:
            keep_alive = await _resume(request, waiting_on)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self.task = None
            if not keep_alive:
                self.transport.close()
        if keep_alive:
            self._serve()

    # -- The reader and writer ---------------------------------------------
    async def readuntil(self, separator: bytes) -> bytes:
        """Read through ``separator``, as ``StreamReader.readuntil`` does.

        The limit is :data:`MAX_HEAD_BYTES`.
        """
        seplen = len(separator)
        offset = 0
        while True:
            buflen = len(self._buffer)
            if buflen - offset >= seplen:
                end = self._buffer.find(separator, offset)
                if end != -1:
                    break
                offset = buflen + 1 - seplen
                if offset > MAX_HEAD_BYTES:
                    raise asyncio.LimitOverrunError(
                        "Separator is not found, and chunk exceed the limit", offset
                    )
            if self._eof:
                chunk = bytes(self._buffer)
                self._buffer.clear()
                raise asyncio.IncompleteReadError(chunk, None)
            self._resume_reading()
            await self._wait()
        if end > MAX_HEAD_BYTES:
            raise asyncio.LimitOverrunError(
                "Separator is found, but chunk is longer than limit", end
            )
        end += seplen
        chunk = bytes(self._buffer[:end])
        del self._buffer[:end]
        return chunk

    async def readexactly(self, n: int) -> bytes:
        """Read ``n`` bytes, as :meth:`asyncio.StreamReader.readexactly`."""
        while len(self._buffer) < n:
            if self._eof:
                partial = bytes(self._buffer)
                self._buffer.clear()
                raise asyncio.IncompleteReadError(partial, n)
            self._resume_reading()
            await self._wait()
        data = bytes(self._buffer[:n])
        del self._buffer[:n]
        return data

    def write(self, data: bytes) -> None:
        """Queue ``data`` on the transport."""
        self.transport.write(data)

    async def drain(self) -> None:
        """Wait until the transport takes more, as ``StreamWriter.drain``."""
        while True:
            if self._lost:
                raise ConnectionResetError("Connection lost")
            if not self._write_paused:
                return
            await self._wait()

    async def _wait(self) -> None:
        self._waiter = asyncio.get_running_loop().create_future()
        try:
            await self._waiter
        finally:
            self._waiter = None

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    def _resume_reading(self) -> None:
        if self._read_paused:
            self._read_paused = False
            self.transport.resume_reading()


@types.coroutine
def _resume(coroutine, waiting_on: object):
    """Await the rest of ``coroutine``, which has yielded ``waiting_on``.

    It hands the coroutine's yields to the task that awaits it, and the
    values and exceptions that task sends back to the coroutine, as
    ``yield from`` would had the task started the coroutine itself.
    """
    while True:
        try:
            sent = yield waiting_on
        except GeneratorExit:
            coroutine.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - handed to the coroutine
            step, value = coroutine.throw, exc
        else:
            step, value = coroutine.send, sent
        try:
            waiting_on = step(value)
        except StopIteration as done:
            return done.value


__all__ = ["JsonHttpServer", "MAX_HEAD_BYTES", "STATUS_REASON"]
