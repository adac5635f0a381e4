"""Unit tests of :mod:`repro.net` — the shared HTTP/envelope substrate.

The three servers in the repository (policy serving, the sweep
coordinator, the tracking API) all frame bytes through
:class:`repro.net.http.JsonHttpServer` and build their typed error
envelopes through :mod:`repro.net.envelope`.  These tests pin the shared
machinery itself: vocabulary validation at construction, envelope shape,
the per-service ``wire_error`` wiring, the status/reason table, the
``Content-Length`` framing rule, and the request boundary.  The framing
rule is checked over raw sockets against a live policy server: every
server reads requests through the same :meth:`JsonHttpServer.read_request`.
The boundary is checked byte for byte on all three servers: the reply to
an unknown route, a wrong method, each framing error and an internal
error, recorded before the listener lifecycle and the exception boundary
moved into :class:`JsonHttpServer`.  The rest of each server's wire
behavior stays pinned by its own suite (``test_serving*.py``,
``test_sweep_distributed.py``, ``test_tracking.py``).
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading

import pytest

from serving_harness import (
    decide_request,
    make_registry,
    make_server,
    make_service,
    raw_exchange,
)

from repro.errors import ReproError, ServingError, SweepError, TrackingError
from repro.net import EnvelopeError, JsonHttpServer, make_envelope
from repro.net.http import MAX_HEAD_BYTES, STATUS_REASON
from repro.serving.service import PolicyService


class TestMakeEnvelope:
    """The one constructor of every error document on the wire."""

    VOCAB = {"invalid-request": 400, "not-found": 404}

    def test_envelope_shape(self):
        envelope = make_envelope(self.VOCAB, "not-found", "no such thing")
        assert envelope == {
            "error": {
                "type": "not-found",
                "status": 404,
                "message": "no such thing",
            }
        }

    def test_unknown_type_raises_the_requested_domain_error(self):
        with pytest.raises(ServingError, match="unknown error-envelope type"):
            make_envelope(self.VOCAB, "made-up", "boom", ServingError)

    def test_unknown_type_defaults_to_repro_error(self):
        with pytest.raises(ReproError, match="'made-up'"):
            make_envelope(self.VOCAB, "made-up", "boom")


class TestEnvelopeError:
    """The exception mixin every service's wire error subclasses."""

    class WireError(EnvelopeError, ReproError):
        vocabulary = {"invalid-request": 400, "payload-too-large": 413}
        unknown_error = ReproError

    def test_carries_type_status_and_message(self):
        exc = self.WireError("payload-too-large", "too big")
        assert exc.error_type == "payload-too-large"
        assert exc.status == 413
        assert str(exc) == "too big"
        assert exc.envelope()["error"]["type"] == "payload-too-large"

    def test_construction_validates_against_the_vocabulary(self):
        with pytest.raises(ReproError, match="unknown error-envelope type"):
            self.WireError("made-up", "boom")

    def test_every_service_wire_error_shares_the_machinery(self):
        from repro.experiments.sweep.distributed.protocol import WireError
        from repro.serving.protocol import RequestError
        from repro.tracking.protocol import TrackingRequestError

        for cls, domain in [
            (RequestError, ServingError),
            (WireError, SweepError),
            (TrackingRequestError, TrackingError),
        ]:
            assert issubclass(cls, EnvelopeError)
            assert issubclass(cls, domain)
            exc = cls("invalid-request", "x")
            assert exc.status == 400
            with pytest.raises(domain, match="unknown error-envelope"):
                cls("made-up", "x")


class TestStatusReason:
    """Each service's vocabulary must resolve to a real reason phrase."""

    def test_all_vocabularies_are_covered(self):
        from repro.experiments.sweep.distributed import protocol as sweep
        from repro.serving import protocol as serving
        from repro.tracking import protocol as tracking

        for vocabulary in (
            serving.ERROR_STATUS,
            sweep.ERROR_STATUS,
            tracking.ERROR_STATUS,
        ):
            for status in vocabulary.values():
                assert status in STATUS_REASON

    def test_dispatch_and_healthz_are_abstract(self):
        class Dummy(EnvelopeError, ReproError):
            vocabulary = {"invalid-request": 400}
            unknown_error = ReproError

        server = JsonHttpServer(max_body_bytes=1, wire_error=Dummy)
        with pytest.raises(NotImplementedError):
            server.healthz_document()
        with pytest.raises(NotImplementedError):
            asyncio.run(server.route("GET", "/", b""))
        with pytest.raises(NotImplementedError):
            server.envelope_for_exception(RuntimeError())


#: A 13-byte decision request body.
BODY = b'{"state": 41}'


def _exchange(tmp_path, *requests):
    """Send each raw request on its own connection to a live policy server."""
    service = make_service(make_registry(tmp_path / "models"))

    async def _run():
        async with make_server(service) as server:
            return [await raw_exchange(server.port, request) for request in requests]

    return asyncio.run(_run())


def _split(reply):
    """``(status, head lines, JSON body)`` of one raw reply."""
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    return int(lines[0].split(" ")[1]), lines[1:], json.loads(body)


class TestContentLengthFraming:
    """Only ASCII digits frame a body, and a repeated length must agree.

    The rejected requests ask for keep-alive: the server must close the
    connection after the envelope, or the exchange times out.
    """

    @pytest.mark.parametrize(
        "value",
        [b"+13", b"1_3", b"-13", b"13.0", b"0x0d", b"1 3", b"", b"\xb9\xb3"],
        ids=[
            "plus", "underscore", "minus", "float", "hex", "space", "empty",
            "superscripts",
        ],
    )
    def test_non_digit_length_is_an_invalid_request(self, tmp_path, value):
        [reply] = _exchange(tmp_path, decide_request(BODY, b"Content-Length: " + value))
        status, head, document = _split(reply)
        assert status == 400
        assert document["error"]["type"] == "invalid-request"
        assert document["error"]["message"] == (
            f"invalid Content-Length {value.decode('latin-1')!r}"
        )
        assert "Connection: close" in head

    def test_conflicting_lengths_are_an_invalid_request(self, tmp_path):
        [reply] = _exchange(
            tmp_path, decide_request(BODY, b"Content-Length: 99", b"Content-Length: 13")
        )
        status, head, document = _split(reply)
        assert status == 400
        assert document["error"] == {
            "type": "invalid-request",
            "status": 400,
            "message": "conflicting Content-Length headers '99' and '13'",
        }
        assert "Connection: close" in head

    def test_identical_repeated_lengths_are_accepted(self, tmp_path):
        repeated, plain = _exchange(
            tmp_path,
            decide_request(
                BODY, b"Content-Length: 13", b"content-length:13", b"Connection: close"
            ),
            decide_request(BODY),
        )
        assert _split(repeated)[0] == 200
        assert repeated == plain


# ----------------------------------------------------------------------
# The request boundary of every server, byte for byte
# ----------------------------------------------------------------------
def _head(method, path):
    """A raw body-less request asking the server to hang up after replying."""
    return (
        f"{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        "Content-Length: 0\r\n\r\n"
    ).encode("latin-1")


_PAD = b"GET /healthz HTTP/1.1\r\nX-Pad: "

#: A request head well past the 64 KB cap: the stream reader's limit stops it.
OVERSIZED_HEAD = _PAD + b"a" * (64 * 1024) + b"\r\n\r\n"

#: A 65537-byte head the stream reader still returns whole (its limit
#: bounds where the blank line starts); the server's own cap stops it.
HEAD_ONE_BYTE_OVER = _PAD + b"a" * (64 * 1024 + 1 - len(_PAD) - 4) + b"\r\n\r\n"


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("secret detail")


def _reply(status, reason, document, length):
    """The framed bytes of one error reply (the server always hangs up)."""
    return (
        f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1") + document


#: Replies every server gives the same way, recorded before the listener
#: lifecycle and the exception boundary moved into ``JsonHttpServer``.
COMMON_REPLIES = {
    "unknown-route": _reply(
        404, "Not Found",
        b'{"error": {"message": "no route for \'/nope\'", "status": 404, '
        b'"type": "not-found"}}',
        82,
    ),
    "healthz-wrong-method": _reply(
        400, "Bad Request",
        b'{"error": {"message": "/healthz expects GET, got POST", "status": 400, '
        b'"type": "invalid-request"}}',
        98,
    ),
    "malformed-request-line": _reply(
        400, "Bad Request",
        b'{"error": {"message": "malformed request line \'GARBAGE\'", '
        b'"status": 400, "type": "invalid-request"}}',
        100,
    ),
    "oversized-head": _reply(
        413, "Payload Too Large",
        b'{"error": {"message": "request head exceeds the server limit", '
        b'"status": 413, "type": "payload-too-large"}}',
        107,
    ),
}
COMMON_REPLIES["head-one-byte-over"] = COMMON_REPLIES["oversized-head"]

_INTERNAL_ERROR = _reply(
    500, "Internal Server Error",
    b'{"error": {"message": "internal server error (RuntimeError)", '
    b'"status": 500, "type": "internal-error"}}',
    103,
)

#: Per server: the route sent with the wrong method and its reply, and the
#: handler made to raise (owner, attribute, route) with the reply.
SERVER_CASES = {
    "serving": (
        ("GET", "/v1/decide"),
        _reply(
            400, "Bad Request",
            b'{"error": {"message": "/v1/decide expects POST, got GET", '
            b'"status": 400, "type": "invalid-request"}}',
            100,
        ),
        ("repro.serving.service.PolicyService", "stats_snapshot", "/stats"),
        _INTERNAL_ERROR,
    ),
    "tracking": (
        ("POST", "/v1/runs"),
        _reply(
            400, "Bad Request",
            b'{"error": {"message": "/v1/runs expects GET, got POST", '
            b'"status": 400, "type": "invalid-request"}}',
            98,
        ),
        ("repro.tracking.service.TrackingService", "runs", "/v1/runs"),
        _INTERNAL_ERROR,
    ),
    "coordinator": (
        ("GET", "/v1/lease"),
        _reply(
            400, "Bad Request",
            b'{"error": {"message": "/v1/lease expects POST, got GET", '
            b'"status": 400, "type": "invalid-request"}}',
            99,
        ),
        (
            "repro.experiments.sweep.distributed.coordinator.DistributedBackend",
            "_status_document",
            "/v1/status",
        ),
        _reply(
            500, "Internal Server Error",
            b'{"error": {"message": "unexpected RuntimeError", "status": 500, '
            b'"type": "internal-error"}}',
            90,
        ),
    ),
}

#: The framing errors, sent asking for keep-alive: the server must hang up
#: after the envelope, or the exchange times out.
FRAMING_CASES = {
    "malformed-request-line": b"GARBAGE\r\n\r\n",
    "oversized-head": OVERSIZED_HEAD,
    "head-one-byte-over": HEAD_ONE_BYTE_OVER,
}


def _boundary_requests(kind):
    """``(case, raw request, golden reply)`` for one server, in send order."""
    (method, path), wrong_method, (_, _, failing_route), internal = SERVER_CASES[kind]
    return [
        ("unknown-route", _head("GET", "/nope"), COMMON_REPLIES["unknown-route"]),
        (
            "healthz-wrong-method",
            _head("POST", "/healthz"),
            COMMON_REPLIES["healthz-wrong-method"],
        ),
        ("wrong-method", _head(method, path), wrong_method),
        *(
            (case, request, COMMON_REPLIES[case])
            for case, request in FRAMING_CASES.items()
        ),
        ("internal-error", _head("GET", failing_route), internal),
    ]


def _boundary_replies(kind, tmp_path, monkeypatch, requests):
    """Send each request on its own connection; return the replies.

    For the policy server the :class:`PolicyService` is returned too, so
    the caller can read its stats.
    """
    owner, attribute, _ = SERVER_CASES[kind][2]
    monkeypatch.setattr(f"{owner}.{attribute}", _raise_runtime_error)

    async def exchange_all(port):
        return [await raw_exchange(port, request, timeout=5.0) for request in requests]

    async def through(server):
        async with server:
            return await exchange_all(server.port)

    if kind == "serving":
        service = make_service(make_registry(tmp_path / "models"))
        return asyncio.run(through(make_server(service))), service
    if kind == "tracking":
        from repro.tracking import TrackingServer, TrackingService

        return asyncio.run(through(TrackingServer(TrackingService()))), None
    from repro.experiments.sweep.distributed import DistributedBackend

    with DistributedBackend() as backend:
        return asyncio.run(exchange_all(backend.port)), None


class TestBoundaryReplies:
    """Every server answers a failed request with the same bytes as before.

    Each request travels on its own connection.  The framing errors ask
    for keep-alive, so a server that kept the connection open after one
    would time the exchange out.
    """

    @pytest.mark.parametrize("kind", sorted(SERVER_CASES))
    def test_error_replies_are_byte_identical(self, kind, tmp_path, monkeypatch):
        cases = _boundary_requests(kind)
        replies, _ = _boundary_replies(
            kind, tmp_path, monkeypatch, [request for _, request, _ in cases]
        )
        for (case, _, golden), reply in zip(cases, replies):
            assert reply == golden, case

    def test_serving_stats_count_the_failed_requests(self, tmp_path, monkeypatch):
        cases = _boundary_requests("serving")
        _, service = _boundary_replies(
            "serving", tmp_path, monkeypatch, [request for _, request, _ in cases]
        )
        # Framing errors count as errors but never reach a route.
        assert service.stats.requests == {
            "GET /nope": 1,
            "POST /healthz": 1,
            "GET /v1/decide": 1,
            "GET /stats": 1,
        }
        assert service.stats.errors == {
            "not-found": 1,
            "invalid-request": 3,
            "payload-too-large": 2,
            "internal-error": 1,
        }


class TestUnexpectedErrorsAreLogged:
    """A server bug reaches the client as an opaque envelope, and the log
    keeps its message and traceback."""

    @pytest.mark.parametrize("kind", sorted(SERVER_CASES))
    def test_traceback_goes_to_the_log_not_the_reply(
        self, kind, tmp_path, monkeypatch, caplog
    ):
        (_, _, route), golden = SERVER_CASES[kind][2:]
        with caplog.at_level(logging.ERROR, logger="repro.net"):
            [reply], _ = _boundary_replies(
                kind, tmp_path, monkeypatch, [_head("GET", route)]
            )
        assert reply == golden
        assert b"secret detail" not in reply
        [record] = [record for record in caplog.records if record.name == "repro.net"]
        assert record.getMessage() == f"GET {route} failed"
        assert record.exc_info[0] is RuntimeError
        assert "Traceback" in caplog.text
        assert "RuntimeError: secret detail" in caplog.text


# ----------------------------------------------------------------------
# The connection model: eager requests, waiting requests, the read bound
# ----------------------------------------------------------------------
#: A what-if request; the tests replace ``PolicyService.whatif``.
WHATIF = b"POST /v1/whatif HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"

#: The reply document of the replaced what-if.
WHATIF_DONE = {"whatif": "done"}


def _keep_alive(body):
    """A keep-alive decision request carrying ``body``."""
    return decide_request(body, b"Content-Length: %d" % len(body))


async def _until(predicate, timeout=10.0):
    """Poll ``predicate`` on the event loop until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def _waiting(server):
    """Whether some connection of ``server`` has a request in flight."""
    return any(connection.task is not None for connection in server._connections)


def _body_length(head):
    """The ``Content-Length`` of one reply head."""
    return int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])


def _replies(data):
    """Split raw keep-alive bytes into whole replies."""
    replies = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        length = _body_length(head)
        replies.append(head + b"\r\n\r\n" + rest[:length])
        data = rest[length:]
    return replies


async def _sequential(port, *requests):
    """Each reply of ``requests`` sent one after another on one connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        replies = []
        for request in requests:
            writer.write(request)
            head = await reader.readuntil(b"\r\n\r\n")
            replies.append(head + await reader.readexactly(_body_length(head)))
        return replies
    finally:
        writer.close()
        await writer.wait_closed()


class TestConnectionModel:
    """Over raw sockets against a live policy server: requests split and
    pipelined every way get the bytes they get one at a time, in order."""

    @pytest.fixture
    def service(self, tmp_path):
        return make_service(make_registry(tmp_path / "models"))

    @pytest.fixture
    def blocked_whatif(self, monkeypatch):
        """Make every what-if wait until the returned event is set."""
        release = threading.Event()

        def whatif(service, document):
            assert release.wait(timeout=10.0), "the test never released the what-if"
            return dict(WHATIF_DONE)

        monkeypatch.setattr(PolicyService, "whatif", whatif)
        return release

    def _serve(self, service, scenario):
        async def run():
            async with make_server(service) as server:
                return await scenario(server)

        return asyncio.run(run())

    def test_a_request_sent_one_byte_at_a_time(self, service):
        request = decide_request(BODY)
        head_end = request.index(b"\r\n\r\n") + 4

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            tasks_before_the_head = []
            for index in range(len(request)):
                writer.write(request[index : index + 1])
                await writer.drain()
                await asyncio.sleep(0.001)
                if index + 1 < head_end:
                    tasks_before_the_head += [
                        connection.task for connection in server._connections
                    ]
            reply = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            return reply, tasks_before_the_head, await raw_exchange(server.port, request)

        trickled, tasks_before_the_head, whole = self._serve(service, scenario)
        assert trickled == whole
        assert _split(whole)[0] == 200
        # A slow client holds a buffer, not a task, until its head is in.
        assert tasks_before_the_head and set(tasks_before_the_head) == {None}

    def test_two_requests_in_one_send_are_answered_in_order(self, service):
        first = _keep_alive(BODY)
        second = decide_request(b'{"states": [1, 2, 3]}')

        async def scenario(server):
            pipelined = await raw_exchange(server.port, first + second)
            return pipelined, await _sequential(server.port, first, second)

        pipelined, one_at_a_time = self._serve(service, scenario)
        assert _replies(pipelined) == one_at_a_time
        assert [_split(reply)[2]["count"] for reply in one_at_a_time] == [1, 3]

    def test_a_decision_behind_a_whatif_waits_for_it(self, service, blocked_whatif):
        decide = decide_request(BODY)

        async def scenario(server):
            [expected] = await _sequential(server.port, decide)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(WHATIF + decide)
            await _until(lambda: _waiting(server))
            # The decision waits behind the what-if: nothing comes back yet.
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(reader.read(1), 0.2)
            blocked_whatif.set()
            replies = _replies(await asyncio.wait_for(reader.read(), 10.0))
            writer.close()
            await writer.wait_closed()
            return expected, replies

        expected, (whatif, decision) = self._serve(service, scenario)
        assert _split(whatif)[:3:2] == (200, WHATIF_DONE)
        assert decision == expected

    def test_a_client_gone_mid_body_leaves_nothing_behind(self, service, caplog):
        request = decide_request(BODY)

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(request[:-5])
            await _until(lambda: _waiting(server))
            writer.close()
            await writer.wait_closed()
            await _until(lambda: not server._connections)
            return asyncio.all_tasks() - {asyncio.current_task()}

        with caplog.at_level(logging.DEBUG):
            left_running = self._serve(service, scenario)
        assert left_running == set()
        assert [record for record in caplog.records if record.exc_info] == []
        assert service.stats.requests == {}

    def test_close_cancels_a_waiting_whatif(self, service, blocked_whatif):
        async def scenario():
            server = make_server(service)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(WHATIF)
            await _until(lambda: _waiting(server))
            # close() cancels the request at once, then blocks the loop
            # until the executor thread ends, so release it from a thread.
            release = threading.Timer(0.2, blocked_whatif.set)
            release.start()
            await server.close()
            release.join(timeout=10.0)
            left = (
                asyncio.all_tasks() - {asyncio.current_task()},
                set(server._connections),
                server.started,
            )
            reply = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            return left, reply

        (tasks, connections, started), reply = asyncio.run(scenario())
        assert tasks == set() and connections == set() and not started
        assert reply == b""

    def test_a_flood_behind_a_whatif_pauses_reading(self, service, blocked_whatif):
        count = 6000
        decide = _keep_alive(BODY)
        last = decide_request(BODY)

        async def scenario(server):
            expected = await _sequential(server.port, decide, last)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

            async def send():
                writer.write(WHATIF + decide * count + last)
                await writer.drain()

            sender = asyncio.ensure_future(send())
            await _until(lambda: _waiting(server))
            [connection] = [c for c in server._connections if c.task is not None]
            await _until(lambda: not connection.transport.is_reading())
            buffered = len(connection._buffer)
            blocked_whatif.set()
            data = await asyncio.wait_for(reader.read(), 30.0)
            await sender
            writer.close()
            await writer.wait_closed()
            return expected, buffered, _replies(data)

        (decided, closing), buffered, replies = self._serve(service, scenario)
        # Paused past 2 x MAX_HEAD_BYTES, at most one read (256 KiB) later,
        # well short of the whole flood.
        bound = 2 * MAX_HEAD_BYTES + 256 * 1024
        assert 2 * MAX_HEAD_BYTES < buffered <= bound < len(decide) * count
        assert len(replies) == count + 2
        assert _split(replies[0])[:3:2] == (200, WHATIF_DONE)
        assert replies[1:-1] == [decided] * count
        assert replies[-1] == closing
