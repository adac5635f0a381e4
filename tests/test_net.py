"""Unit tests of :mod:`repro.net` — the shared HTTP/envelope substrate.

The three servers in the repository (policy serving, the sweep
coordinator, the tracking API) all frame bytes through
:class:`repro.net.http.JsonHttpServer` and build their typed error
envelopes through :mod:`repro.net.envelope`.  These tests pin the shared
machinery itself: vocabulary validation at construction, envelope shape,
the per-service ``wire_error`` wiring, the status/reason table, and the
``Content-Length`` framing rule.  The framing rule is checked over raw
sockets against a live policy server: every server reads requests through
the same :meth:`JsonHttpServer.read_request`.  The wire behavior of each
concrete server stays pinned by its own suite (``test_serving*.py``,
``test_sweep_distributed.py``, ``test_tracking.py``).
"""

from __future__ import annotations

import asyncio
import json

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
from repro.net.http import STATUS_REASON


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

        server = JsonHttpServer(
            max_body_bytes=1, max_head_bytes=1, wire_error=Dummy
        )
        with pytest.raises(NotImplementedError):
            server.healthz_document()


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
