"""Unit and integration tests of the :mod:`repro.serving` stack.

Covers the serving contract end to end, always through the real asyncio
HTTP transport (loopback, ephemeral ports): server lifecycle, single and
batched decision semantics against the offline Q-table, digest/version
provenance on every response, hot-reload behaviour, typed error envelopes
(no tracebacks over the wire), the stats/histogram surface, and
byte-identical decision payloads against golden recordings.  The suite
has no dependency on an async test plugin — each test owns its event loop
via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import pytest

from serving_harness import (
    decide_request,
    make_artifact,
    make_registry,
    make_server,
    make_service,
    raw_exchange,
)

from repro import __version__
from repro.core.qtable import QTable
from repro.core.state import NUM_STATES, CoherenceState
from repro.serving import ERROR_STATUS, PROTOCOL_VERSION, ServingClient
from repro.serving.protocol import (
    RequestError,
    envelope_for_exception,
    error_envelope,
    parse_decide_request,
    parse_state,
)
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode


def with_server(test, registry=None, tmp_path=None, **service_kwargs):
    """Run async ``test(server, client, service)`` against a live server."""
    if registry is None:
        registry = make_registry(tmp_path / "models")
    service = make_service(registry, **service_kwargs)

    async def _run():
        async with make_server(service) as server:
            async with ServingClient(server.host, server.port) as client:
                return await test(server, client, service)

    return asyncio.run(_run())


# ----------------------------------------------------------------------
# Protocol-layer units (no sockets)
# ----------------------------------------------------------------------
class TestProtocol:
    """Wire-format parsing and the error-envelope vocabulary."""

    def test_parse_state_accepts_all_three_formats(self):
        state = CoherenceState.from_index(137)
        levels = [
            state.fully_coh_acc,
            state.non_coh_acc_per_tile,
            state.to_llc_per_tile,
            state.tile_footprint,
            state.acc_footprint,
        ]
        mapping = {
            "fully_coh_acc": state.fully_coh_acc,
            "non_coh_acc_per_tile": state.non_coh_acc_per_tile,
            "to_llc_per_tile": state.to_llc_per_tile,
            "tile_footprint": state.tile_footprint,
            "acc_footprint": state.acc_footprint,
        }
        assert parse_state(137) == 137
        assert parse_state(levels) == 137
        assert parse_state(mapping) == 137

    @pytest.mark.parametrize(
        "bad",
        [
            -1,
            NUM_STATES,
            True,
            "5",
            3.0,
            [0, 0, 0, 0],
            [0, 0, 0, 0, 3],
            [0, 0, 0, 0, True],
            {"fully_coh_acc": 1},
            None,
        ],
    )
    def test_parse_state_rejects_bad_values(self, bad):
        with pytest.raises(RequestError) as excinfo:
            parse_state(bad)
        assert excinfo.value.error_type == "invalid-request"

    def test_decide_request_needs_exactly_one_of_state_and_states(self):
        with pytest.raises(RequestError):
            parse_decide_request({}, max_batch=10)
        with pytest.raises(RequestError):
            parse_decide_request({"state": 1, "states": [1]}, max_batch=10)
        assert parse_decide_request({"state": 4}, max_batch=10) == ([4], True)
        assert parse_decide_request({"states": [4, 5]}, max_batch=10) == (
            [4, 5],
            False,
        )

    def test_decide_request_enforces_the_batch_limit(self):
        with pytest.raises(RequestError) as excinfo:
            parse_decide_request({"states": [0] * 11}, max_batch=10)
        assert "11" in str(excinfo.value)

    def test_envelopes_carry_matching_status(self):
        for error_type, status in ERROR_STATUS.items():
            envelope = error_envelope(error_type, "boom")
            assert envelope["error"]["status"] == status
            assert envelope["error"]["type"] == error_type

    def test_unexpected_exceptions_become_opaque_internal_errors(self):
        status, envelope = envelope_for_exception(KeyError("secret-detail"))
        assert status == 500
        assert "secret-detail" not in json.dumps(envelope)
        assert envelope["error"]["type"] == "internal-error"


# ----------------------------------------------------------------------
# Lifecycle and health
# ----------------------------------------------------------------------
class TestLifecycle:
    """Server start/stop and the health surface."""

    def test_healthz_reports_model_identity(self, tmp_path):
        registry = make_registry(tmp_path / "models")
        expected_digest = registry.load("served").digest

        async def test(server, client, service):
            status, document = await client.get("/healthz")
            assert status == 200
            assert document["status"] == "ok"
            assert document["model"] == "served"
            assert document["digest"] == expected_digest
            assert document["generation"] == 0
            assert document["repro_version"] == __version__
            assert document["protocol"] == PROTOCOL_VERSION
            assert document["scenario"] == "toy-scenario"
            assert document["uptime_s"] >= 0

        with_server(test, registry=registry)

    def test_server_binds_an_ephemeral_port_and_closes_cleanly(self, tmp_path):
        registry = make_registry(tmp_path / "models")
        service = make_service(registry)

        async def _run():
            server = make_server(service)
            await server.start()
            assert server.port != 0
            assert server.url == f"http://127.0.0.1:{server.port}"
            await server.close()
            # A second close is a no-op, and restart works.
            await server.close()
            await server.start()
            await server.close()

        asyncio.run(_run())

    def test_serve_forever_reuses_an_already_started_server(self, tmp_path):
        # The CLI starts the server eagerly (to print the resolved port in
        # its banner) and then calls serve_forever; that hand-off must not
        # attempt a second start.
        registry = make_registry(tmp_path / "models")
        service = make_service(registry)

        async def _run():
            server = make_server(service)
            await server.start()
            assert server.started
            forever = asyncio.ensure_future(server.serve_forever())
            try:
                async with ServingClient(server.host, server.port) as client:
                    status, document = await client.get("/healthz")
                assert status == 200
                assert document["status"] == "ok"
            finally:
                forever.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await forever
            # serve_forever closed the server on the way out.
            assert not server.started

        asyncio.run(_run())

    def test_missing_model_fails_at_construction(self, tmp_path):
        registry = make_registry(tmp_path / "models")
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            make_service(registry, name="absent")


# ----------------------------------------------------------------------
# Decision semantics
# ----------------------------------------------------------------------
class TestDecisions:
    """Single and batched decisions match the offline Q-table exactly."""

    def test_batch_matches_offline_best_modes_in_request_order(self, tmp_path):
        registry = make_registry(tmp_path / "models")
        artifact = registry.load("served")
        qtable = artifact.build_policy().agent.qtable
        states = [0, 17, 242, 5, 17, 100]
        expected = [mode.label for mode in qtable.best_modes(states)]

        async def test(server, client, service):
            status, document = await client.decide(states)
            assert status == 200
            assert document["decisions"] == expected
            assert document["count"] == len(states)
            assert "decision" not in document

        with_server(test, registry=registry)

    def test_wire_formats_are_equivalent(self, tmp_path):
        state = CoherenceState.from_index(200)
        as_levels = [
            state.fully_coh_acc,
            state.non_coh_acc_per_tile,
            state.to_llc_per_tile,
            state.tile_footprint,
            state.acc_footprint,
        ]
        as_mapping = {
            "fully_coh_acc": state.fully_coh_acc,
            "non_coh_acc_per_tile": state.non_coh_acc_per_tile,
            "to_llc_per_tile": state.to_llc_per_tile,
            "tile_footprint": state.tile_footprint,
            "acc_footprint": state.acc_footprint,
        }

        async def test(server, client, service):
            status, document = await client.decide([200, as_levels, as_mapping])
            assert status == 200
            assert len(set(document["decisions"])) == 1

        with_server(test, tmp_path=tmp_path)

    def test_single_state_echoes_a_decision_field(self, tmp_path):
        async def test(server, client, service):
            status, document = await client.post("/v1/decide", {"state": 7})
            assert status == 200
            assert document["count"] == 1
            assert document["decision"] == document["decisions"][0]

        with_server(test, tmp_path=tmp_path)

    def test_empty_batch_is_a_valid_noop(self, tmp_path):
        async def test(server, client, service):
            status, document = await client.decide([])
            assert status == 200
            assert document["decisions"] == []
            assert document["count"] == 0

        with_server(test, tmp_path=tmp_path)

    def test_biased_table_decides_its_mode_everywhere(self, tmp_path):
        artifact = make_artifact(bias_mode=CoherenceMode.FULL_COH)
        registry = make_registry(tmp_path / "models", artifact)

        async def test(server, client, service):
            status, document = await client.decide(list(range(NUM_STATES)))
            assert status == 200
            assert document["decisions"] == ["full-coh"] * NUM_STATES

        with_server(test, registry=registry)


# ----------------------------------------------------------------------
# The per-snapshot decision table
# ----------------------------------------------------------------------
def _tied_table() -> QTable:
    """Every state ties exactly between two modes after the first."""
    table = QTable()
    for state in range(NUM_STATES):
        pair = (
            (CoherenceMode.LLC_COH_DMA, CoherenceMode.FULL_COH)
            if state % 2
            else (CoherenceMode.COH_DMA, CoherenceMode.FULL_COH)
        )
        for mode in pair:
            table.update(state, mode, 0.5, 1.0)
    return table


#: Raw reply bytes to ``{"state": 41}`` from ``make_artifact()``, recorded
#: before decisions were served from a table.  The artifact digest and
#: ``repro_version`` embed the library version, so a version bump
#: re-records them.
GOLDEN_SINGLE_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 216\r\nConnection: close\r\n\r\n"
    b'{"count": 1, "decision": "coh-dma", "decisions": ["coh-dma"], '
    b'"digest": "2d6e4f9a152420b35e3d25c662e93a4b28fb244fd97f7a0c5e2a3e80762cd6f7", '
    b'"generation": 0, "model": "served", "protocol": 1, "repro_version": "1.0.0"}'
)

#: The 64 states of the golden batch request, and its reply's SHA-256 and
#: length, recorded alongside :data:`GOLDEN_SINGLE_REPLY`.
GOLDEN_BATCH_STATES = [(37 * i + 5) % NUM_STATES for i in range(64)]
GOLDEN_BATCH_SHA256 = "6fed6ba51625326e2017990447b9054e573f3e3127f802a72c2ae2316a5f8848"
GOLDEN_BATCH_BYTES = 1172


class TestDecisionTable:
    """Decisions come from a table built once per loaded snapshot."""

    @pytest.mark.parametrize(
        "qtable, expected",
        [
            (None, None),
            # Every state ties: the first mode of the canonical order wins.
            (QTable(), (COHERENCE_MODES[0].label,) * NUM_STATES),
            (
                _tied_table(),
                tuple("llc-coh-dma" if s % 2 else "coh-dma" for s in range(NUM_STATES)),
            ),
        ],
        ids=["trained", "untrained", "tied-later-modes"],
    )
    def test_table_equals_offline_best_modes(self, tmp_path, qtable, expected):
        artifact = make_artifact(qtable=qtable)
        service = make_service(make_registry(tmp_path / "models", artifact))
        offline = artifact.build_policy().agent.qtable.best_modes(range(NUM_STATES))
        assert service.model.decisions == tuple(mode.label for mode in offline)
        if expected is not None:
            assert service.model.decisions == expected

    def test_decide_makes_no_best_modes_call(self, tmp_path, monkeypatch):
        registry = make_registry(tmp_path / "models")
        qtable = registry.load("served").build_policy().agent.qtable
        states = [0, 17, 242, 5, 17, 100]
        expected = [mode.label for mode in qtable.best_modes(states)]
        service = make_service(registry)

        def forbidden(self, states):
            raise AssertionError("decide() ran QTable.best_modes")

        monkeypatch.setattr(QTable, "best_modes", forbidden)
        assert service.decide({"states": states})["decisions"] == expected
        assert service.decide({"state": 242})["decision"] == expected[2]

    def test_reply_bytes_match_the_golden_recording(self, tmp_path):
        async def test(server, client, service):
            single = await raw_exchange(server.port, decide_request(b'{"state": 41}'))
            batch = await raw_exchange(
                server.port,
                decide_request(json.dumps({"states": GOLDEN_BATCH_STATES}).encode()),
            )
            return single, batch

        single, batch = with_server(test, tmp_path=tmp_path)
        assert single == GOLDEN_SINGLE_REPLY
        assert len(batch) == GOLDEN_BATCH_BYTES
        assert hashlib.sha256(batch).hexdigest() == GOLDEN_BATCH_SHA256

    def test_reload_serves_the_new_table_and_digest(self, tmp_path):
        first = make_artifact(bias_mode=CoherenceMode.LLC_COH_DMA)
        second = make_artifact(bias_mode=CoherenceMode.COH_DMA)
        registry = make_registry(tmp_path / "models", first)
        service = make_service(registry)
        assert service.decide({"states": [0, 242]})["decisions"] == ["llc-coh-dma"] * 2
        registry.save(second, replace=True)
        assert service.check_reload() is True
        response = service.decide({"states": [0, 242]})
        assert response["decisions"] == ["coh-dma"] * 2
        assert response["digest"] == second.digest
        assert response["generation"] == 1
        assert service.model.decisions == ("coh-dma",) * NUM_STATES

    def test_state_outside_a_smaller_table_is_an_invalid_request(self, tmp_path):
        registry = make_registry(
            tmp_path / "models", make_artifact(seed=3, qtable=QTable(num_states=150))
        )

        async def test(server, client, service):
            reply = await raw_exchange(
                server.port, decide_request(b'{"states": [3, 150, 200]}')
            )
            status, covered = await client.decide([149])
            return reply, status, covered, service.stats.snapshot()["errors"]

        reply, status, covered, errors = with_server(test, registry=registry)
        # The envelope recorded before decisions were served from a table.
        assert reply == (
            b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
            b"Content-Length: 96\r\nConnection: close\r\n\r\n"
            b'{"error": {"message": "state index 150 out of range", '
            b'"status": 400, "type": "invalid-request"}}'
        )
        assert status == 200 and covered["decisions"] == ["non-coh-dma"]
        assert errors == {"invalid-request": 1}


# ----------------------------------------------------------------------
# Provenance and hot reload
# ----------------------------------------------------------------------
class TestProvenanceAndReload:
    """Responses are attributable; reloads are atomic and digest-gated."""

    def test_every_response_carries_digest_and_version(self, tmp_path):
        registry = make_registry(tmp_path / "models")
        expected_digest = registry.load("served").digest

        async def test(server, client, service):
            for path, document in [
                ("/v1/decide", {"state": 1}),
                ("/v1/decide", {"states": [1, 2]}),
            ]:
                status, response = await client.post(path, document)
                assert status == 200
                assert response["digest"] == expected_digest
                assert response["model"] == "served"
                assert response["repro_version"] == __version__
                assert response["generation"] == 0

        with_server(test, registry=registry)

    def test_reload_swaps_digest_and_bumps_generation(self, tmp_path):
        registry = make_registry(tmp_path / "models")
        first = registry.load("served").digest
        second_artifact = make_artifact(seed=99)
        assert second_artifact.digest != first

        async def test(server, client, service):
            registry.save(second_artifact, replace=True)
            status, document = await client.post("/v1/reload", {})
            assert status == 200
            assert document["reloaded"] is True
            assert document["digest"] == second_artifact.digest
            assert document["generation"] == 1
            status, decided = await client.post("/v1/decide", {"state": 0})
            assert decided["digest"] == second_artifact.digest
            assert decided["generation"] == 1

        with_server(test, registry=registry)

    def test_rewriting_the_same_digest_does_not_reload(self, tmp_path):
        registry = make_registry(tmp_path / "models")

        async def test(server, client, service):
            registry.save(make_artifact(), replace=True)  # same content
            status, document = await client.post("/v1/reload", {})
            assert status == 200
            assert document["reloaded"] is False
            assert document["generation"] == 0
            assert service.stats.reloads == 0

        with_server(test, registry=registry)

    def test_unchanged_file_is_a_cheap_noop(self, tmp_path):
        registry = make_registry(tmp_path / "models")

        async def test(server, client, service):
            status, document = await client.post("/v1/reload", {})
            assert document["reloaded"] is False

        with_server(test, registry=registry)

    def test_corrupt_replacement_keeps_the_old_model_serving(self, tmp_path):
        registry = make_registry(tmp_path / "models")
        original = registry.load("served").digest

        async def test(server, client, service):
            registry.path_for("served").write_text("{not json")
            status, document = await client.post("/v1/reload", {})
            assert status == ERROR_STATUS["model-error"]
            assert document["error"]["type"] == "model-error"
            # The previous model keeps serving, and the failure is counted.
            status, decided = await client.post("/v1/decide", {"state": 3})
            assert status == 200
            assert decided["digest"] == original
            assert service.stats.reload_errors == 1
            # Repairing the file recovers on the next check.
            registry.save(make_artifact(seed=5), replace=True)
            status, document = await client.post("/v1/reload", {})
            assert status == 200
            assert document["reloaded"] is True

        with_server(test, registry=registry)

    def test_background_reload_loop_picks_up_changes(self, tmp_path):
        registry = make_registry(tmp_path / "models")
        replacement = make_artifact(seed=99)

        async def _run():
            service = make_service(registry)
            server = make_server(service, reload_interval=0.05)
            async with server:
                async with ServingClient(server.host, server.port) as client:
                    registry.save(replacement, replace=True)
                    for _ in range(100):
                        await asyncio.sleep(0.05)
                        _, document = await client.get("/healthz")
                        if document["digest"] == replacement.digest:
                            break
                    else:
                        raise AssertionError("background reload never happened")
                    assert document["generation"] == 1

        asyncio.run(_run())


# ----------------------------------------------------------------------
# Error envelopes over the wire
# ----------------------------------------------------------------------
class TestErrorEnvelopes:
    """Every failure maps to a typed JSON envelope; never a traceback."""

    @pytest.mark.parametrize(
        "path,method,body,expected_type",
        [
            ("/v1/decide", "POST", {"states": [999]}, "invalid-request"),
            ("/v1/decide", "POST", {"wrong": 1}, "invalid-request"),
            ("/v1/decide", "POST", [], "invalid-request"),
            ("/v1/decide", "GET", None, "invalid-request"),
            ("/nope", "GET", None, "not-found"),
            ("/v1/whatif", "POST", {"scenario": "no-such"}, "not-found"),
            ("/v1/whatif", "POST", {"scenario": ""}, "invalid-request"),
            ("/v1/whatif", "POST", {"scenario": "quickstart", "policies": ["x"]},
             "invalid-request"),
            ("/v1/whatif", "POST", {"scenario": "quickstart", "bogus": 1},
             "invalid-request"),
            ("/v1/whatif", "POST", {"scenario": "quickstart", "max_events": -1},
             "invalid-request"),
        ],
    )
    def test_typed_envelopes(self, tmp_path, path, method, body, expected_type):
        async def test(server, client, service):
            status, document = await client.request(method, path, body)
            assert status == ERROR_STATUS[expected_type]
            error = document["error"]
            assert error["type"] == expected_type
            assert error["status"] == status
            assert "Traceback" not in json.dumps(document)
            assert service.stats.errors.get(expected_type, 0) >= 1

        with_server(test, tmp_path=tmp_path)

    def test_malformed_json_body_is_an_invalid_request(self, tmp_path):
        async def test(server, client, service):
            await client.connect()
            body = b"{this is not json"
            head = (
                f"POST /v1/decide HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            client._writer.write(head + body)
            await client._writer.drain()
            status, document = await client._read_response()
            assert status == 400
            assert document["error"]["type"] == "invalid-request"

        with_server(test, tmp_path=tmp_path)

    def test_oversized_batch_is_rejected_with_the_limit_named(self, tmp_path):
        async def test(server, client, service):
            status, document = await client.decide([0] * 9)
            assert status == 400
            assert "8" in document["error"]["message"]

        with_server(test, tmp_path=tmp_path, max_batch=8)

    def test_oversized_body_gets_a_413_envelope(self, tmp_path):
        async def test(server, client, service):
            await client.connect()
            head = (
                "POST /v1/decide HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: 999999999\r\n\r\n"
            ).encode("latin-1")
            client._writer.write(head)
            await client._writer.drain()
            status, document = await client._read_response()
            assert status == 413
            assert document["error"]["type"] == "payload-too-large"

        with_server(test, tmp_path=tmp_path)

    def test_whatif_budget_exhaustion_is_a_simulation_error(self, tmp_path):
        async def test(server, client, service):
            status, document = await client.post(
                "/v1/whatif", {"scenario": "quickstart", "max_events": 10}
            )
            assert status == ERROR_STATUS["simulation-error"]
            assert document["error"]["type"] == "simulation-error"

        with_server(test, tmp_path=tmp_path)


# ----------------------------------------------------------------------
# What-if queries
# ----------------------------------------------------------------------
class TestWhatIf:
    """Bounded scenario evaluation against the served model."""

    def test_whatif_requires_a_trainable_artifact(self, tmp_path):
        # The toy harness artifact references a scenario that does not
        # exist, so what-if runs use an explicit real scenario name and
        # evaluate the served table on it.
        async def test(server, client, service):
            status, document = await client.post(
                "/v1/whatif", {"scenario": "quickstart"}
            )
            assert status == 200
            assert document["scenario"] == "quickstart"
            assert document["pretrained_digest"] == service.model.digest
            assert document["max_events"] == service.whatif_max_events
            assert set(document["policies"]) == {"cohmeleon"}
            entry = document["policies"]["cohmeleon"]
            assert entry["execution_cycles"] > 0
            assert entry["ddr_accesses"] > 0

        with_server(test, tmp_path=tmp_path, whatif_max_events=2_000_000)

    def test_requested_budget_is_capped_at_the_server_limit(self, tmp_path):
        async def test(server, client, service):
            status, document = await client.post(
                "/v1/whatif",
                {"scenario": "quickstart", "max_events": 10**9},
            )
            assert status == 200
            assert document["max_events"] == service.whatif_max_events

        with_server(test, tmp_path=tmp_path, whatif_max_events=2_000_000)

    def test_fixed_policy_whatif_does_not_touch_the_model(self, tmp_path):
        async def test(server, client, service):
            status, document = await client.post(
                "/v1/whatif",
                {"scenario": "quickstart", "policies": ["fixed-non-coh-dma"]},
            )
            assert status == 200
            assert document["pretrained_digest"] is None
            assert set(document["policies"]) == {"fixed-non-coh-dma"}

        with_server(test, tmp_path=tmp_path, whatif_max_events=2_000_000)


# ----------------------------------------------------------------------
# Stats surface
# ----------------------------------------------------------------------
class TestStats:
    """Request counts, decision totals, histograms."""

    def test_stats_counts_requests_decisions_and_batches(self, tmp_path):
        async def test(server, client, service):
            await client.decide([0, 1, 2])
            await client.decide([3])
            await client.post("/v1/decide", {"states": [999]})  # error
            status, document = await client.get("/stats")
            assert status == 200
            assert document["requests"]["POST /v1/decide"] == 3
            assert document["decisions_served"] == 4
            assert document["errors"]["invalid-request"] == 1
            assert document["latency"]["count"] == 3
            assert document["latency"]["p50_ms"] is not None
            assert document["latency"]["p99_ms"] is not None
            assert document["batch_sizes"]["count"] == 2

        with_server(test, tmp_path=tmp_path)

    def test_latency_histogram_percentiles_are_bucket_bounds(self):
        from repro.serving.service import LatencyHistogram

        histogram = LatencyHistogram()
        assert histogram.percentile(0.5) is None
        for _ in range(99):
            histogram.observe(0.2)
        histogram.observe(400.0)
        assert histogram.percentile(0.50) == 0.25
        assert histogram.percentile(0.99) == 0.25
        assert histogram.percentile(1.0) == 500.0
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 100
