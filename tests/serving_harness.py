"""Shared helpers for the serving test modules.

Builds small deterministic trained-policy artifacts without running any
simulation (seeded direct Q-table updates), plus the in-process
server-and-client scaffolding the serving tests drive.  Not a test module
itself (no ``test_`` prefix, so pytest never collects it).
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.core.policies import CohmeleonPolicy
from repro.core.qtable import QTable
from repro.core.state import NUM_STATES
from repro.models.artifact import PolicyArtifact, build_provenance
from repro.models.registry import ModelRegistry
from repro.serving.http import ServingServer
from repro.serving.service import PolicyService
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.utils.rng import SeededRNG


def make_artifact(
    name: str = "served",
    seed: int = 11,
    updates: int = 500,
    bias_mode: Optional[CoherenceMode] = None,
    qtable: Optional[QTable] = None,
) -> PolicyArtifact:
    """Build a deterministic trained artifact without simulating anything.

    With ``bias_mode`` the table is constructed so that **every** state's
    greedy decision is that mode (its Q-value is set to 1.0 everywhere,
    all others stay 0.0) — two artifacts biased to different modes give
    fully distinguishable decision vectors, which is what the torn-model
    tests need.  With ``qtable`` the artifact holds that table as given.
    Otherwise the table is filled with ``updates`` seeded random updates.
    """
    policy = CohmeleonPolicy(rng=SeededRNG(seed))
    table = policy.agent.qtable
    if qtable is not None:
        policy.agent.qtable = qtable
    elif bias_mode is not None:
        for state in range(NUM_STATES):
            table.update(state, bias_mode, 1.0, 1.0)
    else:
        rng = SeededRNG(seed * 1000 + 13)
        for _ in range(updates):
            table.update(
                rng.randint(0, NUM_STATES - 1),
                COHERENCE_MODES[rng.randint(0, len(COHERENCE_MODES) - 1)],
                rng.uniform(-1.0, 1.0),
                0.1,
            )
    policy.freeze()
    return PolicyArtifact.from_policy(
        policy, name, build_provenance("toy-scenario", "0" * 64, seed, 0)
    )


def make_registry(root, artifact: Optional[PolicyArtifact] = None) -> ModelRegistry:
    """A registry rooted at ``root`` holding ``artifact`` (built if omitted)."""
    registry = ModelRegistry(root)
    registry.root.mkdir(parents=True, exist_ok=True)
    registry.save(artifact if artifact is not None else make_artifact())
    return registry


def make_service(
    registry: ModelRegistry, name: str = "served", **kwargs
) -> PolicyService:
    """A :class:`PolicyService` over ``registry`` (kwargs pass through)."""
    return PolicyService(registry, name, **kwargs)


def make_server(service: PolicyService, reload_interval: float = 0.0) -> ServingServer:
    """An unstarted loopback server (ephemeral port) over ``service``."""
    return ServingServer(service, reload_interval=reload_interval)


async def raw_exchange(port: int, request: bytes, timeout: float = 10.0) -> bytes:
    """Send raw ``request`` bytes; return every byte written until the server closes.

    The server must end the connection — on a ``Connection: close``
    request or a framing error — within ``timeout`` seconds, or this
    raises :class:`asyncio.TimeoutError`.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        await writer.wait_closed()


def decide_request(body: bytes, *headers: bytes) -> bytes:
    """Raw ``POST /v1/decide`` bytes carrying ``body``.

    Without ``headers`` the request carries the body's true
    ``Content-Length`` and ``Connection: close``; with them, exactly the
    given header lines instead.
    """
    lines = headers or (b"Content-Length: %d" % len(body), b"Connection: close")
    return (
        b"POST /v1/decide HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        + b"".join(line + b"\r\n" for line in lines)
        + b"\r\n"
        + body
    )
