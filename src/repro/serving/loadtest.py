"""Deterministic load generation and SLO checking for the serving stack.

:func:`run_load` drives a running server with ``clients`` concurrent
keep-alive connections, each issuing ``requests`` batched decision calls
whose state streams come from :class:`~repro.utils.rng.SeededRNG` (seeded
per client via :func:`~repro.utils.rng.derive_seed`), so two runs against
the same model ask for exactly the same decisions.  Latencies are kept
exactly (one ``perf_counter`` pair per request) and reduced to
nearest-rank percentiles; throughput is total decisions over wall-clock.

:func:`check_slo` compares a :class:`LoadReport` against the SLO block
committed next to the serving benchmark baseline
(``benchmarks/results/BENCH_serving.json``), returning the list of
violations — the CI serving job fails when that list is non-empty.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.state import NUM_STATES
from repro.errors import ServingError
from repro.serving.client import ServingClient
from repro.utils.host import host_metadata
from repro.utils.rng import SeededRNG, derive_seed

#: SLO keys :func:`check_slo` understands, with their comparison sense.
SLO_KEYS = ("p99_ms_max", "p50_ms_max", "decisions_per_s_min", "errors_max")


@dataclass
class LoadReport:
    """Everything one load run measured."""

    clients: int
    requests_per_client: int
    batch: int
    seed: int
    #: Total decisions served across all clients.
    decisions: int
    #: Wall-clock duration of the whole run (seconds).
    duration_s: float
    #: Decisions per second over the wall clock.
    decisions_per_s: float
    #: Nearest-rank latency percentiles (milliseconds).
    latency_ms: Dict[str, float]
    #: Every distinct model digest observed in responses.
    digests: List[str] = field(default_factory=list)
    #: Non-200 responses (count by status code).
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def error_count(self) -> int:
        """Total non-200 responses across the run."""
        return sum(self.errors.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON form (what the CI job uploads as the latency report)."""
        return {
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "batch": self.batch,
            "seed": self.seed,
            "decisions": self.decisions,
            "duration_s": self.duration_s,
            "decisions_per_s": self.decisions_per_s,
            "latency_ms": dict(self.latency_ms),
            "digests": list(self.digests),
            "errors": dict(self.errors),
            "host": host_metadata(),
        }


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of pre-sorted ``sorted_values``."""
    if not sorted_values:
        raise ServingError("no latencies recorded")
    rank = max(1, int(round(fraction * len(sorted_values))))
    return sorted_values[min(rank, len(sorted_values)) - 1]


async def _client_worker(
    host: str,
    port: int,
    client_index: int,
    requests: int,
    batch: int,
    seed: int,
    latencies_ms: List[float],
    digests: Dict[str, int],
    errors: Dict[str, int],
) -> int:
    """One load client: seeded state stream, exact per-request latency."""
    rng = SeededRNG(derive_seed(seed, "serving-load", str(client_index)))
    decisions = 0
    async with ServingClient(host, port) as client:
        for _ in range(requests):
            states = [rng.randint(0, NUM_STATES - 1) for _ in range(batch)]
            start = time.perf_counter()
            status, document = await client.decide(states)
            latencies_ms.append((time.perf_counter() - start) * 1000.0)
            if status != 200:
                errors[str(status)] = errors.get(str(status), 0) + 1
                continue
            digest = str(document.get("digest"))
            digests[digest] = digests.get(digest, 0) + 1
            decisions += int(document.get("count", 0))
    return decisions


async def run_load_async(
    host: str,
    port: int,
    clients: int = 8,
    requests: int = 50,
    batch: int = 64,
    seed: int = 17,
) -> LoadReport:
    """Run the load test against ``host:port``; return the report."""
    latencies_ms: List[float] = []
    digests: Dict[str, int] = {}
    errors: Dict[str, int] = {}
    start = time.perf_counter()
    totals = await asyncio.gather(
        *(
            _client_worker(
                host, port, index, requests, batch, seed, latencies_ms, digests, errors
            )
            for index in range(clients)
        )
    )
    duration_s = time.perf_counter() - start
    ordered = sorted(latencies_ms)
    decisions = sum(totals)
    return LoadReport(
        clients=clients,
        requests_per_client=requests,
        batch=batch,
        seed=seed,
        decisions=decisions,
        duration_s=duration_s,
        decisions_per_s=decisions / duration_s if duration_s > 0 else 0.0,
        latency_ms={
            "p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "p99": _percentile(ordered, 0.99),
            "max": ordered[-1],
        },
        digests=sorted(digests),
        errors=errors,
    )


def run_load(
    host: str,
    port: int,
    clients: int = 8,
    requests: int = 50,
    batch: int = 64,
    seed: int = 17,
) -> LoadReport:
    """Synchronous wrapper around :func:`run_load_async`."""
    return asyncio.run(
        run_load_async(
            host, port, clients=clients, requests=requests, batch=batch, seed=seed
        )
    )


def check_slo(report: LoadReport, slo: Dict[str, object]) -> List[str]:
    """Compare ``report`` against an SLO block; return the violations.

    The block uses the :data:`SLO_KEYS` vocabulary: ``*_max`` keys are
    ceilings, ``*_min`` keys are floors.  Unknown keys are rejected so a
    typo in a committed SLO can never silently pass.
    """
    _check_slo_keys(slo)
    violations: List[str] = []
    p99_max = slo.get("p99_ms_max")
    if p99_max is not None and report.latency_ms["p99"] > float(p99_max):
        violations.append(
            f"p99 latency {report.latency_ms['p99']:.3f} ms exceeds the "
            f"ceiling of {float(p99_max):.3f} ms"
        )
    p50_max = slo.get("p50_ms_max")
    if p50_max is not None and report.latency_ms["p50"] > float(p50_max):
        violations.append(
            f"p50 latency {report.latency_ms['p50']:.3f} ms exceeds the "
            f"ceiling of {float(p50_max):.3f} ms"
        )
    rate_min = slo.get("decisions_per_s_min")
    if rate_min is not None and report.decisions_per_s < float(rate_min):
        violations.append(
            f"throughput {report.decisions_per_s:,.0f} decisions/s is below "
            f"the floor of {float(rate_min):,.0f}"
        )
    errors_max = slo.get("errors_max")
    if errors_max is not None and report.error_count > int(errors_max):
        violations.append(
            f"{report.error_count} non-200 responses exceed the allowed "
            f"{int(errors_max)}"
        )
    return violations


def _check_slo_keys(slo: Dict[str, object]) -> None:
    unknown = set(slo) - set(SLO_KEYS)
    if unknown:
        raise ServingError(f"unknown SLO keys: {sorted(unknown)}")


def slo_for_scale(baseline: Dict[str, object], scale: str) -> Dict[str, object]:
    """Extract the ``scale`` SLO block from a serving benchmark baseline.

    A block with a key outside :data:`SLO_KEYS` is rejected here, so a
    typo fails before any load is driven.
    """
    slo = baseline.get("slo") if isinstance(baseline, dict) else None
    if not isinstance(slo, dict) or scale not in slo:
        raise ServingError(
            f"baseline has no SLO block for scale {scale!r} "
            "(expected a top-level 'slo' mapping; see docs/serving.md)"
        )
    block = slo[scale]
    if not isinstance(block, dict):
        raise ServingError(f"SLO block for scale {scale!r} must be a mapping")
    _check_slo_keys(block)
    return block
