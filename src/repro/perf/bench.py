"""Benchmark definitions for the simulation-core hot paths.

Each benchmark exercises one layer in isolation — the same layers the
profile-guided optimisations in this package's history targeted — plus one
end-to-end benchmark that regenerates a reduced Figure 9 headline sweep.
Benchmarks are deterministic: given the same code and scale they perform a
fixed amount of ``work`` and produce a stable ``checksum`` of their
simulation results, so report diffs can separate timing changes from
behavioural changes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# The layers the benchmarks time are imported here, not inside each
# benchmark, so that no timed region pays for importing them.
from repro.core.agent import QLearningAgent
from repro.core.policies import CohmeleonPolicy
from repro.core.state import NUM_STATES, discretize_snapshot
from repro.errors import ConfigurationError
from repro.experiments.socs import run_soc_comparison
from repro.experiments.sweep import RunConfig, SweepRunner
from repro.models.artifact import PolicyArtifact, build_provenance
from repro.models.registry import ModelRegistry
from repro.runtime.status import SystemSnapshot
from repro.serving.client import ServingClient
from repro.serving.http import ServingServer
from repro.serving.service import PolicyService
from repro.sim.engine import Engine, ResumeAt
from repro.sim.resources import ResourceStats
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.soc.config import soc_preset
from repro.soc.noc import MeshNoC, TileCoordinate
from repro.soc.soc import Soc
from repro.units import KB
from repro.utils.rng import SeededRNG, derive_seed

#: Scale knobs per benchmark: ``quick`` is sized for a CI smoke lane (a few
#: seconds on the whole suite), ``default`` for locally meaningful numbers.
_SCALES = ("quick", "default")


@dataclass(frozen=True)
class BenchmarkResult:
    """Outcome of one benchmark run."""

    name: str
    wall_s: float
    work: int
    unit: str
    checksum: str

    @property
    def rate(self) -> float:
        """Work units per second (the regression-gated metric)."""
        return self.work / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON form stored in the perf report."""
        return {
            "wall_s": round(self.wall_s, 6),
            "work": self.work,
            "unit": self.unit,
            "rate": round(self.rate, 3),
            "checksum": self.checksum,
        }


def _digest(payload: object) -> str:
    """Stable hex digest of a JSON-serialisable payload."""
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Engine event loop
# ----------------------------------------------------------------------
def _bench_engine_events(quick: bool) -> Tuple[int, str]:
    """Time-ordered interleaving of many generator processes."""
    processes = 300 if quick else 600
    steps = 100 if quick else 160
    engine = Engine()
    rng = SeededRNG(7)

    def worker(delays: List[float]):
        for index, delay in enumerate(delays):
            if index % 7 == 3:
                yield ResumeAt(engine.now + delay)
            else:
                yield delay

    for index in range(processes):
        delays = [rng.uniform(0.5, 50.0) for _ in range(steps)]
        engine.spawn(f"p{index}", worker(delays), start_delay=rng.uniform(0.0, 10.0))
    engine.run()
    return engine.events_processed, _digest(
        {"now": round(engine.now, 6), "events": engine.events_processed}
    )


# ----------------------------------------------------------------------
# Memory-system access path (datapath + caches + DRAM)
# ----------------------------------------------------------------------
def _bench_memory_access(quick: bool) -> Tuple[int, str]:
    """DMA transfers and flushes through every coherence mode."""
    repeats = 8 if quick else 24
    soc = Soc(soc_preset("SoC1").with_line_size(256))
    for partition in soc.llc_partitions:
        partition.port.stats = ResourceStats()
    buffer = soc.allocate_buffer(512 * KB, name="bench")
    soc.warm_buffer(buffer, cpu_index=0)
    acc_tile = soc.accelerator_tile_name(0)
    private = soc.private_cache_of(acc_tile)

    now = 0.0
    totals = 0
    for repeat in range(repeats):
        for mode in COHERENCE_MODES:
            if mode is CoherenceMode.FULL_COH and private is None:
                continue
            segments = buffer.slice((repeat * 64 * KB) % (256 * KB), 128 * KB)
            finish, flush_stats = soc.datapath.flush_for_invocation(now, mode, segments)
            now = max(now, finish)
            finish, stats = soc.datapath.dma_read(
                now, acc_tile, segments, mode, burst_bytes=4 * KB, private_cache=private
            )
            now = max(now, finish)
            finish, wstats = soc.datapath.dma_write(
                now, acc_tile, segments, mode, burst_bytes=4 * KB, private_cache=private
            )
            now = max(now, finish)
            stats.merge(wstats).merge(flush_stats)
            totals += stats.llc_hits + stats.llc_misses + stats.dram_lines
            totals += stats.private_hits + stats.private_misses
    checksum = _digest(
        {
            "now": round(now, 6),
            "llc": [
                {
                    **partition.cache.stats.as_dict(),
                    **{f"port_{k}": v for k, v in partition.port.stats.as_dict().items()},
                }
                for partition in soc.llc_partitions
            ],
            "dram": [ctrl.counters.as_dict() for ctrl in soc.dram_controllers],
        }
    )
    return totals, checksum


# ----------------------------------------------------------------------
# NoC routing
# ----------------------------------------------------------------------
def _bench_noc_routing(quick: bool) -> Tuple[int, str]:
    """XY-routed transfers converging on shared memory-tile links."""
    transfers = 50_000 if quick else 200_000
    noc = MeshNoC(rows=4, cols=4, hop_cycles=1.0, link_bytes_per_cycle=4.0)
    sources = []
    for row in range(4):
        for col in range(4):
            name = f"t{row}{col}"
            noc.place_tile(name, TileCoordinate(row, col))
            sources.append(name)
    mem_tiles = [(0, "t00"), (1, "t03"), (2, "t30"), (3, "t33")]
    for mem_tile, name in mem_tiles:
        noc.register_memory_tile(mem_tile, name)
        noc.memory_link(mem_tile).stats = ResourceStats()

    finish = 0.0
    for index in range(transfers):
        src = sources[index % len(sources)]
        mem_tile, mem_name = mem_tiles[(index // 3) % len(mem_tiles)]
        finish = noc.transfer(float(index), src, mem_tile, mem_name, 64 + (index % 7) * 32)
    links = {tile: noc.memory_link(tile).stats.as_dict() for tile, _name in mem_tiles}
    return transfers, _digest({"finish": round(finish, 6), "links": links})


# ----------------------------------------------------------------------
# Q-learning decision step
# ----------------------------------------------------------------------
def _bench_qlearning_step(quick: bool) -> Tuple[int, str]:
    """Sense-discretise-decide-update cycle of the Cohmeleon agent."""
    steps = 30_000 if quick else 120_000
    agent = QLearningAgent(rng=SeededRNG(11))
    rng = SeededRNG(13)
    labels = [mode.label for mode in CoherenceMode]
    for step in range(steps):
        agent.set_training_progress(step / steps)
        snapshot = SystemSnapshot(
            target_footprint_bytes=rng.randint(1, 2048) * KB,
            target_mem_tiles=(0, 1),
            active_per_mode={label: rng.randint(0, 3) for label in labels},
            non_coh_per_target_tile=rng.uniform(0.0, 3.0),
            llc_users_per_target_tile=rng.uniform(0.0, 3.0),
            tile_footprint_bytes=rng.uniform(0.0, 2048.0) * KB,
            active_footprint_bytes=rng.randint(0, 4096) * KB,
            active_accelerators=rng.randint(0, 6),
            l2_bytes=32 * KB,
            llc_partition_bytes=256 * KB,
            llc_total_bytes=1024 * KB,
        )
        state = discretize_snapshot(snapshot)
        mode = agent.select_action(state)
        agent.update(state, mode, reward=rng.uniform(-1.0, 1.0))
    checksum = _digest(
        {
            "qsum": round(math.fsum(v for row in agent.qtable.values for v in row), 9),
            "coverage": round(agent.qtable.coverage(), 9),
            "decisions": agent.decisions,
        }
    )
    return steps, checksum


# ----------------------------------------------------------------------
# End-to-end Figure 9 headline path
# ----------------------------------------------------------------------
def _bench_fig9_headline(quick: bool) -> Tuple[int, str]:
    """Reduced Figure 9 sweep through the real experiment entry point."""
    if quick:
        labels: Sequence[str] = ("SoC1", "SoC6")
        iterations = 1
    else:
        labels = ("SoC0-Streaming", "SoC1", "SoC4", "SoC6")
        iterations = 2
    comparison = run_soc_comparison(
        labels=labels,
        training_iterations=iterations,
        seed=29,
        # Pin the serial backend explicitly: the benchmark times the
        # simulation itself, never pool management or pickling.
        runner=SweepRunner(config=RunConfig(workers=1, backend="serial")),
    )
    payload = {
        soc: {name: ev.to_dict() for name, ev in evaluations.items()}
        for soc, evaluations in comparison.evaluations.items()
    }
    invocations = sum(
        len(phase.get("invocations", []))
        for evaluations in payload.values()
        for ev in evaluations.values()
        for phase in ev["result"]["phases"]
    )
    return invocations, _digest(payload)


# ----------------------------------------------------------------------
# Serving decision path (HTTP server + concurrent clients)
# ----------------------------------------------------------------------
def _bench_serving(quick: bool) -> Tuple[int, str]:
    """Batched decisions through the full asyncio serving stack.

    Builds a deterministic trained table (seeded updates, no simulation),
    serves it from a temporary registry, and drives it with concurrent
    keep-alive clients issuing batched ``/v1/decide`` requests.  ``work``
    is the total decisions served; the checksum covers every decision
    label in request order (but not the digest or library version), so it
    is identical across machines and core backends — exactly the
    determinism the serving contract promises.
    """
    clients = 4 if quick else 8
    requests = 50 if quick else 150
    batch = 64

    policy = CohmeleonPolicy(rng=SeededRNG(11))
    table = policy.agent.qtable
    fill = SeededRNG(13)
    for _ in range(3000):
        table.update(
            fill.randint(0, NUM_STATES - 1),
            COHERENCE_MODES[fill.randint(0, len(COHERENCE_MODES) - 1)],
            fill.uniform(-1.0, 1.0),
            0.1,
        )
    policy.freeze()
    artifact = PolicyArtifact.from_policy(
        policy, "bench-serving", build_provenance("bench-serving", "0" * 64, 11, 0)
    )

    async def _client(
        host: str, port: int, index: int, sink: "List[List[List[str]]]"
    ) -> int:
        rng = SeededRNG(derive_seed(17, "bench-serving", str(index)))
        served = 0
        async with ServingClient(host, port) as client:
            for _ in range(requests):
                states = [rng.randint(0, NUM_STATES - 1) for _ in range(batch)]
                status, document = await client.decide(states)
                if status != 200:
                    raise RuntimeError(f"decision request failed with {status}")
                decisions = [str(label) for label in document["decisions"]]
                sink[index].append(decisions)
                served += len(decisions)
        return served

    async def _run() -> "Tuple[int, List[List[List[str]]]]":
        with tempfile.TemporaryDirectory() as tmp:
            registry = ModelRegistry(tmp)
            registry.save(artifact)
            service = PolicyService(registry, "bench-serving")
            async with ServingServer(service, reload_interval=0) as server:
                sink: List[List[List[str]]] = [[] for _ in range(clients)]
                totals = await asyncio.gather(
                    *(
                        _client(server.host, server.port, index, sink)
                        for index in range(clients)
                    )
                )
                return sum(totals), sink

    served, sink = asyncio.run(_run())
    return served, _digest(sink)


#: Registry of benchmark callables; each returns ``(work, checksum)``.
_BENCHMARKS: Dict[str, Tuple[Callable[[bool], Tuple[int, str]], str]] = {
    "engine_events": (_bench_engine_events, "events"),
    "memory_access": (_bench_memory_access, "line-accesses"),
    "noc_routing": (_bench_noc_routing, "transfers"),
    "qlearning_step": (_bench_qlearning_step, "decisions"),
    "fig9_headline": (_bench_fig9_headline, "invocations"),
    "serving": (_bench_serving, "decisions"),
}

#: Canonical benchmark ordering (isolated layers first, end-to-end last).
BENCHMARK_NAMES: Tuple[str, ...] = tuple(_BENCHMARKS)


def run_benchmark(name: str, quick: bool = False) -> BenchmarkResult:
    """Run one benchmark by name and return its measurements."""
    try:
        fn, unit = _BENCHMARKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    start = time.perf_counter()
    work, checksum = fn(quick)
    wall = time.perf_counter() - start
    return BenchmarkResult(name=name, wall_s=wall, work=work, unit=unit, checksum=checksum)


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    progress: Optional[Callable[[str, BenchmarkResult], None]] = None,
) -> List[BenchmarkResult]:
    """Run the selected benchmarks (all by default) in canonical order."""
    selected = list(names) if names else list(BENCHMARK_NAMES)
    for name in selected:
        if name not in _BENCHMARKS:
            raise ConfigurationError(
                f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}"
            )
    results = []
    for name in BENCHMARK_NAMES:
        if name not in selected:
            continue
        result = run_benchmark(name, quick=quick)
        if progress is not None:
            progress(name, result)
        results.append(result)
    return results
