"""The ``serve_decide`` workload: closed-loop policy serving.

A server is started with ``python -m repro.serving serve`` on a table
trained by seeded updates (no simulation).  This process is the one client:
it holds 2 keep-alive connections, and each connection waits for its reply
before it sends again, as an SoC runtime would.  All request bytes are built
from the seed before timing.  Three requests in four carry 1 state, which
stresses HTTP framing and JSON parsing; one in four carries 64 states, which
stresses the Q-table decision and JSON encoding.

Every reply is checked: replies to the same request must be byte-identical,
and the decisions must equal an offline ``QTable.best_modes`` over the same
states.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    BENCH_DIR,
    ROOT,
    Outcome,
    calibrated,
    clock,
    digest,
    layer_metrics,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    program_env,
    sampling,
    scratch_dir,
)

MODEL = "perfbench"
CONNECTIONS = 2
BATCH = 64
#: Distinct pre-built requests; the load cycles through them.
POOL = 4096
TABLE_UPDATES = 3000
READY_TIMEOUT_S = 60.0
#: Server starts per untraced run; the last one takes the load.
SERVER_STARTS = 5
#: Length of each stretch of the untraced load; calibration samples are
#: taken between stretches, while the server is idle.
STRETCH_S = 0.5
#: Requests sent to each server before anything is measured.
WARMUP_REQUESTS = 2000
#: Requests measured against each server of a traced run.
TRACE_REQUESTS = 30000


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def build_model(seed: int, models_dir: Path):
    """Register a seeded trained table; return the artifact as loaded back."""
    from repro.core.policies import CohmeleonPolicy
    from repro.core.state import NUM_STATES
    from repro.models.artifact import PolicyArtifact, build_provenance
    from repro.models.registry import ModelRegistry
    from repro.soc.coherence import COHERENCE_MODES
    from repro.utils.rng import SeededRNG, derive_seed

    policy = CohmeleonPolicy(rng=SeededRNG(seed))
    fill = SeededRNG(derive_seed(seed, "perfbench-table"))
    for _ in range(TABLE_UPDATES):
        policy.agent.qtable.update(
            fill.randint(0, NUM_STATES - 1),
            COHERENCE_MODES[fill.randint(0, len(COHERENCE_MODES) - 1)],
            fill.uniform(-1.0, 1.0),
            0.1,
        )
    policy.freeze()
    registry = ModelRegistry(models_dir)
    registry.save(
        PolicyArtifact.from_policy(policy, MODEL, build_provenance(MODEL, "0" * 64, seed, 0))
    )
    return registry.load(MODEL)


def build_requests(seed: int) -> Tuple[List[bytes], List[List[int]]]:
    """The raw request pool and the states each request carries."""
    from repro.core.state import NUM_STATES

    rng = random.Random(seed)
    raw: List[bytes] = []
    states: List[List[int]] = []
    for index in range(POOL):
        if index % 4 == 3:
            carried = [rng.randrange(NUM_STATES) for _ in range(BATCH)]
            body = json.dumps({"states": carried})
        else:
            carried = [rng.randrange(NUM_STATES)]
            body = json.dumps({"state": carried[0]})
        data = body.encode("utf-8")
        raw.append(
            b"POST /v1/decide HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(data) + data
        )
        states.append(carried)
    return raw, states


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    ready_s: float


#: (server CPUs, client CPUs), or None to leave placement to the scheduler.
Placement = Optional[Tuple[set, set]]


def cpu_placement() -> Placement:
    """One CPU for the server and another for the client, if there are two.

    Left to the scheduler, the two processes sometimes share a CPU and
    sometimes not, and the throughput of the closed loop jumps between the
    two cases from run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, {cpus[1]}) if len(cpus) >= 2 else None


@contextmanager
def client_placed(placement: Placement) -> Iterator[None]:
    """Keep this process, the client, on its CPU for the duration."""
    if placement is None:
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, placement[1])
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def start_server(
    models_dir: Path, placement: Placement, trace_out: Optional[Path] = None
) -> Server:
    """Start a server and time it from spawn until it reports its address.

    The time is calibrated to the reference host.
    """
    serve_args = [
        "serve", MODEL, "--models-dir", str(models_dir), "--port", "0",
        # No hot-reload polling: the server's only work is the load.
        "--reload-interval", "0",
    ]
    if trace_out is None:
        command = [sys.executable, "-m", "repro.serving", *serve_args]
    else:
        launcher = str(BENCH_DIR / "serve_launcher.py")
        command = [sys.executable, launcher, str(trace_out), *serve_args]
    with sampling(cpus=sorted(placement[0]) if placement else ()) as samples:
        start = clock()
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            env=program_env(),
            cwd=ROOT,
            preexec_fn=(lambda: os.sched_setaffinity(0, placement[0])) if placement else None,
        )
        try:
            line = _read_line(proc, start + READY_TIMEOUT_S)
            ready_s = clock() - start
            url = line.rsplit(" on ", 1)[1].strip()
            port = int(url.rsplit(":", 1)[1])
        except BaseException:
            stop_server(proc)
            raise
    return Server(proc, port, calibrated(ready_s, samples))


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(max(0.0, deadline - clock())):
            raise RuntimeError("server did not report ready in time")
    line = proc.stdout.readline().decode("utf-8")
    if not line.startswith("serving model"):
        raise RuntimeError(f"server failed to start (exit {proc.poll()}): {line!r}")
    return line


def stop_server(proc: subprocess.Popen) -> None:
    """Interrupt the server, as a user would, and wait until it has exited."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


# ----------------------------------------------------------------------
# Closed-loop client
# ----------------------------------------------------------------------
@dataclass
class Load:
    """What one stretch of load observed."""

    latencies_s: List[float] = field(default_factory=list)
    #: Per reply: the decisions it carried.
    decided: List[int] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0

    @property
    def decisions(self) -> int:
        return sum(self.decided)

    def extend(self, other: "Load") -> None:
        """Append a later stretch of load to this one."""
        self.latencies_s += other.latencies_s
        self.decided += other.decided
        self.failed += other.failed
        self.wall_s += other.wall_s
        self.client_cpu_s += other.client_cpu_s
        self.server_cpu_s += other.server_cpu_s


class _Connection:
    __slots__ = ("sock", "index", "sent_at", "buffer")

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.index = -1
        self.sent_at = 0.0
        self.buffer = b""


def _response(buffer: bytes) -> Optional[Tuple[int, bytes, bytes]]:
    """``(status, body, rest)`` once ``buffer`` holds a whole response."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    mark = buffer.find(b"Content-Length: ", 0, end)
    length = int(buffer[mark + 16 : buffer.index(b"\r\n", mark)])
    total = end + 4 + length
    if len(buffer) < total:
        return None
    return int(buffer[9:12]), buffer[end + 4 : total], buffer[total:]


def drive(
    server: Server,
    requests: List[bytes],
    states: List[List[int]],
    replies: Dict[int, bytes],
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    offset: int = 0,
) -> Load:
    """Closed-loop load for ``seconds`` or ``count`` requests.

    The requests sent are the pool's, in order from entry ``offset``.
    ``replies`` keeps the first reply body to each pool entry; any later
    reply that differs from it is a failure.
    """
    load = Load()
    connections = [_Connection(server.port) for _ in range(CONNECTIONS)]
    selector = selectors.DefaultSelector()
    issued = 0
    try:
        cpu0, server_cpu0 = time.process_time(), proc_cpu_s(server.proc.pid)
        start = clock()
        deadline = start + seconds if seconds is not None else None

        def send(conn: _Connection) -> bool:
            # Every connection sends once, however short the load.
            nonlocal issued
            if (count is not None and issued >= count) or (
                deadline is not None and issued >= CONNECTIONS and clock() >= deadline
            ):
                return False
            conn.index = (offset + issued) % len(requests)
            issued += 1
            conn.sent_at = clock()
            conn.sock.sendall(requests[conn.index])
            return True

        for conn in connections:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            send(conn)
        open_connections = len(connections)
        while open_connections:
            for key, _events in selector.select():
                conn = key.data
                data = conn.sock.recv(65536)
                if not data:
                    raise RuntimeError("server closed a keep-alive connection")
                conn.buffer += data
                parsed = _response(conn.buffer)
                if parsed is None:
                    continue
                status, body, conn.buffer = parsed
                load.latencies_s.append(clock() - conn.sent_at)
                first = replies.setdefault(conn.index, body)
                if status != 200 or body != first:
                    load.failed += 1
                    load.decided.append(0)
                else:
                    load.decided.append(len(states[conn.index]))
                if not send(conn):
                    selector.unregister(conn.sock)
                    open_connections -= 1
        load.wall_s = clock() - start
        load.client_cpu_s = time.process_time() - cpu0
        load.server_cpu_s = proc_cpu_s(server.proc.pid) - server_cpu0
    finally:
        selector.close()
        for conn in connections:
            conn.sock.close()
    return load


def check_replies(
    artifact, states: List[List[int]], replies: Dict[int, bytes]
) -> Tuple[int, str, str]:
    """Compare each kept reply with the offline decision; count mismatches."""
    table = artifact.build_policy().agent.qtable
    served: List[List[str]] = []
    offline: List[List[str]] = []
    mismatched = 0
    for index in sorted(replies):
        document = json.loads(replies[index])
        expected = [mode.label for mode in table.best_modes(states[index])]
        served.append(document.get("decisions"))
        offline.append(expected)
        mismatched += document.get("decisions") != expected
    return mismatched, digest(served), digest(offline)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run(seed: int, seconds: float) -> Outcome:
    """Untraced run: warm up, then ``seconds`` of closed-loop load.

    The load is sent in stretches of :data:`STRETCH_S`, each bracketed by
    calibration samples.  ``ref_latency_ms`` is the median over stretches
    of each stretch's calibrated median latency.
    """
    requests, states = build_requests(seed)
    replies: Dict[int, bytes] = {}
    placement = cpu_placement()
    with scratch_dir() as scratch, client_placed(placement):
        artifact = build_model(seed, scratch / "models")
        servers: List[Server] = []
        try:
            # Set up several times; the last server takes the load.
            for _ in range(SERVER_STARTS):
                if servers:
                    stop_server(servers[-1].proc)
                servers.append(start_server(scratch / "models", placement))
            server = servers[-1]
            drive(server, requests, states, replies, count=WARMUP_REQUESTS)
            load = Load()
            stretches: List[Dict[str, float]] = []
            while not stretches or load.wall_s < seconds:
                with sampling(cpus=sorted(placement[0]) if placement else ()) as samples:
                    stretch = drive(
                        server, requests, states, replies,
                        seconds=min(STRETCH_S, seconds), offset=len(load.latencies_s),
                    )
                p50_s = statistics.median(stretch.latencies_s)
                stretches.append(
                    {
                        "p50_ms": p50_s * 1e3,
                        "ref_p50_ms": calibrated(p50_s, samples) * 1e3,
                        "server_cpu_us_per_request": stretch.server_cpu_s
                        * 1e6 / len(stretch.latencies_s),
                        "kernel_ns_per_step": 1e9
                        * statistics.median(x.seconds / x.steps for x in samples),
                    }
                )
                load.extend(stretch)
            peak_rss = proc_peak_rss_mb(server.proc.pid)
        finally:
            if servers:
                stop_server(servers[-1].proc)
    mismatched, served_digest, offline_digest = check_replies(artifact, states, replies)
    latencies_ms = [value * 1e3 for value in load.latencies_s]
    attempted = len(latencies_ms)
    setup = [server.ready_s for server in servers]
    return Outcome(
        metrics={
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "ref_latency_ms": (statistics.median(s["ref_p50_ms"] for s in stretches), "ms"),
        },
        attempted=attempted,
        failed=load.failed,
        checks={
            "decisions_equal_offline_best_modes": mismatched == 0
            and served_digest == offline_digest,
        },
        details={
            "decisions_per_s": load.decisions / load.wall_s,
            "stretches": stretches,
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p99_ms": percentile(latencies_ms, 0.99),
            "requests": attempted,
            "error_ratio": load.failed / attempted,
            "loadgen_cpu_s": load.client_cpu_s,
            "server_cpu_s": load.server_cpu_s,
            "decisions_digest": served_digest,
            "setup_samples_s": setup,
        },
    )


def run_traced(seed: int, seconds: float) -> Outcome:
    """Traced run: the same requests against an untraced and a traced server.

    Both get a fixed number of requests, so the counters repeat exactly.
    The traced server is started through ``serve_launcher.py``, which
    installs the wrappers and writes its spans when interrupted.
    """
    requests, states = build_requests(seed)
    loads: List[Load] = []
    replies: Dict[int, bytes] = {}
    placement = cpu_placement()
    with scratch_dir() as scratch, client_placed(placement):
        artifact = build_model(seed, scratch / "models")
        trace_out = scratch / "trace.json"
        for traced in (False, True):
            server = start_server(scratch / "models", placement, trace_out if traced else None)
            try:
                drive(server, requests, states, replies, count=WARMUP_REQUESTS)
                loads.append(drive(server, requests, states, replies, count=TRACE_REQUESTS))
            finally:
                stop_server(server.proc)
        report = json.loads(trace_out.read_text())
    mismatched, served_digest, offline_digest = check_replies(artifact, states, replies)
    plain, traced_load = loads
    ratio = statistics.median(traced_load.latencies_s) / statistics.median(plain.latencies_s)
    failed = plain.failed + traced_load.failed
    return Outcome(
        metrics=layer_metrics(
            report,
            1,
            ratio,
            serving_cpu_us_per_decision=plain.server_cpu_s * 1e6 / plain.decisions,
            loadgen_cpu_s=plain.client_cpu_s,
        ),
        attempted=len(plain.latencies_s) + len(traced_load.latencies_s),
        failed=failed,
        checks={
            "decisions_equal_offline_best_modes": mismatched == 0
            and served_digest == offline_digest,
            # Replies are shared between both servers: a traced reply that
            # differs from the untraced one to the same request fails.
            "traced_digest_equals_untraced": traced_load.failed == 0,
        },
        details={"trace": report, "decisions_digest": served_digest},
    )
