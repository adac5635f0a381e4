"""Shared pieces of the benchmark: paths, digests, timing, probes, results."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here, inside the checkout.
WORK_DIR = ROOT / ".perfbench"

clock = time.perf_counter


def program_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_workloads() -> Dict[str, Dict[str, object]]:
    """Default seeds, instance pools, and pinned digests of every workload."""
    return json.loads((BENCH_DIR / "workloads.json").read_text())


def digest(payload: object) -> str:
    """Short stable digest of a JSON-serialisable payload (``repro.perf`` idiom).

    The same bytes as ``json.dumps(payload, sort_keys=True, default=str)``,
    hashed chunk by chunk so that checking a large payload does not raise
    the peak memory the benchmark reports.
    """
    sha = hashlib.sha256()
    for chunk in json.JSONEncoder(sort_keys=True, default=str).iterencode(payload):
        sha.update(chunk.encode("utf-8"))
    return sha.hexdigest()[:16]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set of any child this process has waited for, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a running child process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds consumed so far by a running process."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
#: Seconds one kernel step takes on the reference host.  A calibrated
#: timing is in seconds of that host.
REFERENCE_STEP_S = 2.5e-7
#: Samples, and kernel steps per sample, taken on each CPU just before
#: and just after timed work.
BRACKET_SAMPLES = 5
BRACKET_STEPS = 10000
#: Kernel steps of a sample taken by the timer inside timed work.
TIMER_STEPS = 4000


@dataclass
class Sample:
    """One run of the calibration kernel."""

    start: float
    seconds: float
    steps: int


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total & 1023


#: The kernel's data, built once: a kernel that allocated container objects
#: would run the garbage collector over the program's heap and time that.
_CELLS = [_Cell() for _ in range(512)]
_TABLE = {key: key for key in range(1024)}


def kernel(steps: int) -> Sample:
    """Time a fixed pure-Python kernel of ``steps`` steps on this host.

    The kernel does what the program's hot paths do, method calls on
    slotted objects and dict lookups, and allocates no container, so it
    never triggers a garbage collection.  The program's own code never
    runs in it, so a change to the program moves no calibration sample.
    """
    cells, table = _CELLS, _TABLE
    total = 0
    start = clock()
    for step in range(steps):
        total += table[cells[(step * 2654435761) & 511].add(step)]
    return Sample(start, clock() - start, steps)


def _bracket(cpus: Sequence[int]) -> List[Sample]:
    """Samples on each of ``cpus`` in turn, or where this process runs."""
    if not cpus:
        return [kernel(BRACKET_STEPS) for _ in range(BRACKET_SAMPLES)]
    previous = os.sched_getaffinity(0)
    try:
        samples = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples += [kernel(BRACKET_STEPS) for _ in range(BRACKET_SAMPLES)]
        return samples
    finally:
        os.sched_setaffinity(0, previous)


@contextmanager
def sampling(interval_s: Optional[float] = None, cpus: Sequence[int] = ()) -> Iterator[List[Sample]]:
    """Calibration samples around, and optionally inside, a block of work.

    Samples are taken on entry and on exit: on each of ``cpus`` (the CPUs
    the timed work runs on, when that is other processes), or where this
    process runs.  With ``interval_s``, a ``SIGALRM`` timer also
    samples every ``interval_s`` seconds inside the block; that is only for
    single-threaded work in the main thread that starts no processes.
    """
    samples = _bracket(cpus)
    previous = None
    if interval_s is not None:
        previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(kernel(TIMER_STEPS)))
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
    try:
        yield samples
    finally:
        if interval_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    samples += _bracket(cpus)


def calibrated(elapsed_s: float, samples: Sequence[Sample], start_s: Optional[float] = None) -> float:
    """``elapsed_s`` host seconds of work as seconds of the reference host.

    Other tenants of a shared host slow the kernel and the program alike,
    for seconds at a time, so the ratio of the work's time to the kernel's
    median time per step is far steadier than either.  Scaling by the
    reference host's time per step turns the ratio back into a time.  If
    the work started at ``start_s``, the time of timer samples taken
    inside it is not the program's and is taken out first.
    """
    if start_s is not None:
        end_s = start_s + elapsed_s
        elapsed_s -= sum(s.seconds for s in samples if start_s <= s.start < end_s)
    per_step = statistics.median(s.seconds / s.steps for s in samples)
    return elapsed_s * REFERENCE_STEP_S / per_step


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private directory under :data:`WORK_DIR`, removed afterwards."""
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_DIR / "tmp"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class SetupProbes:
    """Set-up probes spread evenly over a run's measuring time.

    Each probe runs ``probe.py`` in a fresh interpreter and is timed from
    spawn until it reports ready, so interpreter start, imports, and input
    construction all count; the time is calibrated to the reference host.
    Spreading the probes samples the host in several states; the median
    is reported.
    """

    def __init__(self, workload: str, seed: int, count: int, seconds: float) -> None:
        self.command = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)]
        self.count = count
        self.seconds = seconds
        self.samples: List[float] = []

    def between_passes(self, elapsed: float) -> None:
        """Probe once if the next probe is due ``elapsed`` seconds into the run."""
        if len(self.samples) < self.count and elapsed >= len(self.samples) * self.seconds / self.count:
            self.samples.append(self._probe())

    def finish(self) -> List[float]:
        """Run the probes still owed and return every sample."""
        while len(self.samples) < self.count:
            self.samples.append(self._probe())
        return self.samples

    def _probe(self) -> float:
        # The probe may run on any of this process's CPUs.
        with sampling(cpus=sorted(os.sched_getaffinity(0))) as samples:
            start = clock()
            proc = subprocess.Popen(
                self.command, stdout=subprocess.PIPE, env=program_env(), cwd=ROOT
            )
            try:
                line = proc.stdout.readline()
                elapsed = clock() - start
            finally:
                proc.stdout.close()
                code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe {self.command[2:]} failed (exit {code})")
        return calibrated(elapsed, samples)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: End-to-end or per-layer metrics: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    #: Named correctness gates; the run is correct only if all hold.
    checks: Dict[str, bool]
    #: Workload-specific values recorded in the result file only.
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


# ----------------------------------------------------------------------
# Per-layer metrics of the traced run
# ----------------------------------------------------------------------
#: Self-time metrics: metric name -> span name.
SPAN_METRICS = {
    "sim.engine.self_s": "sim.engine",
    "sim.resources.self_s": "sim.resources",
    "soc.cache.self_s": "soc.cache",
    "soc.datapath.self_s": "soc.datapath",
    "soc.noc.self_s": "soc.noc",
    "soc.dram.self_s": "soc.dram",
    "runtime.self_s": "runtime",
    "core.self_s": "core",
    "net.parse_s": "net.parse",
    "net.encode_s": "net.encode",
    "serving.protocol.parse_s": "serving.protocol.parse",
    "serving.decide_s": "serving.decide",
    "core.qtable.best_modes_s": "core.qtable.best_modes",
    "experiments.sweep.fingerprint_s": "experiments.sweep.fingerprint",
    "experiments.sweep.cache.put_s": "experiments.sweep.cache.put",
    "experiments.sweep.cache.get_s": "experiments.sweep.cache.get",
    "experiments.sweep.manifest.mark_done_s": "experiments.sweep.manifest.mark_done",
    "experiments.sweep.backend.run_s": "experiments.sweep.backend.run",
}

#: Work counters kept by the tracer's wrappers.
COUNTER_METRICS = (
    "sim.engine.events",
    "sim.resources.serves",
    "soc.cache.calls",
    "soc.cache.lines",
    "soc.cache.lines_all_hit",
    "soc.cache.lines_all_miss",
    "soc.cache.lines_mixed",
    "soc.cache.dirty_evictions",
    "soc.datapath.dma_calls",
    "soc.datapath.flushes",
    "soc.noc.transfers",
    "soc.dram.accesses",
    "runtime.invocations",
    "core.decisions",
    "core.updates",
    "net.requests",
    "core.qtable.decisions",
    "experiments.sweep.jobs_executed",
    "experiments.sweep.cache_hits",
)


def layer_metrics(
    report: Dict[str, Dict[str, float]],
    passes: int,
    overhead_ratio: float,
    serving_cpu_us_per_decision: float = 0.0,
    loadgen_cpu_s: float = 0.0,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, per traced pass, from a tracer report.

    A layer the workload never enters reads 0: that is what was measured.
    """
    self_s = report["self_s"]
    counters = report["counters"]
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in COUNTER_METRICS:
        metrics[name] = (counters.get(name, 0) / passes, "count")
    lines = counters.get("soc.cache.lines", 0)
    metrics["soc.cache.hit_ratio"] = (
        counters.get("soc.cache.hits", 0) / lines if lines else 0.0,
        "ratio",
    )
    for name, span in SPAN_METRICS.items():
        metrics[name] = (self_s.get(span, 0.0) / passes, "s")
    metrics["serving.cpu_us_per_decision"] = (serving_cpu_us_per_decision, "us")
    metrics["loadgen.cpu_s"] = (loadgen_cpu_s, "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
