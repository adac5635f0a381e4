"""The ``sweep_fanout`` workload: a dispatch-bound sweep, cold then warm.

The grid is the small isolation grid of ``benchmarks/bench_sweep_scaling``
(FFT, Sort, SPMV, GEMM under every coherence mode on the motivation SoC),
widened to 64 tiny footprints drawn from the seed: 1024 jobs of about a
millisecond each.  One cycle runs the grid through
``run_isolation_experiment`` on the ``batch`` backend at 2 workers, with a
``ResultCache`` and a manifest in a fresh directory:

* the cold pass executes every job and writes every cache entry;
* the warm pass (``resume=True``) reads and digest-checks every entry.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    Outcome,
    SetupProbes,
    calibrated,
    children_peak_rss_mb,
    clock,
    digest,
    layer_metrics,
    sampling,
    scratch_dir,
    self_peak_rss_mb,
)
from tracer import Tracer

ACCELERATORS = ("FFT", "Sort", "SPMV", "GEMM")
FOOTPRINTS = 64
LINE_BYTES = 256
WORKERS = 2
WARM_PASSES = 1
#: Fresh-interpreter set-up probes per untraced run.
SETUP_PROBES = 3
#: Untraced/traced cycle pairs per traced run.
TRACE_PAIRS = 3


def footprints(seed: int) -> Dict[str, int]:
    """64 distinct footprints, 2 KiB to 34 KiB in whole lines, from the seed.

    One footprint is drawn from each two-line stratum, so every seed gives a
    grid of nearly the same total work.
    """
    rng = random.Random(seed)
    lines = [8 + 2 * stratum + rng.randrange(2) for stratum in range(FOOTPRINTS)]
    return {f"{n * LINE_BYTES}B": n * LINE_BYTES for n in lines}


class Grid:
    """The sweep's inputs and the one call that runs it."""

    def __init__(self, seed: int) -> None:
        from repro.accelerators.library import accelerator_by_name
        from repro.experiments.common import motivation_setup

        self.setup = motivation_setup(line_bytes=LINE_BYTES)
        self.accelerators = [accelerator_by_name(name) for name in ACCELERATORS]
        self.sizes = footprints(seed)
        self.jobs = len(self.accelerators) * len(self.sizes) * 4

    def run(self, runner) -> Tuple[float, str]:
        """Run the grid on ``runner``; return (seconds, payload digest)."""
        from repro.experiments.isolation import run_isolation_experiment

        start = clock()
        measurements = run_isolation_experiment(
            self.setup, accelerators=self.accelerators, sizes=self.sizes, runner=runner
        )
        elapsed = clock() - start
        table = [
            (m.accelerator_name, m.size_label, m.mode.label, m.exec_cycles, m.ddr_accesses)
            for m in measurements
        ]
        return elapsed, digest(table)


def _runner(directory: Path, resume: bool):
    from repro.experiments.sweep import ResultCache, RunConfig, SweepRunner

    return SweepRunner(
        config=RunConfig(
            workers=WORKERS,
            backend="batch",
            cache=ResultCache(directory / "cache"),
            manifest_dir=directory / "manifest",
            resume=resume,
        )
    )


def _entries(directory: Path) -> Dict[str, int]:
    return {p.name: p.stat().st_mtime_ns for p in (directory / "cache").glob("*/*.json")}


def cycle(grid: Grid, directory: Path) -> Dict[str, object]:
    """One cold pass, then :data:`WARM_PASSES` warm pass(es), over a fresh cache.

    The cold pass is bracketed by calibration samples.
    """
    try:
        # The pool's workers may run on any of this process's CPUs.
        with sampling(cpus=sorted(os.sched_getaffinity(0))) as samples:
            cold_s, cold_digest = grid.run(_runner(directory, resume=False))
        written = _entries(directory)
        warm = [grid.run(_runner(directory, resume=True)) for _ in range(WARM_PASSES)]
        # A warm pass must be served entirely from the cache: every job
        # has an entry and none was rewritten.
        from_cache = len(written) == grid.jobs and _entries(directory) == written
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    warm_digests = {warm_digest for _, warm_digest in warm}
    return {
        "cold_s": cold_s,
        "samples": samples,
        "warm_s": min(warm_s for warm_s, _ in warm),
        "cold_digest": cold_digest,
        "warm_digest": warm_digests.pop() if len(warm_digests) == 1 else "warm passes differ",
        "warm_from_cache": from_cache,
    }


def _serial_digest(grid: Grid) -> str:
    from repro.experiments.sweep import RunConfig, SweepRunner

    return grid.run(SweepRunner(config=RunConfig(workers=1, backend="serial")))[1]


def _failed(grid: Grid, cycles: List[Dict[str, object]], reference: str) -> int:
    """Jobs of every pass whose payloads differ from the serial run."""
    bad = 0
    for record in cycles:
        bad += grid.jobs * (record["cold_digest"] != reference)
        bad += WARM_PASSES * grid.jobs * (record["warm_digest"] != reference)
    return bad


def run(seed: int, seconds: float) -> Outcome:
    """Untraced run: cold/warm cycles until ``seconds`` pass.

    ``ref_latency_ms`` is the median cold pass, calibrated by the
    calibration samples of every cycle; the raw fastest cold and warm
    passes are recorded beside it.  Peak
    memory is the larger of this process's and of the pool workers', which
    have all been waited for once a cycle ends.  It is read after the first
    cycle, before any set-up probe has run as a child, so that it neither
    grows with the cycle count nor counts a probe.
    """
    probes = SetupProbes("sweep_fanout", seed, SETUP_PROBES, seconds)
    grid = Grid(seed)
    cycles: List[Dict[str, object]] = []
    with scratch_dir() as scratch:
        start = clock()
        while not cycles or clock() - start < seconds:
            if cycles:
                probes.between_passes(clock() - start)
            cycles.append(cycle(grid, scratch / f"cycle-{len(cycles)}"))
            if len(cycles) == 1:
                peak_rss = max(self_peak_rss_mb(), children_peak_rss_mb())
    setup = probes.finish()
    reference = _serial_digest(grid)
    cold_s = min(record["cold_s"] for record in cycles)
    warm_s = min(record["warm_s"] for record in cycles)
    failed = _failed(grid, cycles, reference)
    attempted = (1 + WARM_PASSES) * grid.jobs * len(cycles)
    return Outcome(
        metrics={
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "ref_latency_ms": (
                calibrated(
                    statistics.median(r["cold_s"] for r in cycles),
                    [sample for r in cycles for sample in r.pop("samples")],
                )
                * 1e3,
                "ms",
            ),
        },
        attempted=attempted,
        failed=failed,
        checks={
            "cold_warm_serial_digests_equal": failed == 0,
            "warm_pass_served_from_cache": all(r["warm_from_cache"] for r in cycles),
        },
        details={
            "jobs_per_s": grid.jobs / cold_s,
            "cached_jobs_per_s": grid.jobs / warm_s,
            "warm_pass_ms": warm_s * 1e3,
            "best_latency_ms": cold_s * 1e3,
            "cold_pass_p50_ms": statistics.median(r["cold_s"] for r in cycles) * 1e3,
            "error_ratio": failed / attempted,
            "serial_digest": reference,
            "cycles": cycles,
            "setup_samples_s": setup,
        },
    )


def run_traced(seed: int, seconds: float) -> Outcome:
    """Traced run: a fixed number of untraced/traced cycle pairs."""
    grid = Grid(seed)
    pairs = TRACE_PAIRS
    tracer = Tracer()
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    with scratch_dir() as scratch:
        for index in range(pairs):
            plain.append(cycle(grid, scratch / f"plain-{index}"))
            tracer.install()
            try:
                traced.append(cycle(grid, scratch / f"traced-{index}"))
            finally:
                tracer.uninstall()
    reference = _serial_digest(grid)
    ratios = [
        (t["cold_s"] + t["warm_s"]) / (p["cold_s"] + p["warm_s"])
        for p, t in zip(plain, traced)
    ]
    failed = _failed(grid, plain + traced, reference)
    return Outcome(
        metrics=layer_metrics(tracer.report(), pairs, statistics.median(ratios)),
        attempted=(1 + WARM_PASSES) * grid.jobs * (len(plain) + len(traced)),
        failed=failed,
        checks={
            "cold_warm_serial_digests_equal": failed == 0,
            "warm_pass_served_from_cache": all(r["warm_from_cache"] for r in plain + traced),
            "traced_digest_equals_untraced": all(
                p["cold_digest"] == t["cold_digest"] for p, t in zip(plain, traced)
            ),
        },
        details={"trace": tracer.report(), "cycles": plain + traced},
    )
