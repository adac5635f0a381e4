"""The simulator workloads: ``fig9`` and ``dsp_stream``.

Each workload has a pool of instances (one seed of the program each) whose
payload digests are pinned in ``workloads.json``.  A run walks the pool, in
an order drawn from the run's seed, round and round until the measuring
time is used up.  Every run therefore measures the same simulated work, so
the spread between runs measures the host, not the inputs, and every pass
is checked against its pinned digest.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from common import (
    Outcome,
    SetupProbes,
    calibrated,
    clock,
    digest,
    layer_metrics,
    sampling,
    self_peak_rss_mb,
)
from tracer import Tracer

#: The reduced Figure 9 of ``repro.perf``'s quick ``fig9_headline``.
FIG9_LABELS = ("SoC1", "SoC6")
FIG9_TRAINING_ITERATIONS = 1
DSP_SCENARIO = "streaming-dsp-chain"
#: Fresh-interpreter set-up probes per untraced run.
SETUP_PROBES = 5
#: Untraced/traced pass pairs per traced run.
TRACE_PAIRS = {"fig9": 2, "dsp_stream": 4}
#: Seconds between calibration samples inside a pass.
SAMPLE_INTERVAL_S = 0.1


@dataclass
class Pass:
    """One call into the program's entry point and what it returned."""

    seed: int
    start_s: float
    elapsed_s: float
    invocations: int
    digest: str
    #: Cohmeleon's geomean execution time and off-chip accesses, each
    #: normalised to fixed-non-coh-dma (simulated, not host, quantities).
    norm_exec: float
    norm_mem: float
    #: ``elapsed_s`` calibrated to the reference host (untraced runs only).
    ref_s: float = 0.0


def _serial_runner():
    from repro.experiments.sweep import RunConfig, SweepRunner

    # Serial and cache-free: the workload times the simulation itself.
    return SweepRunner(config=RunConfig(workers=1, backend="serial"))


def _invocations(evaluations: Dict[str, dict]) -> int:
    return sum(
        len(phase.get("invocations", []))
        for evaluation in evaluations.values()
        for phase in evaluation["result"]["phases"]
    )


def fig9_pass(seed: int) -> Pass:
    """One reduced Figure 9 comparison through ``run_soc_comparison``."""
    from repro.experiments.socs import run_soc_comparison

    runner = _serial_runner()
    start = clock()
    comparison = run_soc_comparison(
        labels=FIG9_LABELS,
        training_iterations=FIG9_TRAINING_ITERATIONS,
        seed=seed,
        runner=runner,
    )
    elapsed = clock() - start
    payload = {
        soc: {name: evaluation.to_dict() for name, evaluation in evaluations.items()}
        for soc, evaluations in comparison.evaluations.items()
    }
    cohmeleon = [point for point in comparison.points if point.policy_name == "cohmeleon"]
    return Pass(
        seed=seed,
        start_s=start,
        elapsed_s=elapsed,
        invocations=sum(_invocations(evaluations) for evaluations in payload.values()),
        digest=digest(payload),
        norm_exec=statistics.geometric_mean([point.norm_exec for point in cohmeleon]),
        norm_mem=statistics.geometric_mean([point.norm_mem for point in cohmeleon]),
    )


def dsp_pass(seed: int) -> Pass:
    """One ``streaming-dsp-chain`` policy comparison through ``run_scenario``."""
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.run import run_scenario

    scenario = get_scenario(DSP_SCENARIO)
    runner = _serial_runner()
    start = clock()
    result = run_scenario(scenario, seed=seed, runner=runner)
    elapsed = clock() - start
    payload = {kind: evaluation.to_dict() for kind, evaluation in result.evaluations.items()}
    normalized = result.normalized()["cohmeleon"]
    return Pass(
        seed=seed,
        start_s=start,
        elapsed_s=elapsed,
        invocations=_invocations(payload),
        digest=digest(payload),
        norm_exec=normalized["exec"],
        norm_mem=normalized["mem"],
    )


PASSES: Dict[str, Callable[[int], Pass]] = {"fig9": fig9_pass, "dsp_stream": dsp_pass}


def _order(config: Dict[str, object], seed: int) -> List[int]:
    seeds = [int(instance) for instance in config["instances"]]
    return random.Random(seed).sample(seeds, len(seeds))


def _simulated(config: Dict[str, object], passes: Sequence[Pass]) -> Dict[str, float]:
    """Cohmeleon against fixed-non-coh-dma on the default instance (simulated).

    Every pass of the same instance gives the same values; the values of
    the other instances are kept per pass in the record.
    """
    default = next(p for p in passes if p.seed == config["default_seed"])
    return {
        "sim_exec_speedup": 1.0 / default.norm_exec,
        "sim_offchip_reduction": 1.0 - default.norm_mem,
    }


def _checks(config: Dict[str, object], passes: Sequence[Pass]) -> int:
    """Number of passes whose payload digest differs from the pinned one."""
    pinned = config["instances"]
    return sum(1 for p in passes if pinned[str(p.seed)] != p.digest)


def run(workload: str, config: Dict[str, object], seed: int, seconds: float) -> Outcome:
    """Untraced run: walk the instance pool until ``seconds`` pass.

    The run covers every instance at least once.  Each pass is calibrated
    to the reference host by samples taken around it and, every
    :data:`SAMPLE_INTERVAL_S`, inside it.
    ``ref_latency_ms`` is the median over instances of each instance's
    median calibrated pass; the raw host medians and fastest passes are
    recorded as ``latency_p50_ms`` and ``best_latency_ms``.
    """
    run_pass = PASSES[workload]
    order = _order(config, seed)
    probes = SetupProbes(workload, order[0], SETUP_PROBES, seconds)
    passes: List[Pass] = []
    start = clock()
    while len(passes) < len(order) or clock() - start < seconds:
        probes.between_passes(clock() - start)
        with sampling(SAMPLE_INTERVAL_S) as samples:
            passes.append(run_pass(order[len(passes) % len(order)]))
        passes[-1].ref_s = calibrated(passes[-1].elapsed_s, samples, passes[-1].start_s)
        if len(passes) == len(order):
            # Over one walk, so the figure does not grow with the pass count.
            peak_rss = self_peak_rss_mb()
    setup = probes.finish()
    fastest: Dict[int, Pass] = {}
    by_instance: Dict[int, List[float]] = {}
    for p in passes:
        if p.seed not in fastest or p.elapsed_s < fastest[p.seed].elapsed_s:
            fastest[p.seed] = p
        by_instance.setdefault(p.seed, []).append(p.ref_s)
    busy = sum(p.elapsed_s for p in fastest.values())
    invocations = sum(p.invocations for p in fastest.values())
    failed = _checks(config, passes)
    details: Dict[str, object] = {
        "invocations_per_s": invocations / busy,
        "latency_p50_ms": statistics.median(p.elapsed_s for p in passes) * 1e3,
        "best_latency_ms": statistics.median(p.elapsed_s for p in fastest.values()) * 1e3,
        "passes": [vars(p) for p in passes],
        "setup_samples_s": setup,
        **_simulated(config, passes),
    }
    return Outcome(
        metrics={
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "ref_latency_ms": (
                statistics.median(statistics.median(v) for v in by_instance.values()) * 1e3,
                "ms",
            ),
        },
        attempted=len(passes),
        failed=failed,
        checks={"pinned_digests": failed == 0},
        details=details,
    )


def run_traced(workload: str, config: Dict[str, object], seed: int, seconds: float) -> Outcome:
    """Traced run: each instance once untraced, then once traced.

    The pair count is fixed per workload, so the counters repeat exactly
    for a given seed.
    """
    run_pass = PASSES[workload]
    order = _order(config, seed)
    pairs = TRACE_PAIRS[workload]
    tracer = Tracer()
    plain: List[Pass] = []
    traced: List[Pass] = []
    for index in range(pairs):
        instance = order[index % len(order)]
        plain.append(run_pass(instance))
        tracer.install()
        try:
            traced.append(run_pass(instance))
        finally:
            tracer.uninstall()
    ratios = [t.elapsed_s / p.elapsed_s for p, t in zip(plain, traced)]
    same = all(p.digest == t.digest for p, t in zip(plain, traced))
    failed = _checks(config, plain + traced)
    return Outcome(
        metrics=layer_metrics(tracer.report(), pairs, statistics.median(ratios)),
        attempted=len(plain) + len(traced),
        failed=failed,
        checks={"pinned_digests": failed == 0, "traced_digest_equals_untraced": same},
        details={"trace": tracer.report(), "passes": [vars(p) for p in plain + traced]},
    )
