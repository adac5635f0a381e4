"""The figure table: one definition of every figure's grids.

Each entry of :data:`FIGURES` regenerates one artefact of the paper's
evaluation.  It takes ``(full, seed, runner)``: ``full`` picks the
paper-scale grid instead of the reduced quick grid, ``seed=None`` keeps
the figure's default seed, and ``runner`` is the
:class:`~repro.experiments.sweep.SweepRunner` the harness dispatches its
grid through (``None`` runs it serially, without a cache).  It returns
the harness result and the rendered report, so a caller can both print
the figure and check it.

``python -m repro.experiments <figure>`` and ``pytest benchmarks`` both
run this table.  Harness imports stay inside each entry, so loading the
table (the sweep CLI's ``--help``, say) loads no harness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.experiments.sweep.pool import SweepRunner

#: ``(full, seed, runner)`` -> ``(harness result, report text)``.
Figure = Callable[[bool, Optional[int], Optional["SweepRunner"]], Tuple[Any, str]]


def _isolation(full: bool, seed: Optional[int], runner: Optional[SweepRunner]):
    from repro.accelerators.library import accelerator_by_name
    from repro.experiments.common import motivation_setup
    from repro.experiments.isolation import run_isolation_experiment
    from repro.experiments.report import report_isolation
    from repro.units import KB, MB

    setup = motivation_setup(line_bytes=256)
    if full:
        accelerators, sizes = None, None
    else:
        accelerators = [accelerator_by_name(name) for name in ("FFT", "Sort", "SPMV")]
        sizes = {"Small": 16 * KB, "Medium": 256 * KB, "Large": 2 * MB}
    measurements = run_isolation_experiment(
        setup, accelerators=accelerators, sizes=sizes, runner=runner
    )
    return measurements, report_isolation(measurements)


def _parallel(full: bool, seed: Optional[int], runner: Optional[SweepRunner]):
    from repro.experiments.parallel import parallel_setup, run_parallel_experiment
    from repro.experiments.report import report_parallel

    measurements = run_parallel_experiment(
        parallel_setup(line_bytes=256),
        counts=(1, 4, 8, 12) if full else (1, 4, 12),
        invocations_per_thread=4 if full else 2,
        runner=runner,
    )
    return measurements, report_parallel(measurements)


def _phases(full: bool, seed: Optional[int], runner: Optional[SweepRunner]):
    from repro.experiments.phases import run_phase_analysis
    from repro.experiments.report import report_phases

    result = run_phase_analysis(
        training_iterations=10 if full else 3,
        seed=seed if seed is not None else 7,
        runner=runner,
    )
    return result, report_phases(result)


def _reward_dse(full: bool, seed: Optional[int], runner: Optional[SweepRunner]):
    from repro.experiments.report import report_reward_dse
    from repro.experiments.reward_dse import REWARD_WEIGHTINGS, run_reward_dse

    result = run_reward_dse(
        weightings=REWARD_WEIGHTINGS if full else REWARD_WEIGHTINGS[::3],
        training_iterations=10 if full else 3,
        seed=seed if seed is not None else 13,
        runner=runner,
    )
    return result, report_reward_dse(result)


def _breakdown(full: bool, seed: Optional[int], runner: Optional[SweepRunner]):
    from repro.experiments.breakdown import run_breakdown_experiment
    from repro.experiments.report import report_breakdown

    result = run_breakdown_experiment(
        training_iterations=10 if full else 3,
        seed=seed if seed is not None else 17,
        runner=runner,
    )
    return result, report_breakdown(result)


def _training(full: bool, seed: Optional[int], runner: Optional[SweepRunner]):
    from repro.experiments.report import report_training
    from repro.experiments.training import run_training_study

    result = run_training_study(
        budgets=(10, 30, 50) if full else (5, 10),
        seed=seed if seed is not None else 23,
        runner=runner,
    )
    return result, report_training(result)


def _socs(full: bool, seed: Optional[int], runner: Optional[SweepRunner]):
    from repro.experiments.report import report_headline, report_socs
    from repro.experiments.socs import FIGURE9_SOC_LABELS, run_soc_comparison
    from repro.experiments.summary import summarize_headline

    comparison = run_soc_comparison(
        labels=(
            FIGURE9_SOC_LABELS
            if full
            else ("SoC0-Streaming", "SoC1", "SoC2", "SoC4", "SoC6")
        ),
        training_iterations=10 if full else 4,
        seed=seed if seed is not None else 29,
        runner=runner,
    )
    summary = summarize_headline(comparison)
    return comparison, report_socs(comparison) + "\n\n" + report_headline(summary)


def _overhead(full: bool, seed: Optional[int], runner: Optional[SweepRunner]):
    from repro.experiments.overhead import OVERHEAD_FOOTPRINTS, run_overhead_experiment
    from repro.experiments.report import report_overhead

    measurements = run_overhead_experiment(
        footprints=OVERHEAD_FOOTPRINTS if full else OVERHEAD_FOOTPRINTS[::2],
        invocations_per_point=3 if full else 2,
        seed=seed if seed is not None else 31,
        runner=runner,
    )
    return measurements, report_overhead(measurements)


#: Figure name -> entry, in the paper's order (Figures 2-9, then the
#: Section 6 overhead measurement).
FIGURES: Dict[str, Figure] = {
    "isolation": _isolation,
    "parallel": _parallel,
    "phases": _phases,
    "reward_dse": _reward_dse,
    "breakdown": _breakdown,
    "training": _training,
    "socs": _socs,
    "overhead": _overhead,
}
